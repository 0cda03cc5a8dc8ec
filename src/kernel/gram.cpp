#include "kernel/gram.hpp"

#include <algorithm>
#include <cmath>

#include "mps/inner_product.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::kernel {

namespace {

double max_abs_diff_impl(const RealMatrix& a, const RealMatrix& b) {
  QKMPS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

std::vector<double> row_features(const RealMatrix& x, idx i) {
  return std::vector<double>(x.row(i), x.row(i) + x.cols());
}

}  // namespace

double max_abs_diff(const RealMatrix& a, const RealMatrix& b) {
  return max_abs_diff_impl(a, b);
}

double symmetry_defect(const RealMatrix& k) {
  QKMPS_CHECK(k.rows() == k.cols());
  double m = 0.0;
  for (idx i = 0; i < k.rows(); ++i)
    for (idx j = i + 1; j < k.cols(); ++j)
      m = std::max(m, std::abs(k(i, j) - k(j, i)));
  return m;
}

std::vector<mps::Mps> simulate_states(const QuantumKernelConfig& config,
                                      const RealMatrix& x, GramStats* stats) {
  QKMPS_CHECK_MSG(x.cols() == config.ansatz.num_features,
                  "dataset has " << x.cols() << " features, ansatz expects "
                                 << config.ansatz.num_features);
  const mps::MpsSimulator sim(config.sim);
  std::vector<mps::Mps> states;
  states.reserve(static_cast<std::size_t>(x.rows()));

  ThreadCpuTimer timer;
  idx bond_sum = 0;
  std::size_t bytes_sum = 0;
  double discarded = 0.0;
  for (idx i = 0; i < x.rows(); ++i) {
    const circuit::Circuit c =
        circuit::feature_map_circuit(config.ansatz, row_features(x, i));
    // feature_map_circuit already contains the Hadamard preparation layer
    // (Eq. 2), so simulation starts from |0...0>.
    mps::SimulationResult r = sim.simulate(c);
    bond_sum += r.state.max_bond();
    bytes_sum += r.state.memory_bytes();
    discarded += r.truncation.total_discarded_weight;
    states.push_back(std::move(r.state));
  }
  if (stats != nullptr) {
    stats->simulation_seconds += timer.seconds();
    stats->circuits_simulated += x.rows();
    stats->max_bond_sum += bond_sum;
    stats->mps_bytes_sum += bytes_sum;
    stats->total_discarded_weight += discarded;
  }
  return states;
}

RealMatrix gram_from_states(const std::vector<mps::Mps>& states,
                            linalg::ExecPolicy policy, GramStats* stats) {
  const idx n = static_cast<idx>(states.size());
  RealMatrix k(n, n);
  ThreadCpuTimer timer;
  idx count = 0;
  for (idx i = 0; i < n; ++i) {
    k(i, i) = 1.0;  // normalized states overlap with themselves
    for (idx j = i + 1; j < n; ++j) {
      const double v = mps::overlap_squared(states[static_cast<std::size_t>(i)],
                                            states[static_cast<std::size_t>(j)],
                                            policy);
      k(i, j) = v;
      k(j, i) = v;
      ++count;
    }
  }
  if (stats != nullptr) {
    stats->inner_product_seconds += timer.seconds();
    stats->inner_products += count;
  }
  return k;
}

RealMatrix cross_from_states(const std::vector<mps::Mps>& test_states,
                             const std::vector<mps::Mps>& train_states,
                             linalg::ExecPolicy policy, GramStats* stats) {
  const idx nt = static_cast<idx>(test_states.size());
  const idx nr = static_cast<idx>(train_states.size());
  RealMatrix k(nt, nr);
  ThreadCpuTimer timer;
  for (idx i = 0; i < nt; ++i)
    for (idx j = 0; j < nr; ++j)
      k(i, j) = mps::overlap_squared(test_states[static_cast<std::size_t>(i)],
                                     train_states[static_cast<std::size_t>(j)],
                                     policy);
  if (stats != nullptr) {
    stats->inner_product_seconds += timer.seconds();
    stats->inner_products += nt * nr;
  }
  return k;
}

RealMatrix gram_matrix(const QuantumKernelConfig& config, const RealMatrix& x,
                       GramStats* stats) {
  const std::vector<mps::Mps> states = simulate_states(config, x, stats);
  return gram_from_states(states, config.sim.policy, stats);
}

RealMatrix cross_kernel(const QuantumKernelConfig& config,
                        const RealMatrix& x_test, const RealMatrix& x_train,
                        GramStats* stats) {
  const std::vector<mps::Mps> test_states = simulate_states(config, x_test, stats);
  const std::vector<mps::Mps> train_states = simulate_states(config, x_train, stats);
  return cross_from_states(test_states, train_states, config.sim.policy, stats);
}

}  // namespace qkmps::kernel
