#include "kernel/projected.hpp"

#include <cmath>

#include "mps/observables.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::kernel {

RealMatrix projected_features(const ProjectedKernelConfig& config,
                              const RealMatrix& x, GramStats* stats) {
  QKMPS_CHECK(x.cols() == config.ansatz.num_features);
  const idx m = config.ansatz.num_features;
  const mps::MpsSimulator sim(config.sim);

  RealMatrix f(x.rows(), 3 * m);
  Timer timer;
  for (idx i = 0; i < x.rows(); ++i) {
    std::vector<double> row(x.row(i), x.row(i) + m);
    const circuit::Circuit c = circuit::feature_map_circuit(config.ansatz, row);
    mps::SimulationResult r = sim.simulate(c);
    const std::vector<double> paulis =
        mps::pauli_feature_vector(std::move(r.state), config.sim.policy);
    for (idx j = 0; j < 3 * m; ++j)
      f(i, j) = paulis[static_cast<std::size_t>(j)];
  }
  if (stats != nullptr) {
    stats->simulation_seconds += timer.seconds();
    stats->circuits_simulated += x.rows();
  }
  return f;
}

RealMatrix projected_kernel_from_features(const RealMatrix& f_rows,
                                          const RealMatrix& f_cols,
                                          double gamma_p) {
  QKMPS_CHECK(f_rows.cols() == f_cols.cols());
  RealMatrix k(f_rows.rows(), f_cols.rows());
  for (idx i = 0; i < f_rows.rows(); ++i) {
    for (idx j = 0; j < f_cols.rows(); ++j) {
      double dist = 0.0;
      for (idx t = 0; t < f_rows.cols(); ++t) {
        const double d = f_rows(i, t) - f_cols(j, t);
        dist += d * d;
      }
      // ||rho_q - rho_q'||_F^2 = (1/2) sum of squared Pauli differences.
      k(i, j) = std::exp(-gamma_p * 0.5 * dist);
    }
  }
  return k;
}

RealMatrix projected_gram(const ProjectedKernelConfig& config,
                          const RealMatrix& x, GramStats* stats) {
  const RealMatrix f = projected_features(config, x, stats);
  Timer timer;
  RealMatrix k = projected_kernel_from_features(f, f, config.gamma_p);
  if (stats != nullptr) {
    stats->inner_product_seconds += timer.seconds();
    stats->inner_products += x.rows() * x.rows();
  }
  return k;
}

RealMatrix projected_cross(const ProjectedKernelConfig& config,
                           const RealMatrix& x_test, const RealMatrix& x_train,
                           GramStats* stats) {
  const RealMatrix ft = projected_features(config, x_test, stats);
  const RealMatrix fr = projected_features(config, x_train, stats);
  Timer timer;
  RealMatrix k = projected_kernel_from_features(ft, fr, config.gamma_p);
  if (stats != nullptr) {
    stats->inner_product_seconds += timer.seconds();
    stats->inner_products += x_test.rows() * x_train.rows();
  }
  return k;
}

}  // namespace qkmps::kernel
