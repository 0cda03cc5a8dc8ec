/// Cross-backend verification harness: every quantity the MPS backend
/// produces — amplitudes, inner products, Gram-matrix entries — is checked
/// against the dense statevector backend on randomized small circuits
/// (<= 10 qubits), at full bond dimension, to 1e-10. This is the safety
/// net every performance PR is judged against: the two backends share no
/// dense kernels beyond linalg, so agreement here pins down the whole
/// simulation stack. Truncated-bond-dimension runs are additionally
/// required to degrade *monotonically* toward the exact answer as the cap
/// is raised.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "circuit/ansatz.hpp"
#include "circuit/statevector.hpp"
#include "kernel/gram.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps {
namespace {

using qkmps::testing::dense_infidelity;
using qkmps::testing::dense_inner_product;
using qkmps::testing::max_amplitude_diff;
using qkmps::testing::random_circuit;
using qkmps::testing::random_features;

/// Agreement tolerance between backends at full bond dimension. The MPS
/// path accumulates only QR/SVD roundoff (~1e-15 per two-qubit gate), so
/// 1e-10 leaves four orders of headroom on the circuit sizes used here.
constexpr double kParityTol = 1e-10;

/// Exact MPS configuration: zero discarded-weight budget and no bond cap,
/// so every nonzero singular value is kept.
mps::SimulatorConfig exact_config(linalg::ExecPolicy policy) {
  mps::SimulatorConfig cfg;
  cfg.policy = policy;
  cfg.truncation.max_discarded_weight = 0.0;
  cfg.truncation.max_bond = 0;
  return cfg;
}

/// Same circuit through both backends; returns (mps dense amps, sv amps).
std::pair<std::vector<cplx>, std::vector<cplx>> simulate_both(
    const circuit::Circuit& c, linalg::ExecPolicy policy) {
  const mps::MpsSimulator sim(exact_config(policy));
  const auto mps_amps = sim.simulate(c).state.to_statevector();
  const auto sv = circuit::simulate_statevector(c);
  return {mps_amps, sv.amplitudes()};
}

class BackendParity : public ::testing::TestWithParam<linalg::ExecPolicy> {};

TEST_P(BackendParity, RandomCircuitAmplitudesMatchStatevector) {
  Rng rng(101);
  for (const idx m : {2, 3, 5, 8, 10}) {
    for (int trial = 0; trial < 3; ++trial) {
      const circuit::Circuit c = random_circuit(m, 5 * m, rng);
      const auto [mps_amps, sv_amps] = simulate_both(c, GetParam());
      EXPECT_LT(max_amplitude_diff(mps_amps, sv_amps), kParityTol)
          << "m=" << m << " trial=" << trial;
    }
  }
}

TEST_P(BackendParity, FeatureMapAmplitudesMatchStatevector) {
  Rng rng(202);
  for (const idx m : {4, 6, 9}) {
    for (const idx d : {1, 2, 3}) {
      const circuit::AnsatzParams p{
          .num_features = m, .layers = 3, .distance = d, .gamma = 1.0};
      const circuit::Circuit c =
          circuit::feature_map_circuit(p, random_features(m, rng));
      const auto [mps_amps, sv_amps] = simulate_both(c, GetParam());
      EXPECT_LT(max_amplitude_diff(mps_amps, sv_amps), kParityTol)
          << "m=" << m << " d=" << d;
    }
  }
}

TEST_P(BackendParity, InnerProductsMatchStatevector) {
  Rng rng(303);
  const mps::MpsSimulator sim(exact_config(GetParam()));
  for (const idx m : {2, 4, 6, 8, 10}) {
    const circuit::Circuit ca = random_circuit(m, 4 * m, rng);
    const circuit::Circuit cb = random_circuit(m, 4 * m, rng);
    const mps::Mps a = sim.simulate(ca).state;
    const mps::Mps b = sim.simulate(cb).state;
    const circuit::Statevector sa = circuit::simulate_statevector(ca);
    const circuit::Statevector sb = circuit::simulate_statevector(cb);

    const cplx zipper = mps::inner_product(a, b, GetParam());
    const cplx dense = sa.inner_product(sb);
    EXPECT_LT(std::abs(zipper - dense), kParityTol) << "m=" << m;
    EXPECT_NEAR(mps::overlap_squared(a, b, GetParam()), std::norm(dense),
                kParityTol)
        << "m=" << m;
  }
}

TEST_P(BackendParity, GramMatrixEntriesMatchStatevector) {
  const idx n = 4, m = 6;
  Rng rng(505);
  kernel::RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 2, .distance = 2, .gamma = 0.8};
  cfg.sim = exact_config(GetParam());
  const kernel::RealMatrix k = kernel::gram_matrix(cfg, x);

  std::vector<circuit::Statevector> svs;
  for (idx i = 0; i < n; ++i) {
    const std::vector<double> row(x.row(i), x.row(i) + m);
    svs.push_back(circuit::simulate_statevector(
        circuit::feature_map_circuit(cfg.ansatz, row)));
  }
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      const double expected = std::norm(svs[static_cast<std::size_t>(i)]
                                            .inner_product(svs[static_cast<std::size_t>(j)]));
      EXPECT_NEAR(k(i, j), expected, kParityTol) << i << "," << j;
    }

  // Rectangular inference kernel against the same ground truth.
  const kernel::RealMatrix kx = kernel::cross_kernel(cfg, x, x);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j)
      EXPECT_NEAR(kx(i, j), k(i, j), kParityTol) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BackendParity,
    ::testing::Values(linalg::ExecPolicy::Reference,
                      linalg::ExecPolicy::Accelerated),
    [](const ::testing::TestParamInfo<linalg::ExecPolicy>& info) {
      return linalg::to_string(info.param);
    });

TEST(BackendParityPolicies, PoliciesAgreeOnGramMatrix) {
  // Table I's consistency requirement: both execution policies run the same
  // MPS algorithm, so their Gram matrices must agree to roundoff.
  const idx n = 5, m = 7;
  Rng rng(606);
  kernel::RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 2, .distance = 2, .gamma = 0.9};
  cfg.sim = exact_config(linalg::ExecPolicy::Reference);
  const kernel::RealMatrix k_ref = kernel::gram_matrix(cfg, x);
  cfg.sim = exact_config(linalg::ExecPolicy::Accelerated);
  const kernel::RealMatrix k_acc = kernel::gram_matrix(cfg, x);

  EXPECT_LT(kernel::max_abs_diff(k_ref, k_acc), kParityTol);
}

/// Infidelity of a chi-capped simulation against the exact statevector.
double capped_infidelity(const circuit::Circuit& c, idx max_bond,
                         double* discarded = nullptr) {
  mps::SimulatorConfig cfg;
  cfg.truncation.max_bond = max_bond;
  const mps::MpsSimulator sim(cfg);
  const mps::SimulationResult r = sim.simulate(c);
  if (discarded != nullptr) *discarded = r.truncation.total_discarded_weight;
  std::vector<cplx> approx = r.state.to_statevector();
  return dense_infidelity(circuit::simulate_statevector(c).amplitudes(),
                          approx);
}

TEST(BackendParityTruncated, InfidelityDegradesMonotonicallyInBondCap) {
  // An entangling 8-qubit feature map saturates chi = 16 untruncated; each
  // tighter cap must hurt at least as much as the next looser one.
  Rng rng(707);
  const circuit::AnsatzParams p{
      .num_features = 8, .layers = 3, .distance = 3, .gamma = 1.2};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, random_features(8, rng));

  const std::vector<idx> caps = {1, 2, 4, 8, 16};
  std::vector<double> infidelity;
  for (const idx chi : caps) infidelity.push_back(capped_infidelity(c, chi));

  for (std::size_t k = 0; k + 1 < caps.size(); ++k) {
    EXPECT_LE(infidelity[k + 1], infidelity[k] + 1e-12)
        << "chi " << caps[k] << " -> " << caps[k + 1];
  }
  // The loosest cap equals the full bond dimension: exact to parity tol.
  EXPECT_LT(infidelity.back(), kParityTol);
  // The tightest cap (product state) must measurably hurt, or this test
  // would pass vacuously on a non-entangling circuit.
  EXPECT_GT(infidelity.front(), 1e-3);
}

TEST(BackendParityTruncated, DiscardedWeightShrinksAsCapGrows) {
  Rng rng(808);
  const circuit::AnsatzParams p{
      .num_features = 8, .layers = 3, .distance = 3, .gamma = 1.2};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, random_features(8, rng));

  std::vector<double> weights;
  for (const idx chi : {1, 2, 4, 8, 16}) {
    double w = 0.0;
    capped_infidelity(c, chi, &w);
    weights.push_back(w);
  }
  for (std::size_t k = 0; k + 1 < weights.size(); ++k)
    EXPECT_LE(weights[k + 1], weights[k] + 1e-12);
}

TEST(BackendParityTruncated, KernelEntriesDegradeMonotonicallyInBondCap) {
  // Truncation maps to the *kernel* level the same way: the max entrywise
  // Gram error against the exact kernel must not increase with chi.
  const idx n = 3, m = 8;
  Rng rng(909);
  kernel::RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 3, .distance = 3, .gamma = 1.2};
  cfg.sim = exact_config(linalg::ExecPolicy::Reference);
  const kernel::RealMatrix k_exact = kernel::gram_matrix(cfg, x);

  std::vector<double> errors;
  for (const idx chi : {1, 2, 4, 8, 16}) {
    cfg.sim.truncation = {.max_discarded_weight = kDefaultTruncationError,
                          .max_bond = chi};
    errors.push_back(kernel::max_abs_diff(kernel::gram_matrix(cfg, x), k_exact));
  }
  for (std::size_t k = 0; k + 1 < errors.size(); ++k)
    EXPECT_LE(errors[k + 1], errors[k] + 1e-12)
        << "cap index " << k;
  EXPECT_LT(errors.back(), kParityTol);
  EXPECT_GT(errors.front(), 1e-6);
}

}  // namespace
}  // namespace qkmps
