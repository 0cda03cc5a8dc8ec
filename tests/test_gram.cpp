#include <gtest/gtest.h>

#include <cmath>

#include "circuit/statevector.hpp"
#include "kernel/gram.hpp"
#include "test_helpers.hpp"

namespace qkmps::kernel {
namespace {

RealMatrix random_scaled_data(idx n, idx m, std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);
  return x;
}

QuantumKernelConfig small_config(idx m, idx d = 1, double gamma = 0.6) {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 2, .distance = d, .gamma = gamma};
  return cfg;
}

TEST(Gram, DiagonalIsOne) {
  const RealMatrix x = random_scaled_data(5, 4, 1);
  const RealMatrix k = gram_matrix(small_config(4), x);
  // Not bit-exact by contract: diagonal entries come from normalized-state
  // self-overlaps, so allow accumulated roundoff at the 1e-12 scale.
  for (idx i = 0; i < 5; ++i) EXPECT_NEAR(k(i, i), 1.0, 1e-12);
}

TEST(Gram, SymmetricByConstruction) {
  const RealMatrix x = random_scaled_data(6, 5, 2);
  const RealMatrix k = gram_matrix(small_config(5, 2), x);
  EXPECT_EQ(symmetry_defect(k), 0.0);
}

TEST(Gram, EntriesInUnitInterval) {
  const RealMatrix x = random_scaled_data(7, 4, 3);
  const RealMatrix k = gram_matrix(small_config(4, 2, 1.0), x);
  for (idx i = 0; i < k.rows(); ++i)
    for (idx j = 0; j < k.cols(); ++j) {
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0 + 1e-10);
    }
}

TEST(Gram, MatchesStatevectorKernel) {
  // Ground truth: compute |<psi_i|psi_j>|^2 with the dense simulator.
  const idx n = 5, m = 6;
  const RealMatrix x = random_scaled_data(n, m, 4);
  const QuantumKernelConfig cfg = small_config(m, 2, 0.8);

  const RealMatrix k = gram_matrix(cfg, x);

  std::vector<circuit::Statevector> svs;
  for (idx i = 0; i < n; ++i) {
    std::vector<double> row(x.row(i), x.row(i) + m);
    svs.push_back(circuit::simulate_statevector(
        circuit::feature_map_circuit(cfg.ansatz, row)));
  }
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      const double expect = std::norm(svs[static_cast<std::size_t>(i)].inner_product(
          svs[static_cast<std::size_t>(j)]));
      EXPECT_NEAR(k(i, j), expect, 1e-8) << i << "," << j;
    }
}

TEST(Gram, PositiveSemidefiniteQuadraticForms) {
  // Fidelity kernels are PSD; spot-check v^T K v >= 0 on random vectors.
  const RealMatrix x = random_scaled_data(8, 4, 5);
  const RealMatrix k = gram_matrix(small_config(4, 1, 1.0), x);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v(8);
    for (auto& e : v) e = rng.normal();
    double quad = 0.0;
    for (idx i = 0; i < 8; ++i)
      for (idx j = 0; j < 8; ++j)
        quad += v[static_cast<std::size_t>(i)] * k(i, j) * v[static_cast<std::size_t>(j)];
    EXPECT_GE(quad, -1e-9);
  }
}

TEST(Gram, StatsCountsArePredictable) {
  const idx n = 6;
  const RealMatrix x = random_scaled_data(n, 4, 7);
  GramStats stats;
  gram_matrix(small_config(4), x, &stats);
  EXPECT_EQ(stats.circuits_simulated, n);
  EXPECT_EQ(stats.inner_products, n * (n - 1) / 2);  // symmetric halving
  // Phases are measured in thread-CPU time; a handful of tiny-chi circuit
  // simulations or overlaps can round to zero at clock granularity, so only
  // non-negativity is promised here (magnitudes are covered by the benches).
  EXPECT_GE(stats.simulation_seconds, 0.0);
  EXPECT_GE(stats.inner_product_seconds, 0.0);
  EXPECT_GE(stats.avg_max_bond, 1.0);
  EXPECT_GT(stats.avg_mps_bytes, 0u);
}

TEST(CrossKernel, ShapeAndRange) {
  const RealMatrix xtest = random_scaled_data(3, 4, 8);
  const RealMatrix xtrain = random_scaled_data(5, 4, 9);
  const RealMatrix k = cross_kernel(small_config(4), xtest, xtrain);
  EXPECT_EQ(k.rows(), 3);
  EXPECT_EQ(k.cols(), 5);
  for (idx i = 0; i < 3; ++i)
    for (idx j = 0; j < 5; ++j) {
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0 + 1e-10);
    }
}

TEST(CrossKernel, IdenticalPointGivesUnitEntry) {
  const RealMatrix xtrain = random_scaled_data(4, 5, 10);
  RealMatrix xtest(1, 5);
  for (idx j = 0; j < 5; ++j) xtest(0, j) = xtrain(2, j);
  const RealMatrix k = cross_kernel(small_config(5), xtest, xtrain);
  EXPECT_NEAR(k(0, 2), 1.0, 1e-9);
}

TEST(CrossKernel, CountsBothSimulationSets) {
  const RealMatrix xtest = random_scaled_data(2, 4, 11);
  const RealMatrix xtrain = random_scaled_data(3, 4, 12);
  GramStats stats;
  cross_kernel(small_config(4), xtest, xtrain, &stats);
  EXPECT_EQ(stats.circuits_simulated, 5);
  EXPECT_EQ(stats.inner_products, 6);
}

TEST(Gram, RejectsFeatureMismatch) {
  const RealMatrix x = random_scaled_data(3, 4, 13);
  EXPECT_THROW(gram_matrix(small_config(5), x), Error);
}

}  // namespace
}  // namespace qkmps::kernel
