#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "circuit/statevector.hpp"
#include "kernel/gram.hpp"
#include "mps/serialization.hpp"
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

/// True when K + shift * I has a Cholesky factor, i.e. every pivot stays
/// positive: K is positive semidefinite up to `shift`.
bool shifted_cholesky_succeeds(const RealMatrix& k, double shift) {
  const idx n = k.rows();
  RealMatrix l(n, n);
  for (idx j = 0; j < n; ++j) {
    double pivot = k(j, j) + shift;
    for (idx p = 0; p < j; ++p) pivot -= l(j, p) * l(j, p);
    if (!(pivot > 0.0)) return false;
    l(j, j) = std::sqrt(pivot);
    for (idx i = j + 1; i < n; ++i) {
      double v = k(i, j);
      for (idx p = 0; p < j; ++p) v -= l(i, p) * l(j, p);
      l(i, j) = v / l(j, j);
    }
  }
  return true;
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

TEST(Gram, PositiveSemidefiniteByCholesky) {
  // Fidelity kernels are PSD: K + 1e-9 I factors. The check itself must
  // refuse an indefinite matrix ([[1, 2], [2, 1]] has eigenvalue -1).
  const RealMatrix x = random_scaled_data(8, 5, 3);
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 5, .layers = 2, .distance = 2, .gamma = 0.8};
  EXPECT_TRUE(shifted_cholesky_succeeds(gram_matrix(cfg, x), 1e-9));

  RealMatrix indefinite(2, 2);
  indefinite(0, 0) = indefinite(1, 1) = 1.0;
  indefinite(0, 1) = indefinite(1, 0) = 2.0;
  EXPECT_FALSE(shifted_cholesky_succeeds(indefinite, 1e-9));
}

TEST(Gram, DeeperAnsatzConcentratesKernel) {
  // Table III's mechanism as a relation between two runs: eight layers
  // pull the mean off-diagonal entry below its one-layer value.
  const RealMatrix x = random_scaled_data(8, 6, 1);
  auto mean_off_diagonal = [&](idx r) {
    QuantumKernelConfig cfg;
    cfg.ansatz = {.num_features = 6, .layers = r, .distance = 1, .gamma = 1.0};
    const RealMatrix k = gram_matrix(cfg, x);
    double sum = 0.0;
    idx count = 0;
    for (idx i = 0; i < k.rows(); ++i)
      for (idx j = i + 1; j < k.cols(); ++j) {
        sum += k(i, j);
        ++count;
      }
    return sum / static_cast<double>(count);
  };
  EXPECT_GT(mean_off_diagonal(1), mean_off_diagonal(8));
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
  EXPECT_GE(stats.avg_max_bond(), 1.0);
  EXPECT_GT(stats.avg_mps_bytes(), 0.0);
}

TEST(CrossKernel, StatsCoverTestAndTrainCircuits) {
  const RealMatrix xtest = random_scaled_data(3, 4, 10);
  const RealMatrix xtrain = random_scaled_data(5, 4, 11);
  GramStats test_only, train_only, both;
  simulate_states(small_config(4), xtest, &test_only);
  simulate_states(small_config(4), xtrain, &train_only);
  cross_kernel(small_config(4), xtest, xtrain, &both);
  EXPECT_EQ(both.circuits_simulated, 8);
  EXPECT_EQ(both.max_bond_sum, test_only.max_bond_sum + train_only.max_bond_sum);
  EXPECT_EQ(both.mps_bytes_sum,
            test_only.mps_bytes_sum + train_only.mps_bytes_sum);
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

/// FNV-1a-64 of a kernel matrix's doubles, bit for bit.
std::uint64_t bits_digest(const RealMatrix& k) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(k.rows() * k.cols()) *
                                  sizeof(double));
  if (!bytes.empty()) std::memcpy(bytes.data(), k.data(), bytes.size());
  return qkmps::testing::fnv1a64(bytes);
}

/// FNV-1a-64 of the save_mps bytes of every state, one after another.
std::uint64_t states_digest(const std::vector<mps::Mps>& states) {
  std::vector<std::uint8_t> bytes;
  for (const mps::Mps& psi : states) {
    const std::vector<std::uint8_t> one = mps::save_mps(psi);
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  return qkmps::testing::fnv1a64(bytes);
}

/// One workload shape whose simulated states, Gram matrix and cross kernel
/// are pinned bit for bit: a change to how states are stored or contracted
/// must not move a digest.
struct PinnedShape {
  const char* name;
  idx features, distance;
  double gamma;
  idx max_bond;
  std::uint64_t seed;
  std::uint64_t states, gram, cross;
};

TEST(Gram, StateAndKernelBitsArePinned) {
  const PinnedShape shapes[] = {
      // The paper's ansatz at 165 qubits (chi <= 3).
      {"paper", 165, 1, 0.1, 0, 21, 0x8b5ea870358b8808ull, 0xc83492f0f4fee529ull,
       0xb58ccb531ed1eef8ull},
      // chi capped at 8, well below the ~30 it reaches uncapped:
      // truncation binds and bonds change size mid-sweep.
      {"capped", 10, 3, 1.0, 8, 22, 0xeae13737a0548bafull, 0xc4c9e3372dc20329ull,
       0x33fe2f1eabca5c96ull},
  };
  for (const PinnedShape& s : shapes) {
    SCOPED_TRACE(s.name);
    QuantumKernelConfig cfg;
    cfg.ansatz = {.num_features = s.features, .layers = 2,
                  .distance = s.distance, .gamma = s.gamma};
    cfg.sim.truncation.max_bond = s.max_bond;
    GramStats stats;
    const std::vector<mps::Mps> train =
        simulate_states(cfg, random_scaled_data(4, s.features, s.seed), &stats);
    const std::vector<mps::Mps> test = simulate_states(
        cfg, random_scaled_data(2, s.features, s.seed + 100), &stats);
    std::vector<mps::Mps> all = train;
    all.insert(all.end(), test.begin(), test.end());
    if (s.max_bond > 0) {
      EXPECT_GT(stats.total_discarded_weight, 0.0);
      for (const mps::Mps& psi : all) EXPECT_EQ(psi.max_bond(), s.max_bond);
    }
    EXPECT_EQ(states_digest(all), s.states) << std::hex << states_digest(all);
    for (const linalg::ExecPolicy policy :
         {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
      SCOPED_TRACE(linalg::to_string(policy));
      const std::uint64_t gram = bits_digest(gram_from_states(train, policy));
      const std::uint64_t cross =
          bits_digest(cross_from_states(test, train, policy));
      EXPECT_EQ(gram, s.gram) << std::hex << gram;
      EXPECT_EQ(cross, s.cross) << std::hex << cross;
    }
  }
}

TEST(Gram, RejectsFeatureMismatch) {
  const RealMatrix x = random_scaled_data(3, 4, 13);
  EXPECT_THROW(gram_matrix(small_config(5), x), Error);
}

}  // namespace
}  // namespace qkmps::kernel
