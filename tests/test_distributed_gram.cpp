#include <gtest/gtest.h>

#include <cstdint>

#include "kernel/distributed_gram.hpp"
#include "obs/metrics.hpp"
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

QuantumKernelConfig cfg4() {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 4, .layers = 2, .distance = 1, .gamma = 0.7};
  return cfg;
}

class RankCount : public ::testing::TestWithParam<int> {};

TEST_P(RankCount, RoundRobinMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(13, 4, 100 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::RoundRobin);
  EXPECT_EQ(max_abs_diff(got, expect), 0.0) << "ranks=" << ranks;
}

TEST_P(RankCount, NoMessagingMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(11, 4, 200 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::NoMessaging);
  EXPECT_EQ(max_abs_diff(got, expect), 0.0) << "ranks=" << ranks;
}

TEST_P(RankCount, CrossKernelMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix xtest = random_scaled_data(7, 4, 300 + static_cast<std::uint64_t>(ranks));
  const RealMatrix xtrain = random_scaled_data(9, 4, 400 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = cross_kernel(cfg4(), xtest, xtrain);
  const RealMatrix got = distributed_cross_kernel(cfg4(), xtest, xtrain, ranks);
  EXPECT_EQ(max_abs_diff(got, expect), 0.0) << "ranks=" << ranks;
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCount, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DistributedGram, RoundRobinSimulatesEachCircuitOnce) {
  // The round-robin signature property (Fig. 4b): total circuit
  // simulations equal the number of data points, regardless of rank count.
  const RealMatrix x = random_scaled_data(12, 4, 500);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 4, DistributionStrategy::RoundRobin, &stats);
  EXPECT_EQ(stats.circuits_simulated, 12);
  EXPECT_GT(stats.communication_seconds, 0.0);
}

TEST(DistributedGram, NoMessagingDuplicatesSimulations) {
  // The no-messaging signature (Fig. 4a): off-diagonal tiles re-simulate
  // their row and column states, so the total exceeds the point count.
  const RealMatrix x = random_scaled_data(12, 4, 600);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 4, DistributionStrategy::NoMessaging, &stats);
  EXPECT_GT(stats.circuits_simulated, 12);
  EXPECT_DOUBLE_EQ(stats.communication_seconds, 0.0);
}

TEST(DistributedGram, InnerProductCountMatchesSymmetricHalving) {
  const idx n = 10;
  const RealMatrix x = random_scaled_data(n, 4, 700);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 3, DistributionStrategy::RoundRobin, &stats);
  EXPECT_EQ(stats.inner_products, n * (n - 1) / 2);
}

TEST(DistributedGram, MoreRanksThanPoints) {
  const RealMatrix x = random_scaled_data(3, 4, 800);
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got =
      distributed_gram_matrix(cfg4(), x, 6, DistributionStrategy::RoundRobin);
  EXPECT_EQ(max_abs_diff(got, expect), 0.0);
}

TEST(DistributedGram, ResultIsSymmetric) {
  const RealMatrix x = random_scaled_data(9, 4, 900);
  for (auto strategy : {DistributionStrategy::RoundRobin,
                        DistributionStrategy::NoMessaging}) {
    const RealMatrix k = distributed_gram_matrix(cfg4(), x, 3, strategy);
    EXPECT_EQ(symmetry_defect(k), 0.0);
  }
}

TEST(DistributedGram, DiscardedWeightIsMergedAcrossRanks) {
  // A binding bond cap, so every circuit discards weight.
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 6, .layers = 2, .distance = 2, .gamma = 0.7};
  cfg.sim.truncation.max_bond = 2;
  const RealMatrix x = random_scaled_data(12, 6, 1000);
  GramStats seq, rr, nm;
  gram_matrix(cfg, x, &seq);
  distributed_gram_matrix(cfg, x, 3, DistributionStrategy::RoundRobin, &rr);
  distributed_gram_matrix(cfg, x, 3, DistributionStrategy::NoMessaging, &nm);
  ASSERT_GT(seq.total_discarded_weight, 0.0);
  // Round-robin simulates each circuit once, as gram_matrix does; only the
  // summation order differs.
  const double tol = 1e-12 * seq.total_discarded_weight;
  EXPECT_NEAR(rr.total_discarded_weight, seq.total_discarded_weight, tol);
  // No-messaging re-simulates circuits, so it discards at least as much.
  EXPECT_GE(nm.total_discarded_weight, seq.total_discarded_weight - tol);
}

TEST(DistributedGram, TableOneAveragesAreMergedAcrossRanks) {
  const RealMatrix x = random_scaled_data(12, 4, 1300);
  GramStats seq, rr, nm;
  gram_matrix(cfg4(), x, &seq);
  distributed_gram_matrix(cfg4(), x, 3, DistributionStrategy::RoundRobin, &rr);
  distributed_gram_matrix(cfg4(), x, 3, DistributionStrategy::NoMessaging, &nm);
  ASSERT_GT(seq.avg_max_bond(), 0.0);
  // Round-robin simulates the same circuits as gram_matrix, once each,
  // and the sums are integers: they match exactly.
  EXPECT_EQ(rr.max_bond_sum, seq.max_bond_sum);
  EXPECT_EQ(rr.mps_bytes_sum, seq.mps_bytes_sum);
  EXPECT_EQ(rr.avg_max_bond(), seq.avg_max_bond());
  EXPECT_EQ(rr.avg_mps_bytes(), seq.avg_mps_bytes());
  // No-messaging re-simulates circuits; its averages cover every copy.
  EXPECT_GT(nm.avg_max_bond(), 0.0);
  EXPECT_GT(nm.avg_mps_bytes(), 0.0);
}

TEST(DistributedGram, BlocksLargerThanTheSocketBufferCrossTheRing) {
  // 165-feature d=1 states are ~23 KiB as save_mps frames, so 16 of them
  // are a block larger than an AF_UNIX socket buffer (208 KiB by default
  // on Linux). A ring whose ranks all send before they receive stalls on
  // such a block; the exchange must send and receive at once.
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 165, .layers = 2, .distance = 1, .gamma = 0.1};
  const RealMatrix x = random_scaled_data(32, 165, 1100);
  const RealMatrix xtest = random_scaled_data(3, 165, 1200);
  const int ranks = 2;

  obs::Counter& sent =
      obs::Registry::global().counter("parallel.socket.bytes_sent");
  const std::uint64_t before = sent.value();
  const RealMatrix got =
      distributed_gram_matrix(cfg, x, ranks, DistributionStrategy::RoundRobin);
  const std::uint64_t per_rank = (sent.value() - before) / ranks;
  EXPECT_GT(per_rank, 256u * 1024u) << "blocks no longer exceed the buffer";
  EXPECT_EQ(max_abs_diff(got, gram_matrix(cfg, x)), 0.0);

  const RealMatrix cross = distributed_cross_kernel(cfg, xtest, x, ranks);
  EXPECT_EQ(max_abs_diff(cross, cross_kernel(cfg, xtest, x)), 0.0);
}

TEST(DistributedGram, WrongColumnCountThrowsFromEveryEntryPoint) {
  // Every rank fails its simulation; the call must rethrow, not hang with
  // neighbours waiting on the ring.
  const RealMatrix bad = random_scaled_data(9, 5, 1300);
  const RealMatrix good = random_scaled_data(9, 4, 1400);
  EXPECT_THROW(distributed_gram_matrix(cfg4(), bad, 3,
                                       DistributionStrategy::RoundRobin),
               Error);
  EXPECT_THROW(distributed_gram_matrix(cfg4(), bad, 3,
                                       DistributionStrategy::NoMessaging),
               Error);
  EXPECT_THROW(distributed_cross_kernel(cfg4(), good, bad, 3), Error);
  EXPECT_THROW(distributed_cross_kernel(cfg4(), bad, good, 3), Error);
}

}  // namespace
}  // namespace qkmps::kernel
