#include <gtest/gtest.h>

#include "kernel/distributed_gram.hpp"
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
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

TEST_P(RankCount, NoMessagingMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(11, 4, 200 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::NoMessaging);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

TEST_P(RankCount, CrossKernelMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix xtest = random_scaled_data(7, 4, 300 + static_cast<std::uint64_t>(ranks));
  const RealMatrix xtrain = random_scaled_data(9, 4, 400 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = cross_kernel(cfg4(), xtest, xtrain);
  const RealMatrix got = distributed_cross_kernel(cfg4(), xtest, xtrain, ranks);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
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
  EXPECT_LT(max_abs_diff(got, expect), 1e-12);
}

TEST(DistributedGram, ResultIsSymmetric) {
  const RealMatrix x = random_scaled_data(9, 4, 900);
  for (auto strategy : {DistributionStrategy::RoundRobin,
                        DistributionStrategy::NoMessaging}) {
    const RealMatrix k = distributed_gram_matrix(cfg4(), x, 3, strategy);
    EXPECT_EQ(symmetry_defect(k), 0.0);
  }
}

}  // namespace
}  // namespace qkmps::kernel
