#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/feature_key.hpp"
#include "serve/router.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qkmps::serve {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  return keys;
}

TEST(ModuloRouter, MatchesFeatureHashModulo) {
  ModuloRouter router(4);
  const std::vector<double> f{0.25, -1.5, 3.0};
  // The modulo router must reproduce the original sharded-frontend
  // routing bit-for-bit: hash % N.
  EXPECT_EQ(router.shard_for(f),
            static_cast<int>(feature_hash(f) % 4));
  for (std::uint64_t k : random_keys(256, 3)) {
    EXPECT_EQ(router.shard_for_hash(k), static_cast<int>(k % 4));
  }
}

TEST(ConsistentHashRouter, AssignsEveryKeyInRange) {
  ConsistentHashRouter router(5, 32);
  for (std::uint64_t k : random_keys(2000, 11)) {
    const int s = router.shard_for_hash(k);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 5);
  }
}

TEST(ConsistentHashRouter, AssignmentIsDeterministicAcrossInstances) {
  ConsistentHashRouter a(7, 64);
  ConsistentHashRouter b(7, 64);
  for (std::uint64_t k : random_keys(1000, 12))
    EXPECT_EQ(a.shard_for_hash(k), b.shard_for_hash(k));
}

TEST(ConsistentHashRouter, GrowingEqualsConstructingLarger) {
  // ConsistentHashRouter(n) + add_shard() must agree with
  // ConsistentHashRouter(n + 1) on every key — the property that lets a
  // resized engine and a freshly deployed one route identically.
  ConsistentHashRouter grown(4, 64);
  grown.add_shard();
  ConsistentHashRouter fresh(5, 64);
  for (std::uint64_t k : random_keys(2000, 13))
    EXPECT_EQ(grown.shard_for_hash(k), fresh.shard_for_hash(k));
}

TEST(ConsistentHashRouter, LoadSpreadIsRoughlyBalanced) {
  const std::size_t shards = 4;
  ConsistentHashRouter router(shards, 128);
  const std::size_t kKeys = 8000;
  std::vector<std::size_t> owned(shards, 0);
  for (std::uint64_t k : random_keys(kKeys, 14))
    ++owned[static_cast<std::size_t>(router.shard_for_hash(k))];
  // With 128 virtual nodes the relative imbalance is ~1/sqrt(128) ≈ 9%;
  // a [0.5x, 2x] band around the fair share is far outside that noise.
  const double fair = static_cast<double>(kKeys) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(static_cast<double>(owned[s]), 0.5 * fair) << "shard " << s;
    EXPECT_LT(static_cast<double>(owned[s]), 2.0 * fair) << "shard " << s;
  }
}

/// The tentpole remap property: growing N -> N+1 moves at most ~K/N keys
/// (expected K/(N+1)), and every key that moves, moves TO the new shard —
/// consistent hashing only ever steals keys for the newcomer, it never
/// shuffles keys between surviving shards. That exactness is what keeps
/// N-1 of the StateCaches warm across a resize.
TEST(ConsistentHashRouter, AddingAShardMovesAtMostOneNthOfKeys) {
  const std::size_t n = 4;
  const std::size_t kKeys = 4000;
  const std::vector<std::uint64_t> keys = random_keys(kKeys, 15);

  ConsistentHashRouter before(n, 128);
  std::vector<int> old_assignment(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i)
    old_assignment[i] = before.shard_for_hash(keys[i]);

  ConsistentHashRouter after(n, 128);
  after.add_shard();

  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const int now = after.shard_for_hash(keys[i]);
    if (now != old_assignment[i]) {
      ++moved;
      // Exact, no slack: a moved key may only have moved to the new shard.
      EXPECT_EQ(now, static_cast<int>(n)) << "key " << i
          << " moved between surviving shards";
    }
  }
  // ISSUE bound: moved <= K/N + slack. Expected value is K/(N+1) = 800;
  // K/N + 10% slack = 1400 leaves ~5 sigma of ring-imbalance headroom.
  EXPECT_LE(moved, kKeys / n + kKeys / 10);
  // And the growth is not a no-op: the new shard did take ownership.
  EXPECT_GT(moved, 0u);
}

TEST(ModuloRouter, AddingAShardRemapsAlmostEverything) {
  // The contrast that motivates the ring: hash % N reassigns ~N/(N+1) of
  // all keys on growth, cold-starting nearly every cache.
  const std::size_t n = 4;
  const std::size_t kKeys = 4000;
  const std::vector<std::uint64_t> keys = random_keys(kKeys, 16);
  ModuloRouter before(n);
  ModuloRouter after(n);
  after.add_shard();
  std::size_t moved = 0;
  for (std::uint64_t k : keys)
    if (after.shard_for_hash(k) != before.shard_for_hash(k)) ++moved;
  EXPECT_GT(moved, kKeys / 2);
}

TEST(Router, FactoryBuildsTheConfiguredKind) {
  const auto modulo = make_router(
      RouterConfig{RouterKind::kFeatureHashModulo, 64}, 3);
  EXPECT_EQ(modulo->kind(), RouterKind::kFeatureHashModulo);
  EXPECT_EQ(modulo->num_shards(), 3u);

  const auto ring = make_router(
      RouterConfig{RouterKind::kConsistentHash, 16}, 3);
  EXPECT_EQ(ring->kind(), RouterKind::kConsistentHash);
  EXPECT_EQ(ring->num_shards(), 3u);
  EXPECT_EQ(static_cast<const ConsistentHashRouter&>(*ring).virtual_nodes(),
            16u);
}

TEST(Router, SingleShardRoutersSendEverythingToShardZero) {
  ConsistentHashRouter ring(1, 8);
  ModuloRouter modulo(1);
  for (std::uint64_t k : random_keys(200, 17)) {
    EXPECT_EQ(ring.shard_for_hash(k), 0);
    EXPECT_EQ(modulo.shard_for_hash(k), 0);
  }
}

/// Weighted virtual nodes: a shard of weight w owns ~w * virtual_nodes
/// ring points, so its key share is proportional to w — the property
/// that lets a 2x-threads worker pull 2x the load.
TEST(ConsistentHashRouter, WeightedSpreadIsProportionalToWeights) {
  const std::vector<double> weights{2.0, 1.0, 1.0};
  ConsistentHashRouter router(weights, 256);
  EXPECT_EQ(router.points_of(0), 512u);
  EXPECT_EQ(router.points_of(1), 256u);

  const std::size_t kKeys = 12000;
  std::vector<std::size_t> owned(weights.size(), 0);
  for (std::uint64_t k : random_keys(kKeys, 18))
    ++owned[static_cast<std::size_t>(router.shard_for_hash(k))];

  const double total_weight = 4.0;
  for (std::size_t s = 0; s < weights.size(); ++s) {
    const double fair =
        static_cast<double>(kKeys) * weights[s] / total_weight;
    // 256+ points per shard keeps relative imbalance well under 25%.
    EXPECT_GT(static_cast<double>(owned[s]), 0.75 * fair) << "shard " << s;
    EXPECT_LT(static_cast<double>(owned[s]), 1.25 * fair) << "shard " << s;
  }
}

TEST(ConsistentHashRouter, FractionalWeightStillGetsAtLeastOnePoint) {
  ConsistentHashRouter router(std::vector<double>{1.0, 0.001}, 8);
  EXPECT_EQ(router.points_of(1), 1u);  // max(1, round(0.001 * 8))
}

/// Removal is the exact mirror of growth: every key the leaver owned
/// hands off to a surviving shard, and no key owned by a survivor moves
/// at all — survivors' caches stay untouched by the shrink.
TEST(ConsistentHashRouter, RemovingAShardOnlyMovesTheLeaversKeys) {
  const std::size_t n = 4;
  const std::size_t kKeys = 4000;
  const std::vector<std::uint64_t> keys = random_keys(kKeys, 19);

  ConsistentHashRouter before(n, 128);
  ConsistentHashRouter after(n, 128);
  const int leaver = 1;
  after.remove_shard(leaver);
  EXPECT_EQ(after.points_of(leaver), 0u);
  EXPECT_EQ(after.num_shards(), n);  // the retired id still counts

  std::size_t handed_off = 0;
  for (std::uint64_t k : keys) {
    const int was = before.shard_for_hash(k);
    const int now = after.shard_for_hash(k);
    EXPECT_NE(now, leaver);
    if (was == leaver) {
      ++handed_off;
    } else {
      EXPECT_EQ(now, was) << "a survivor's key moved during removal";
    }
  }
  EXPECT_GT(handed_off, 0u);
}

TEST(ConsistentHashRouter, RemoveShardValidatesItsTarget) {
  ConsistentHashRouter router(3, 32);
  EXPECT_THROW(router.remove_shard(-1), Error);
  EXPECT_THROW(router.remove_shard(3), Error);
  router.remove_shard(1);
  EXPECT_THROW(router.remove_shard(1), Error);  // already removed
  router.remove_shard(0);
  EXPECT_THROW(router.remove_shard(2), Error);  // would empty the ring
}

TEST(ModuloRouter, WeightsAndMidTopologyRemovalAreRejected) {
  ModuloRouter router(3);
  EXPECT_THROW(router.add_shard(2.0), Error);
  EXPECT_THROW(router.remove_shard(0), Error);  // only the top id shrinks
  router.remove_shard(2);
  EXPECT_EQ(router.num_shards(), 2u);
  for (std::uint64_t k : random_keys(100, 20))
    EXPECT_EQ(router.shard_for_hash(k), static_cast<int>(k % 2));
  router.remove_shard(1);
  EXPECT_THROW(router.remove_shard(0), Error);  // cannot remove the last
}

TEST(Router, WeightedFactoryRejectsWeightsTheKindCannotExpress) {
  EXPECT_THROW(make_router(RouterConfig{RouterKind::kFeatureHashModulo, 64},
                           std::vector<double>{1.0, 2.0}),
               Error);
  const auto ring = make_router(RouterConfig{RouterKind::kConsistentHash, 64},
                                std::vector<double>{1.0, 2.0});
  EXPECT_EQ(ring->num_shards(), 2u);
  EXPECT_EQ(static_cast<const ConsistentHashRouter&>(*ring).points_of(1),
            128u);
}

}  // namespace
}  // namespace qkmps::serve
