#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace qkmps::serve {

/// Which key->shard assignment strategy a serving frontend uses. Both
/// strategies hash the raw feature bits (serve::feature_hash), so
/// bit-identical requests always colocate and per-shard cache locality
/// survives sharding; they differ in what happens when the shard set
/// changes size (see DESIGN.md, "Routing").
enum class RouterKind {
  /// `feature_hash(x) % N`. Perfectly balanced, zero state — but growing
  /// N -> N+1 reassigns ~N/(N+1) of all keys, cold-starting nearly every
  /// shard's StateCache and memo.
  kFeatureHashModulo,
  /// Consistent-hash ring with virtual nodes: each shard owns
  /// `virtual_nodes` points on a 64-bit ring and a key belongs to the
  /// first shard point at or clockwise of its hash. Growing N -> N+1
  /// moves only the ~1/(N+1) of keys the new shard's points capture;
  /// every other key keeps its shard, and its shard keeps its cache
  /// (tests/test_router.cpp pins both properties).
  kConsistentHash,
};

const char* to_string(RouterKind kind);

struct RouterConfig {
  RouterKind kind = RouterKind::kFeatureHashModulo;
  /// Ring points per shard (kConsistentHash only). More points tighten
  /// the load spread (relative imbalance ~ 1/sqrt(virtual_nodes)) at the
  /// cost of a larger binary-searched ring.
  std::size_t virtual_nodes = 64;
};

/// Stable key->shard assignment of serve::RankShardedEngine: its submit()
/// admits by it and its router forwards by it.
///
/// Thread safety: shard_for / shard_for_hash / num_shards are const and
/// safe to call concurrently from any number of threads. add_shard and
/// remove_shard are topology mutations and must be externally serialized
/// against lookups — the owning engine only resizes under its topology
/// lock (or with its router loop stopped).
///
/// Invariants: shard_for_hash returns a value in [0, num_shards()) that
/// names a non-removed shard, for every 64-bit hash; the assignment is a
/// pure function of (hash, current topology) — no request history, no
/// load feedback — so two routers built the same way agree on every key
/// (the property that lets a future multi-process deployment route
/// client-side). Shard ids are never reused: remove_shard(i) retires id
/// `i` (its keys hand off to the survivors) but num_shards() keeps
/// counting the retired slot so later shards keep their ids.
class Router {
 public:
  virtual ~Router() = default;

  /// Shard owning `key_hash` (a serve::feature_hash value).
  virtual int shard_for_hash(std::uint64_t key_hash) const = 0;

  /// Grows the topology by one shard (new shard id = previous
  /// num_shards()) carrying `weight` (see ConsistentHashRouter). Not
  /// thread-safe against concurrent lookups.
  virtual void add_shard(double weight) = 0;
  void add_shard() { add_shard(1.0); }

  /// Retires shard `shard`: its keys hand off to the remaining shards
  /// and shard_for_hash never returns it again. Throws qkmps::Error when
  /// the strategy cannot express the removal (ModuloRouter can only
  /// shrink from the top) or when it would leave zero shards.
  virtual void remove_shard(int shard) = 0;

  virtual std::size_t num_shards() const = 0;
  virtual RouterKind kind() const = 0;

  /// Convenience: hashes the raw feature bits and dispatches.
  int shard_for(const std::vector<double>& features) const;
};

/// `hash % N`, the first routing of the sharded frontend, behind the
/// Router interface. add_shard() is supported but remaps almost every key;
/// weights other than 1.0 and mid-topology removal are unsupported (the
/// modulo map cannot skip an id or skew its spread) and throw.
class ModuloRouter final : public Router {
 public:
  explicit ModuloRouter(std::size_t num_shards);

  int shard_for_hash(std::uint64_t key_hash) const override;
  using Router::add_shard;
  void add_shard(double weight) override;
  void remove_shard(int shard) override;
  std::size_t num_shards() const override { return num_shards_; }
  RouterKind kind() const override { return RouterKind::kFeatureHashModulo; }

 private:
  std::size_t num_shards_;
};

/// Consistent-hash ring with weighted virtual nodes. Construction is
/// deterministic: a shard's ring points depend only on (shard id, replica
/// index), so ConsistentHashRouter(n+1) and ConsistentHashRouter(n) +
/// add_shard() produce identical assignments for every key — and removing
/// a shard only erases its own points, so its keys hand off to the
/// clockwise survivors without moving anyone else's.
///
/// Weights size heterogeneous shards: a shard of weight w owns
/// max(1, round(w * virtual_nodes)) ring points, so its expected share of
/// keys is proportional to w (a 2x-threads worker pulls ~2x the load —
/// tests/test_router.cpp pins the spread).
class ConsistentHashRouter final : public Router {
 public:
  explicit ConsistentHashRouter(std::size_t num_shards,
                                std::size_t virtual_nodes = 64);
  /// One shard per weight entry; weights[i] is shard i's ring weight.
  ConsistentHashRouter(const std::vector<double>& weights,
                       std::size_t virtual_nodes);

  int shard_for_hash(std::uint64_t key_hash) const override;
  using Router::add_shard;
  void add_shard(double weight) override;
  void remove_shard(int shard) override;
  std::size_t num_shards() const override { return num_shards_; }
  RouterKind kind() const override { return RouterKind::kConsistentHash; }
  std::size_t virtual_nodes() const { return virtual_nodes_; }
  /// Ring points shard `shard` currently owns (0 once removed).
  std::size_t points_of(int shard) const;

 private:
  struct RingPoint {
    std::uint64_t point;
    int shard;
  };

  void insert_shard_points(int shard, double weight);

  std::size_t num_shards_;
  std::size_t virtual_nodes_;
  std::vector<RingPoint> ring_;  ///< sorted by (point, shard)
};

/// Factories used by the engine configs: uniform weights, or one weight
/// per shard (kFeatureHashModulo rejects non-uniform weights).
std::unique_ptr<Router> make_router(const RouterConfig& config,
                                    std::size_t num_shards);
std::unique_ptr<Router> make_router(const RouterConfig& config,
                                    const std::vector<double>& weights);

}  // namespace qkmps::serve
