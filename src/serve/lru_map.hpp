#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/feature_key.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace qkmps::serve {

/// Hit/miss/insertion/eviction counters shared by the serving-layer LRU
/// maps (StateCache, PredictionMemo). The owning map maintains them with
/// atomics, so a stats() snapshot never contends with the lookup hot
/// path; individual counters are each exact, the combination is a
/// point-in-time view.
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe bounded LRU map keyed by the bit pattern of a (scaled)
/// feature vector — the one keying scheme of the serving layer (see
/// feature_key.hpp: FNV-1a over the raw bytes, memcmp equality, so two
/// keys collide only when they would produce the identical feature-map
/// circuit). StateCache instantiates it with shared_ptr<const Mps>
/// states; PredictionMemo with final decision values.
///
/// Thread safety: every member is safe to call concurrently from any
/// number of threads. The lookups, insert, size and clear serialize on
/// one internal mutex; stats() reads only atomics and never contends
/// with the lookup hot path. Values are returned by copy (for the serving
/// layer, shared_ptr or a small PODs), so a caller never holds a
/// reference into the map and eviction can never invalidate a handed-out
/// value.
///
/// Invariants: lru_ and index_ always hold exactly the same entries
/// (checked on eviction); size() <= capacity() after every insert; an
/// insert of an already-present key refreshes recency but never
/// duplicates — the first resident value wins, so two threads racing the
/// same miss agree on the value both end up using.
///
/// capacity == 0 disables the map: find() always misses (counted, but
/// without taking the lock), find_uncounted() always misses, and insert()
/// stores nothing.
template <typename Value>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// Returns the resident value for `key` (marking it most-recently-used)
  /// or nullopt on a miss. `hash` must be feature_hash(key) — hot callers
  /// hash once and reuse it across maps.
  std::optional<Value> find(const std::vector<double>& key,
                            std::uint64_t hash) {
    std::optional<Value> value = find_uncounted(key, hash);
    (value ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  /// find() that leaves the hit/miss counters alone (a hit still marks
  /// the entry most-recently-used): a second lookup for a request whose
  /// first lookup was already counted.
  std::optional<Value> find_uncounted(const std::vector<double>& key,
                                      std::uint64_t hash) {
    if (capacity_ == 0) return std::nullopt;
    util::MutexLock lock(mu_);
    const auto entry = locate(hash, key);
    if (entry == lru_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, entry);  // iterators stay valid
    return entry->value;
  }

  /// Inserts `value` under `key`, evicting least-recently-used entries
  /// beyond capacity, and returns the resident value: if the key is
  /// already present (e.g. two concurrent misses on the same point) the
  /// existing entry wins, is refreshed to most-recently-used, and is
  /// returned instead of `value`.
  Value insert(const std::vector<double>& key, std::uint64_t hash,
               Value value) {
    if (capacity_ == 0) return value;
    util::MutexLock lock(mu_);
    const auto existing = locate(hash, key);
    if (existing != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, existing);
      return existing->value;
    }
    lru_.push_front(Entry{key, hash, value});
    index_.emplace(hash, lru_.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    while (lru_.size() > capacity_) {
      const auto victim = std::prev(lru_.end());
      auto [lo, hi] = index_.equal_range(victim->hash);
      bool unindexed = false;
      for (auto it = lo; it != hi; ++it) {
        if (it->second == victim) {
          index_.erase(it);
          unindexed = true;
          break;
        }
      }
      QKMPS_CHECK_MSG(unindexed, "LRU entry missing from hash index");
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return value;
  }

  std::size_t size() const {
    util::MutexLock lock(mu_);
    return lru_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Lock-free snapshot of the counters (safe during concurrent
  /// find/insert traffic).
  LruStats stats() const {
    LruStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    return s;
  }

  void clear() {
    util::MutexLock lock(mu_);
    lru_.clear();
    index_.clear();
  }

 private:
  struct Entry {
    std::vector<double> key;
    std::uint64_t hash = 0;  ///< feature_hash(key), kept so eviction
                             ///< never re-hashes inside the lock
    Value value;
  };
  using LruList = typename std::list<Entry>;

  /// Looks up `key` in index_; lru_.end() if absent. Caller holds mu_.
  typename LruList::iterator locate(std::uint64_t hash,
                                    const std::vector<double>& key)
      QKMPS_REQUIRES(mu_) {
    auto [lo, hi] = index_.equal_range(hash);
    for (auto it = lo; it != hi; ++it)
      if (feature_bits_equal(it->second->key, key)) return it->second;
    return lru_.end();
  }

  const std::size_t capacity_;
  mutable util::Mutex mu_;  ///< guards lru_ / index_ only; stats are atomic
  LruList lru_ QKMPS_GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_multimap<std::uint64_t, typename LruList::iterator> index_
      QKMPS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};
};

}  // namespace qkmps::serve
