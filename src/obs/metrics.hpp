#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace qkmps {
class JsonWriter;
}

namespace qkmps::obs {

/// Metrics registry for the serving stack (DESIGN.md §8): named counters
/// and log-scale latency histograms behind a process-wide Registry. The
/// design rule is lock-cheap hot paths: a metric handle is looked up once
/// (one mutex-protected map walk, typically at construction time) and
/// every subsequent update is a relaxed atomic — safe to hammer from the
/// engine's batcher, the router thread, and N pool workers at once.
/// Exposition (render_json) is a point-in-time snapshot and never blocks
/// updates.

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed-bucket log-scale latency histogram. Buckets span
/// [kLowest, kLowest * kGrowth^kBuckets) — with kLowest = 1 µs and
/// kGrowth = 2^(1/3) that is ~1 µs to ~72 min, three buckets per octave —
/// plus explicit underflow/overflow bins, so observe() never drops a
/// sample. Buckets are relaxed atomics: observe() is wait-free and
/// quantile error is bounded by construction: a reported quantile is the
/// geometric midpoint of the bucket holding that rank, so it is within
/// one bucket (a factor of kGrowth ≈ 1.26) of the exact order statistic.
/// That bound is what lets benches gate "histogram p50 agrees with the
/// measured p50" deterministically.
///
/// Quantile convention: the rank is the type-7 position q*(count-1) —
/// the same linear-interpolation definition util/stats quantile() uses on
/// raw samples (pinned by tests/test_stats.cpp), so engine percentiles
/// and histogram percentiles share one definition and differ only by
/// bucket resolution.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 96;
  static constexpr double kLowest = 1e-6;  ///< seconds

  /// Bucket upper bound growth factor, 2^(1/3).
  static double growth();
  /// Inclusive lower bound of bucket i.
  static double bucket_lower(std::size_t i);

  void observe(double seconds);

  /// Point-in-time copy of the counts; all quantile math happens on the
  /// snapshot so one stats() call reads each atomic exactly once.
  struct Snapshot {
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Type-7-ranked quantile mapped to the geometric midpoint of the
    /// bucket containing that rank; 0 for an empty histogram. Underflow
    /// ranks report kLowest/2, overflow ranks the top bucket bound.
    double quantile(double q) const;
    double mean_seconds() const {
      return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
    }
  };
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Sliding-window event meter: counts land in fixed-width time slots on a
/// caller-supplied monotonic clock (seconds since whatever epoch the
/// caller times against), so the soak harness can report "served
/// throughput over the trailing N seconds" without retaining per-event
/// timestamps — resident cost is the slot ring, independent of event
/// count. Slots are (epoch, count) atomic pairs: record() is lock-free
/// and exact under a single writer (the soak harvest loop); concurrent
/// writers racing a slot turnover can at worst double-reset a slot, so
/// multi-writer use degrades to an approximation, never a crash. The
/// exact ledger lives in plain counters — this instrument is for rates.
class WindowedRate {
 public:
  explicit WindowedRate(double slot_seconds = 1.0, std::size_t slots = 64);

  /// Adds `n` events at time `t_seconds` (monotone nondecreasing under
  /// the single-writer contract).
  void record(double t_seconds, std::uint64_t n = 1);

  /// Events per second over the trailing `window_seconds` ending at
  /// `now_seconds`. The window is clamped to the ring's retained span,
  /// and the rate counts only slots that fall fully or partially inside
  /// [now - window, now] — a stale slot from a previous ring lap never
  /// contributes. The divisor is the time those slots cover up to `now`
  /// (from the first counted slot's start), so 5 events by t = 0.01 s
  /// read 500/s; at now = 0 the span is empty and the rate is 0.
  double rate(double now_seconds, double window_seconds) const;

  /// All events ever recorded (monotonic, survives slot reuse).
  std::uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  std::size_t slots() const { return ring_.size(); }

 private:
  struct Slot {
    std::atomic<std::int64_t> epoch{-1};  ///< slot index since t=0; -1 empty
    std::atomic<std::uint64_t> count{0};
  };

  double slot_seconds_;
  std::vector<Slot> ring_;
  std::atomic<std::uint64_t> total_{0};
};

/// Name -> instrument registry. Names are dotted paths
/// ("serve.latency.total_seconds"); a name is permanently one kind —
/// asking for it as another kind throws. Handles returned by
/// counter()/histogram() are stable for the registry's lifetime
/// (instruments are never removed), so callers cache them and pay the
/// lookup once.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every serving layer reports into; a
  /// snapshot of it is what --metrics-out embeds in bench artifacts.
  static Registry& global();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Emits {counters: {...}, histograms: {name: {count,
  /// sum_seconds, mean_seconds, p50..p999, underflow, overflow,
  /// buckets}}} as fields of an already-open JSON object.
  void render_json(JsonWriter& w) const;
  /// Convenience: the same snapshot as a standalone JSON document.
  std::string render_json() const;

 private:
  mutable util::Mutex mu_;  ///< guards the maps, never the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_
      QKMPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      QKMPS_GUARDED_BY(mu_);
};

}  // namespace qkmps::obs
