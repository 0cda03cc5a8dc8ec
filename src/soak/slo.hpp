#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "serve/rank_sharded_engine.hpp"

namespace qkmps::soak {

/// Priority class a soak request is admitted under. Classes flow through
/// admission control at the harness level: kInteractive is never gated,
/// kBatch is gated first when the in-flight window fills (see
/// SoakConfig), and every outcome is accounted per class so overload
/// behaviour is attributable — "the flash crowd shed 4% of batch traffic
/// and 0% of interactive" instead of one blended number.
enum class Priority : std::uint8_t {
  kInteractive = 0,
  kStandard = 1,
  kBatch = 2,
};
inline constexpr std::size_t kNumPriorities = 3;

const char* to_string(Priority priority);

/// Per-class latency deadlines: a *served* request slower than its class
/// deadline counts as a deadline miss (it resolved, but uselessly late —
/// the fraud-decision-after-the-transaction-cleared failure mode).
struct SloTargets {
  std::array<double, kNumPriorities> deadline_s{0.050, 0.250, 5.0};
};

/// Point-in-time per-class ledger. Counter invariant once traffic
/// settles: submitted == gated + served + rejected + shed (+ lost, which
/// the harness reports separately and gates at zero).
struct ClassLedger {
  std::uint64_t submitted = 0;  ///< offered to this class
  std::uint64_t gated = 0;      ///< refused by the soak-level priority gate
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;   ///< engine admission refusals
  std::uint64_t shed = 0;       ///< engine evictions / worker-death sheds
  std::uint64_t deadline_missed = 0;
  double p50_s = 0.0;   ///< served-latency quantiles from the log-bucket
  double p99_s = 0.0;   ///< histogram (within one growth factor of exact,
  double p999_s = 0.0;  ///< the obs::Histogram error bound)
  double mean_s = 0.0;
};

struct SloSnapshot {
  std::array<ClassLedger, kNumPriorities> classes{};
  // Totals across classes.
  std::uint64_t submitted = 0;
  std::uint64_t gated = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  /// Served throughput over the trailing window handed to snapshot().
  double windowed_rps = 0.0;
};

/// The soak harness's SLO ledger: per-priority-class counters, a
/// log-bucket latency histogram per class (p99.9 at histogram
/// resolution), and a sliding served-throughput meter. record() is
/// lock-free (atomics + wait-free histogram observe); snapshot() is a
/// point-in-time read that never blocks recording. The ledger reconciles
/// *exactly* against engine counters — reconcile() is a soak gate, not a
/// tolerance check.
class SloAccountant {
 public:
  explicit SloAccountant(SloTargets targets = {});

  /// The request was refused by the harness's priority gate before ever
  /// reaching the engine.
  void record_gated(Priority priority);

  /// The request's future resolved: `status` from the engine,
  /// `latency_s` the admission->fulfilment latency (served requests
  /// only; ignored otherwise), `now_s` the harness clock for the
  /// windowed throughput meter.
  void record(Priority priority, serve::ServeStatus status, double latency_s,
              double now_s);

  SloSnapshot snapshot(double now_s, double window_s = 10.0) const;

  const SloTargets& targets() const { return targets_; }
  const obs::Histogram& latency_histogram(Priority priority) const {
    return classes_[static_cast<std::size_t>(priority)].latency;
  }

  /// Engine-side counter totals the ledger must match exactly.
  struct EngineTotals {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
  };
  static EngineTotals totals(const serve::RankShardedStats& stats) {
    return EngineTotals{stats.submitted, stats.completed, stats.rejected,
                        stats.shed};
  }

  /// Exact reconciliation: ledger submitted minus gated must equal what
  /// the engine saw, and served/rejected/shed must match the engine's
  /// completed/rejected/shed one for one. On mismatch returns false and
  /// (when non-null) explains which counter diverged in `why`.
  bool reconciles(const EngineTotals& engine, std::string* why = nullptr) const;

 private:
  struct PerClass {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> gated{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadline_missed{0};
    obs::Histogram latency;
  };

  SloTargets targets_;
  std::array<PerClass, kNumPriorities> classes_;
  obs::WindowedRate served_meter_{0.25, 256};
};

}  // namespace qkmps::soak
