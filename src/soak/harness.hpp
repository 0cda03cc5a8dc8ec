#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/kernel_matrix.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "soak/coverage.hpp"
#include "soak/slo.hpp"

namespace qkmps::soak {

/// Streaming soak driver configuration. The harness is closed-loop: it
/// submits as fast as a bounded in-flight window of futures allows, which
/// gives O(max_in_flight) resident cost however many requests the run
/// streams.
struct SoakConfig {
  std::uint64_t seed = 42;
  std::uint64_t total_requests = 10'000;
  /// Resident-memory bound: at most this many unresolved futures at once;
  /// the oldest is harvested (blocking) when the window is full.
  std::size_t max_in_flight = 256;
  /// Requests draw uniformly from the first `num_unique` pool rows
  /// (0 = the whole pool). Small values make the soak duplicate-heavy so
  /// the engines' memos absorb most of a million-request run.
  idx num_unique = 0;
  /// Priority mix: each request is interactive with this probability...
  double interactive_fraction = 0.2;
  /// ...standard with this one, batch with the remainder.
  double standard_fraction = 0.5;
  /// Soak-level admission gate: a class is refused while at least its
  /// gate fraction of the in-flight window is unresolved (resolved
  /// futures are harvested before every gate decision). Interactive is
  /// never gated; batch gives way first, then standard — strict priority
  /// ordering requires batch_gate <= standard_gate.
  double standard_gate_fraction = 0.95;
  double batch_gate_fraction = 0.80;
  SloTargets slo;
  /// Engine-state flags for coverage recording: what lifecycle history
  /// the driven engine carries (the harness cannot see resizes/deaths
  /// that happened before it got the engine).
  bool post_resize = false;
  bool post_death = false;
  /// Trailing window the report's throughput figure covers.
  double report_window_s = 10.0;
  /// Invoke the progress callback every this many harvested requests
  /// (0 = never).
  std::uint64_t progress_every = 0;
};

/// What a soak run produced. `lost` counts futures that resolved by
/// exception — the zero-gate of every soak bench. Violations are
/// metamorphic-relation breaks observed in-stream: parity (served value
/// vs reference / vs first serve, bitwise) and routing (served shard vs
/// first-observed shard for the same key).
struct SoakReport {
  std::uint64_t attempted = 0;      ///< requests the generator produced
  std::uint64_t gated = 0;          ///< refused by the soak priority gate
  std::uint64_t lost = 0;
  std::uint64_t parity_violations = 0;
  std::uint64_t routing_violations = 0;
  std::uint64_t peak_in_flight = 0;
  double elapsed_seconds = 0.0;
  SloSnapshot slo;
  bool reconciled = false;  ///< SLO ledger vs engine counter deltas
  std::string reconcile_detail;
};

/// Drives a serving engine through a streamed request sequence. The
/// request source is the pool handed in at construction (rows drawn with
/// replacement), so resident workload state is the pool plus O(num_unique)
/// first-seen bookkeeping plus the in-flight window — independent of
/// total_requests.
class SoakHarness {
 public:
  /// `reference[i]`, when non-empty, is the sequential-pipeline decision
  /// value for pool row i: cold serves are then parity-checked bitwise
  /// in-stream. Empty skips cold parity (warm parity — first serve vs
  /// re-serve — still runs).
  SoakHarness(kernel::RealMatrix pool, std::vector<double> reference,
              SoakConfig config);

  /// Runs the soak against `engine`. `coverage`, when non-null, receives
  /// one relation-cell record per in-stream check; `progress`, when
  /// non-null, fires every progress_every harvested requests with a live
  /// snapshot.
  SoakReport run(serve::RankShardedEngine& engine,
                 RelationCoverageMap* coverage = nullptr,
                 const std::function<void(const SoakReport&)>& progress = {});

  const SoakConfig& config() const { return config_; }

 private:
  kernel::RealMatrix pool_;
  std::vector<double> reference_;
  SoakConfig config_;
};

}  // namespace qkmps::soak
