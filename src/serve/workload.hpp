#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel_matrix.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

/// Deterministic workload generation for the serving layer.
///
/// Thread safety: everything here is value semantics — free functions are
/// pure (all randomness flows from ScenarioConfig::seed through a local
/// Rng; no globals, no hidden state), and a materialized Scenario is
/// immutable-by-convention data that any number of threads may read
/// concurrently. Invariants: `order[r]` always indexes a valid row of
/// `unique_points`, and `arrival_us` is nondecreasing.
namespace qkmps::serve::workload {

/// Which unique point each request re-queries.
enum class KeyPattern {
  kUniform,         ///< every unique point equally likely
  kZipf,            ///< rank-Zipf hot keys: P(rank k) ~ k^-s
  kDuplicateHeavy,  ///< with probability repeat_fraction, repeat the
                    ///< previous request's point (duplicate runs)
};

/// When requests arrive, as deterministic microsecond offsets.
enum class ArrivalPattern {
  kSteady,  ///< constant inter-arrival gap
  kBurst,   ///< groups of burst_size arriving together, gaps between groups
  kRamp,    ///< inter-arrival gap shrinks linearly by ramp_factor
};

const char* to_string(KeyPattern pattern);
const char* to_string(ArrivalPattern pattern);

/// Fully describes a scenario; same config + same pool => byte-identical
/// Scenario (order, points, and arrival offsets), which is what lets the
/// tests, the bench, and CI all claim they exercised the *same* load
/// shape. All randomness flows from `seed` through the repo's xoshiro Rng.
struct ScenarioConfig {
  std::string name = "uniform";
  std::uint64_t seed = 1;
  idx num_requests = 256;
  idx num_unique = 32;  ///< distinct feature rows drawn from the pool
  KeyPattern keys = KeyPattern::kUniform;
  double zipf_exponent = 1.1;     ///< kZipf skew (larger = hotter head)
  double repeat_fraction = 0.5;   ///< kDuplicateHeavy repeat probability
  ArrivalPattern arrival = ArrivalPattern::kSteady;
  double mean_gap_us = 0.0;   ///< steady/ramp inter-arrival; 0 = back-to-back
  idx burst_size = 16;        ///< kBurst requests per burst
  double burst_gap_us = 500;  ///< kBurst gap between bursts
  double ramp_factor = 4.0;   ///< kRamp: initial gap / final gap
};

/// A materialized request stream. `order[r]` indexes `unique_points`;
/// `arrival_us[r]` is the nondecreasing arrival offset of request r.
struct Scenario {
  ScenarioConfig config;
  kernel::RealMatrix unique_points;  ///< num_unique x m raw feature rows
  std::vector<idx> order;
  std::vector<double> arrival_us;

  idx size() const { return static_cast<idx>(order.size()); }
  /// Feature vector of request r (a copy of its unique row).
  std::vector<double> request(idx r) const;
};

/// Pull-based request generator: the streaming form of a Scenario. Same
/// config + same pool => the byte-identical request sequence the eager
/// make_scenario materializes (order, arrival offsets, unique points, and
/// digest — pinned by tests/test_workload.cpp), but resident memory is
/// O(num_unique), independent of num_requests, so the soak harness can
/// drive millions of requests through an engine without an O(N) order or
/// arrival vector ever existing.
///
/// Thread safety: a Stream is single-consumer mutable state (next()
/// advances the generator); unique_points() is immutable after
/// construction and may be read concurrently with next().
class Stream {
 public:
  /// One generated request: `unique` indexes unique_points(), and
  /// `arrival_us` is the nondecreasing arrival offset of request
  /// `request` (the 0-based position in the stream).
  struct Item {
    idx request = 0;
    idx unique = 0;
    double arrival_us = 0.0;
  };

  /// Draws cfg.num_unique rows from `pool` exactly as make_scenario does
  /// (same Rng consumption, so the rest of the stream replays the eager
  /// generator bit for bit). Requires pool.rows() >= cfg.num_unique.
  Stream(const ScenarioConfig& cfg, const kernel::RealMatrix& pool);

  /// Emits the next request; false once num_requests have been emitted.
  bool next(Item& out);

  idx emitted() const { return emitted_; }
  idx size() const { return config_.num_requests; }
  bool exhausted() const { return emitted_ == config_.num_requests; }

  const ScenarioConfig& config() const { return config_; }
  const kernel::RealMatrix& unique_points() const { return unique_points_; }
  /// Feature vector of unique point `unique` (a copy of its row).
  std::vector<double> request(idx unique) const;

  /// The stream's fingerprint — bitwise-equal to scenario_digest() of the
  /// equivalent eager Scenario. Only defined once the stream is
  /// exhausted (throws before that): order bytes fold incrementally as
  /// requests are emitted, and the arrival bytes (a pure function of the
  /// config, no randomness) are folded on demand in O(1) memory.
  std::uint64_t digest() const;

 private:
  idx next_unique();

  ScenarioConfig config_;
  kernel::RealMatrix unique_points_;
  Rng rng_;
  std::vector<double> zipf_cdf_;  ///< kZipf only
  idx emitted_ = 0;
  idx prev_unique_ = 0;     ///< kDuplicateHeavy run state
  double ramp_t_ = 0.0;     ///< kRamp running arrival offset
  std::uint64_t order_hash_ = 0;  ///< unique-point hash folded with order
  mutable std::uint64_t digest_ = 0;
  mutable bool digest_cached_ = false;
};

/// Draws cfg.num_unique rows from `pool` (deterministically per seed) and
/// materializes the request order and arrival schedule. A thin wrapper
/// that drains a workload::Stream — kept for the CI-scale tests and
/// benches where random access into the order is convenient. Requires
/// pool.rows() >= cfg.num_unique.
Scenario make_scenario(const ScenarioConfig& cfg,
                       const kernel::RealMatrix& pool);

/// FNV-1a over the scenario's unique-point bits, order, and arrival bits —
/// a cheap fingerprint two processes can compare to prove they replayed
/// the identical stream byte for byte.
std::uint64_t scenario_digest(const Scenario& scenario);

/// The shared suite: one scenario per (key pattern x arrival shape) the
/// serving frontend claims to handle — uniform/steady, Zipf hot-key,
/// duplicate-heavy, uniform/burst, Zipf/ramp. Tests iterate it for the
/// metamorphic parity sweep; bench/serving_ranked.cpp replays it for
/// load numbers, so every published load shape is reproducible.
std::vector<ScenarioConfig> standard_scenarios(idx num_requests,
                                               idx num_unique,
                                               std::uint64_t seed);

}  // namespace qkmps::serve::workload
