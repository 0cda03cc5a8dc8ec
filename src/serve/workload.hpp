#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel_matrix.hpp"
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

/// Draws cfg.num_unique rows from `pool` (deterministically per seed) and
/// materializes the request order and arrival schedule. Requires
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
