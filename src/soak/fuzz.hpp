#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel_matrix.hpp"
#include "serve/model_bundle.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "soak/coverage.hpp"
#include "util/rng.hpp"

namespace qkmps::soak {

struct FuzzLabConfig {
  std::uint64_t seed = 0x50AC;
  /// Initial fleet size of each lab engine.
  std::size_t num_shards = 2;
  /// Ring points per shard for the lab engines' consistent-hash routers.
  std::size_t virtual_nodes = 64;
  /// Socket-mode knobs; leaving worker_path empty keeps the lab
  /// in-process, which makes every post-death cell unreachable (an
  /// in-process worker thread cannot be killed) — build the coverage map
  /// with with_worker_death = supports_worker_death().
  std::string worker_path;
  std::string bundle_dir;
  /// Engine-level resize-retention checks add a real shard each time;
  /// past this fleet size the lab switches to router-level retention
  /// checks so a long soak cannot grow the fleet without bound.
  std::size_t max_fleet = 6;
};

/// Verdict of one executed fuzz step.
struct CheckResult {
  bool passed = false;
  Relation relation = Relation::kBitwiseParity;
  EngineState state;   ///< the state the check actually ran under
  std::string detail;  ///< failure explanation; empty on pass
};

/// Executes FuzzSteps against live serving components: holds a small
/// stable of RankShardedEngines — one per reachable (post_resize,
/// post_death) lifecycle corner, built lazily because the post-death
/// corners need worker processes — plus the shard-wire codecs, and runs
/// the step's metamorphic relation in the requested engine state,
/// recording the landed cell into the RelationCoverageMap. Engine states
/// are monotone (an engine that has resized stays post-resize), which is
/// why the stable is keyed by lifecycle corner instead of mutating one
/// engine back and forth. Single-threaded: the fuzz loop owns the lab.
class FuzzLab {
 public:
  /// `pool` rows are the fuzz input space; `reference[i]` must be the
  /// sequential-pipeline decision value for pool row i (the bitwise
  /// oracle for kBitwiseParity).
  FuzzLab(serve::ModelBundle bundle, kernel::RealMatrix pool,
          std::vector<double> reference, FuzzLabConfig config = {});
  ~FuzzLab();

  /// Whether post-death states are reachable (socket knobs configured).
  bool supports_worker_death() const { return !config_.worker_path.empty(); }

  /// Drives the engine for `step.state` into that state (lazily building
  /// / killing as needed), runs `step.relation`, and records the landed
  /// cell in `map`. Returns the verdict; a failed check is a finding, not
  /// an exception.
  CheckResult run(const FuzzStep& step, RelationCoverageMap& map);

  const FuzzLabConfig& config() const { return config_; }

 private:
  struct EngineSlot {
    std::unique_ptr<serve::RankShardedEngine> engine;
    std::vector<char> seen;          ///< pool row served at least once
    std::vector<double> first_seen;  ///< decision value of first serve
  };

  /// The engine for lifecycle corner (post_resize, post_death), built on
  /// first use.
  EngineSlot& slot_for(bool post_resize, bool post_death);
  /// Submit pool row `row` and wait out transient shed/reject (a
  /// respawning worker shows up as a short shed window). Returns the
  /// served prediction; throws after the retry budget.
  serve::RoutedPrediction submit_served(EngineSlot& slot, idx row);

  CheckResult check_parity(const FuzzStep& step);
  CheckResult check_routing(const FuzzStep& step);
  CheckResult check_resize_retention(const FuzzStep& step);
  CheckResult check_wire(const FuzzStep& step);

  std::shared_ptr<const serve::ModelBundle> bundle_;
  kernel::RealMatrix pool_;
  std::vector<double> reference_;
  FuzzLabConfig config_;
  Rng rng_;
  std::map<int, EngineSlot> slots_;
};

}  // namespace qkmps::soak
