#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace qkmps::soak {

/// Relation x engine-state coverage for the soak fuzzer, after the
/// metamorphic-coverage idea (PAPERS.md: arXiv:2508.16307): a fuzz run is
/// only as good as the *pairs* it exercises, so we instrument which
/// metamorphic relation each generated input pair checks and which engine
/// state it checks it in, then steer generation toward the cells nobody
/// has landed in yet.
///
/// Relations are the serving stack's metamorphic properties:
enum class Relation : std::uint8_t {
  /// Same request through engine vs sequential reference (or resubmitted
  /// to a warm engine) must be bitwise-identical.
  kBitwiseParity = 0,
  /// The router must map a point to the same shard every time the fleet
  /// topology is unchanged.
  kRoutingStability = 1,
  /// After add_shard/remove_shard, points whose consistent-hash owner did
  /// not change must keep their shard (cache retention across resize).
  kResizeRetention = 2,
  /// The envelope codec must round-trip, and refuse a cut payload and a
  /// hostile kind byte.
  kWireTorture = 3,
};
inline constexpr std::size_t kNumRelations = 4;

const char* to_string(Relation relation);

/// The engine-state axes a relation can be exercised under. Each axis is
/// binary; a full state is one point in the 2^3 grid.
struct EngineState {
  bool warm_cache = false;   ///< request key seen before (memo/cache warm)
  bool post_resize = false;  ///< fleet resized (add/remove shard) earlier
  bool post_death = false;   ///< a worker was killed and respawned earlier

  std::uint8_t bits() const {
    return static_cast<std::uint8_t>((warm_cache ? 1 : 0) |
                                     (post_resize ? 2 : 0) |
                                     (post_death ? 4 : 0));
  }
  static EngineState from_bits(std::uint8_t b) {
    return EngineState{(b & 1) != 0, (b & 2) != 0, (b & 4) != 0};
  }
};
inline constexpr std::size_t kNumStates = 8;

/// Which axes are meaningful for a relation. Recording projects the
/// observed state onto the relation's mask, so e.g. kWireTorture — which
/// depends on no engine state — occupies 1 canonical cell, not 8 aliases
/// of the same check.
std::uint8_t axis_mask(Relation relation);

/// One cell of the coverage matrix: a relation plus the masked state
/// bits it was exercised under.
struct Cell {
  Relation relation = Relation::kBitwiseParity;
  std::uint8_t state_bits = 0;  ///< already projected through axis_mask

  bool operator==(const Cell& other) const {
    return relation == other.relation && state_bits == other.state_bits;
  }
  bool operator<(const Cell& other) const {
    if (relation != other.relation) return relation < other.relation;
    return state_bits < other.state_bits;
  }
};

std::string to_string(const Cell& cell);

/// The coverage ledger: counts how many checked pairs landed in each
/// relation x masked-state cell, against a target set of reachable cells.
/// Single-threaded (the fuzz loop owns it).
class RelationCoverageMap {
 public:
  /// `with_worker_death`: whether the run can reach post-death states
  /// (needs the socket transport; in-process runs can't kill workers).
  explicit RelationCoverageMap(bool with_worker_death = false);

  /// Record one checked pair. The state is projected through the
  /// relation's axis mask before counting.
  void record(Relation relation, const EngineState& state);

  std::uint64_t hits(Relation relation, const EngineState& state) const;
  std::uint64_t hits(const Cell& cell) const;

  /// All cells this run is expected to reach, sorted.
  const std::vector<Cell>& target_cells() const { return targets_; }
  /// Targets with zero hits so far, sorted.
  std::vector<Cell> uncovered_cells() const;

  std::size_t covered_count() const;
  std::size_t target_count() const { return targets_.size(); }
  bool complete() const { return covered_count() == targets_.size(); }
  /// Total recorded pairs across all cells.
  std::uint64_t total_pairs() const { return total_; }

  /// Human-readable relation x state matrix for reports.
  std::string render_text() const;

 private:
  static std::size_t index_of(const Cell& cell) {
    return static_cast<std::size_t>(cell.relation) * kNumStates +
           cell.state_bits;
  }

  std::vector<Cell> targets_;
  std::uint64_t counts_[kNumRelations * kNumStates] = {};
  std::uint64_t total_ = 0;
};

/// One planned fuzz step: check `relation` with the engine driven into
/// `state` first.
struct FuzzStep {
  Relation relation = Relation::kBitwiseParity;
  EngineState state;
};

/// Coverage-guided step planner. Guided mode picks uniformly among the
/// *uncovered* target cells, so every step lands somewhere new and the
/// map completes in exactly target_count() steps; once the map is full it
/// falls back to uniform-over-targets (soaking, not discovering).
/// Unguided mode ignores the map and samples targets with replacement —
/// the coupon-collector baseline the guided tests beat.
class GuidedMutator {
 public:
  GuidedMutator(const RelationCoverageMap& map, std::uint64_t seed,
                bool guided = true);

  FuzzStep next();

  bool guided() const { return guided_; }

 private:
  const RelationCoverageMap& map_;
  Rng rng_;
  bool guided_;
};

}  // namespace qkmps::soak
