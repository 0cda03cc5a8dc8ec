#include "soak/coverage.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.hpp"

namespace qkmps::soak {

const char* to_string(Relation relation) {
  switch (relation) {
    case Relation::kBitwiseParity:
      return "bitwise-parity";
    case Relation::kRoutingStability:
      return "routing-stability";
    case Relation::kResizeRetention:
      return "resize-retention";
    case Relation::kWireTorture:
      return "wire-torture";
  }
  return "unknown";
}

std::uint8_t axis_mask(Relation relation) {
  // Axis bits: 1 = warm_cache, 2 = post_resize, 4 = post_death
  // (EngineState::bits()).
  switch (relation) {
    case Relation::kBitwiseParity:
      // Parity must hold cold and warm, across resizes, and after a
      // worker death wiped a shard's memo.
      return 1 | 2 | 4;
    case Relation::kRoutingStability:
      // Routing depends only on topology history; cache warmth can't
      // move a point between shards.
      return 2 | 4;
    case Relation::kResizeRetention:
      // Retention is *about* resize, so that axis is implicit in the
      // relation itself; the remaining question is whether it still
      // holds after a death/respawn cycle.
      return 4;
    case Relation::kWireTorture:
      // The codecs are pure functions of their bytes: no engine state
      // reaches them.
      return 0;
  }
  return 0;
}

std::string to_string(const Cell& cell) {
  const EngineState s = EngineState::from_bits(cell.state_bits);
  const std::uint8_t mask = axis_mask(cell.relation);
  std::ostringstream os;
  os << to_string(cell.relation) << "[";
  bool first = true;
  const auto axis = [&](std::uint8_t bit, bool on, const char* name) {
    if ((mask & bit) == 0) return;
    if (!first) os << ",";
    first = false;
    os << (on ? "" : "!") << name;
  };
  axis(1, s.warm_cache, "warm");
  axis(2, s.post_resize, "resized");
  axis(4, s.post_death, "death");
  os << "]";
  return os.str();
}

RelationCoverageMap::RelationCoverageMap(bool with_worker_death) {
  // The target set is the dedup'd projection of every reachable full
  // state through each relation's axis mask. Without the socket
  // transport the post-death axis is unreachable and those cells are
  // excluded from the targets (they would otherwise make complete()
  // unattainable for in-process runs).
  std::set<Cell> targets;
  for (std::size_t r = 0; r < kNumRelations; ++r) {
    const Relation relation = static_cast<Relation>(r);
    const std::uint8_t mask = axis_mask(relation);
    for (std::uint8_t bits = 0; bits < kNumStates; ++bits) {
      if (!with_worker_death && (bits & 4) != 0) continue;
      targets.insert(Cell{relation, static_cast<std::uint8_t>(bits & mask)});
    }
  }
  targets_.assign(targets.begin(), targets.end());
}

void RelationCoverageMap::record(Relation relation, const EngineState& state) {
  const Cell cell{relation,
                  static_cast<std::uint8_t>(state.bits() & axis_mask(relation))};
  ++counts_[index_of(cell)];
  ++total_;
}

std::uint64_t RelationCoverageMap::hits(Relation relation,
                                        const EngineState& state) const {
  return hits(Cell{relation, static_cast<std::uint8_t>(state.bits() &
                                                       axis_mask(relation))});
}

std::uint64_t RelationCoverageMap::hits(const Cell& cell) const {
  QKMPS_CHECK(cell.state_bits < kNumStates);
  return counts_[index_of(cell)];
}

std::vector<Cell> RelationCoverageMap::uncovered_cells() const {
  std::vector<Cell> out;
  for (const Cell& c : targets_)
    if (counts_[index_of(c)] == 0) out.push_back(c);
  return out;
}

std::size_t RelationCoverageMap::covered_count() const {
  std::size_t covered = 0;
  for (const Cell& c : targets_)
    if (counts_[index_of(c)] != 0) ++covered;
  return covered;
}

std::string RelationCoverageMap::render_text() const {
  std::ostringstream os;
  os << "relation x state coverage: " << covered_count() << "/"
     << targets_.size() << " cells, " << total_ << " pairs\n";
  for (const Cell& c : targets_)
    os << "  " << to_string(c) << " = " << counts_[index_of(c)] << "\n";
  return os.str();
}

GuidedMutator::GuidedMutator(const RelationCoverageMap& map,
                             std::uint64_t seed, bool guided)
    : map_(map), rng_(seed), guided_(guided) {}

FuzzStep GuidedMutator::next() {
  Cell cell;
  if (guided_) {
    const std::vector<Cell> open = map_.uncovered_cells();
    if (!open.empty()) {
      cell = open[rng_.uniform_int(open.size())];
    } else {
      const auto& targets = map_.target_cells();
      cell = targets[rng_.uniform_int(targets.size())];
    }
  } else {
    const auto& targets = map_.target_cells();
    cell = targets[rng_.uniform_int(targets.size())];
  }
  FuzzStep step;
  step.relation = cell.relation;
  step.state = EngineState::from_bits(cell.state_bits);
  return step;
}

}  // namespace qkmps::soak
