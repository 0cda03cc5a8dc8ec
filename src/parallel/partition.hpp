#pragma once

#include <vector>

#include "util/types.hpp"

namespace qkmps::parallel {

/// Half-open index range [begin, end).
struct Range {
  idx begin = 0;
  idx end = 0;
  idx size() const { return end - begin; }
};

/// Splits [0, n) into `parts` contiguous near-equal ranges (the first
/// n % parts ranges get the extra element). Ranges may be empty when
/// parts > n.
std::vector<Range> split_evenly(idx n, idx parts);

/// Just the sizes of split_evenly(n, parts): the near-equal integer
/// partition of n. Used where a resource count (hardware threads across
/// engine shards, rows across ranks) must be divided without dropping
/// the remainder the way a plain n / parts would.
std::vector<idx> split_sizes(idx n, idx parts);

}  // namespace qkmps::parallel
