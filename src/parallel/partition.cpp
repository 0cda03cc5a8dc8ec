#include "parallel/partition.hpp"

#include "util/error.hpp"

namespace qkmps::parallel {

std::vector<Range> split_evenly(idx n, idx parts) {
  QKMPS_CHECK(n >= 0 && parts >= 1);
  std::vector<Range> out;
  out.reserve(static_cast<std::size_t>(parts));
  const idx base = n / parts;
  const idx extra = n % parts;
  idx cursor = 0;
  for (idx p = 0; p < parts; ++p) {
    const idx len = base + (p < extra ? 1 : 0);
    out.push_back({cursor, cursor + len});
    cursor += len;
  }
  return out;
}

std::vector<idx> split_sizes(idx n, idx parts) {
  const std::vector<Range> ranges = split_evenly(n, parts);
  std::vector<idx> sizes;
  sizes.reserve(ranges.size());
  for (const Range& r : ranges) sizes.push_back(r.size());
  return sizes;
}

}  // namespace qkmps::parallel
