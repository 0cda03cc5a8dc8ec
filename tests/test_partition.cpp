#include <gtest/gtest.h>

#include "parallel/partition.hpp"
#include "util/error.hpp"

namespace qkmps::parallel {
namespace {

TEST(SplitEvenly, CoversWholeRangeContiguously) {
  const auto parts = split_evenly(17, 5);
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts.front().begin, 0);
  EXPECT_EQ(parts.back().end, 17);
  for (std::size_t i = 1; i < parts.size(); ++i)
    EXPECT_EQ(parts[i].begin, parts[i - 1].end);
}

TEST(SplitEvenly, SizesDifferByAtMostOne) {
  const auto parts = split_evenly(23, 7);
  idx mn = 1000, mx = 0;
  for (const auto& r : parts) {
    mn = std::min(mn, r.size());
    mx = std::max(mx, r.size());
  }
  EXPECT_LE(mx - mn, 1);
}

TEST(SplitEvenly, ExactDivision) {
  const auto parts = split_evenly(12, 4);
  for (const auto& r : parts) EXPECT_EQ(r.size(), 3);
}

TEST(SplitEvenly, MorePartsThanElements) {
  const auto parts = split_evenly(2, 5);
  idx total = 0;
  for (const auto& r : parts) total += r.size();
  EXPECT_EQ(total, 2);
}

TEST(SplitEvenly, ZeroElements) {
  const auto parts = split_evenly(0, 3);
  for (const auto& r : parts) EXPECT_EQ(r.size(), 0);
}

TEST(SplitEvenly, RejectsZeroParts) { EXPECT_THROW(split_evenly(5, 0), Error); }

TEST(SplitSizes, MatchesSplitEvenlyAndDropsNothing) {
  const auto sizes = split_sizes(7, 4);  // e.g. hardware threads -> shards
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 2);
  EXPECT_EQ(sizes[1], 2);
  EXPECT_EQ(sizes[2], 2);
  EXPECT_EQ(sizes[3], 1);  // a plain 7/4 would hand every shard 1
  idx total = 0;
  for (idx s : sizes) total += s;
  EXPECT_EQ(total, 7);
}

}  // namespace
}  // namespace qkmps::parallel
