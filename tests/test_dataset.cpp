#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "data/dataset.hpp"
#include "test_helpers.hpp"

namespace qkmps::data {
namespace {

Dataset make_small() {
  Dataset d;
  d.x = kernel::RealMatrix(4, 3);
  for (idx i = 0; i < 4; ++i)
    for (idx j = 0; j < 3; ++j) d.x(i, j) = static_cast<double>(i * 10 + j);
  d.y = {1, -1, 1, -1};
  return d;
}

TEST(Dataset, CountsClasses) {
  const Dataset d = make_small();
  EXPECT_EQ(d.positives(), 2);
  EXPECT_EQ(d.negatives(), 2);
  EXPECT_EQ(d.size(), 4);
  EXPECT_EQ(d.num_features(), 3);
}

TEST(Dataset, SelectReordersRowsAndLabels) {
  const Dataset d = make_small();
  const Dataset s = d.select({2, 0});
  EXPECT_EQ(s.size(), 2);
  EXPECT_DOUBLE_EQ(s.x(0, 1), 21.0);
  EXPECT_DOUBLE_EQ(s.x(1, 1), 1.0);
  EXPECT_EQ(s.y[0], 1);
  EXPECT_EQ(s.y[1], 1);
}

TEST(Dataset, SelectAllowsRepeats) {
  const Dataset d = make_small();
  const Dataset s = d.select({1, 1, 1});
  EXPECT_EQ(s.size(), 3);
  for (idx i = 0; i < 3; ++i) EXPECT_EQ(s.y[static_cast<std::size_t>(i)], -1);
}

TEST(Dataset, SelectRejectsOutOfRange) {
  const Dataset d = make_small();
  EXPECT_THROW(d.select({4}), Error);
}

TEST(Dataset, WithFeaturesKeepsPrefix) {
  const Dataset d = make_small();
  const Dataset s = d.with_features(2);
  EXPECT_EQ(s.num_features(), 2);
  EXPECT_EQ(s.size(), 4);
  EXPECT_DOUBLE_EQ(s.x(3, 1), 31.0);
  EXPECT_EQ(s.y, d.y);
}

/// A dataset whose entries are scattered bit patterns (NaN payloads,
/// infinities, subnormals and signed zeros among them), so a copy that
/// changed any bit shows.
Dataset make_patterned(idx rows, idx cols) {
  Dataset d;
  d.x = kernel::RealMatrix(rows, cols);
  std::uint64_t h = 0x243F6A8885A308D3ull;
  for (idx i = 0; i < rows; ++i)
    for (idx j = 0; j < cols; ++j) {
      h = h * 0x9E3779B97F4A7C15ull + 0xB7E151628AED2A6Bull;
      std::memcpy(&d.x(i, j), &h, sizeof(double));
    }
  const double negative_zero = -0.0;
  std::memcpy(&d.x(0, 0), &negative_zero, sizeof(double));
  for (idx i = 0; i < rows; ++i) d.y.push_back(i % 3 == 0 ? 1 : -1);
  return d;
}

/// Same shape, same labels and the same bytes in every entry.
bool same_bits(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size() || a.num_features() != b.num_features()) return false;
  const std::size_t bytes = static_cast<std::size_t>(a.size()) *
                            static_cast<std::size_t>(a.num_features()) * sizeof(double);
  return a.y == b.y && (bytes == 0 || std::memcmp(a.x.data(), b.x.data(), bytes) == 0);
}

TEST(Dataset, SelectCopiesEveryBit) {
  const Dataset d = make_patterned(7, 5);
  for (const std::vector<idx>& rows :
       {std::vector<idx>{6, 0, 3}, std::vector<idx>{2, 2, 5, 2, 0, 0},
        std::vector<idx>{}}) {
    Dataset expected;
    expected.x = kernel::RealMatrix(static_cast<idx>(rows.size()), d.num_features());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (idx j = 0; j < d.num_features(); ++j)
        std::memcpy(&expected.x(static_cast<idx>(i), j), &d.x(rows[i], j), sizeof(double));
      expected.y.push_back(d.y[static_cast<std::size_t>(rows[i])]);
    }
    EXPECT_TRUE(same_bits(d.select(rows), expected)) << rows.size() << " rows";
  }
}

TEST(Dataset, WithFeaturesCopiesEveryBit) {
  const Dataset d = make_patterned(6, 5);
  for (const idx k : {idx{1}, idx{3}, idx{5}}) {
    Dataset expected;
    expected.x = kernel::RealMatrix(d.size(), k);
    for (idx i = 0; i < d.size(); ++i)
      for (idx j = 0; j < k; ++j)
        std::memcpy(&expected.x(i, j), &d.x(i, j), sizeof(double));
    expected.y = d.y;
    EXPECT_TRUE(same_bits(d.with_features(k), expected)) << "k=" << k;
  }
}

TEST(RealMatrix, ShapeConstructorZeroFillsReusedMemory) {
  // The heap hands a freed block back dirty, so only the constructor's
  // own fill can make the next matrix of that size read as zeros.
  for (int round = 0; round < 4; ++round) {
    {
      kernel::RealMatrix dirty = kernel::RealMatrix::for_overwrite(32, 32);
      EXPECT_EQ(dirty.rows(), 32);
      EXPECT_EQ(dirty.cols(), 32);
      for (idx i = 0; i < 32; ++i)
        for (idx j = 0; j < 32; ++j) dirty(i, j) = -1.5;
    }
    const kernel::RealMatrix clean(32, 32);
    const std::vector<unsigned char> zeros(32 * 32 * sizeof(double), 0);
    EXPECT_EQ(std::memcmp(clean.data(), zeros.data(), zeros.size()), 0)
        << "round " << round;
  }
}

TEST(Dataset, WithFeaturesRejectsInvalidCounts) {
  const Dataset d = make_small();
  EXPECT_THROW(d.with_features(0), Error);
  EXPECT_THROW(d.with_features(4), Error);
}

}  // namespace
}  // namespace qkmps::data
