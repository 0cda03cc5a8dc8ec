#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "util/rng.hpp"

namespace qkmps {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double s = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(17);
  const int n = 100000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    s += x;
    s2 += x * x;
  }
  const double mean = s / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

/// The bits of a double: +0.0 and -0.0 differ, and a NaN equals itself.
std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(Rng, DiscardNormalsLeavesTheStreamWhereNormalDoes) {
  // From a fresh stream and from one holding a cached variate, each count
  // ends on either side of a Box-Muller pair.
  for (const bool cached : {false, true}) {
    for (std::uint64_t count = 0; count < 10; ++count) {
      Rng drawn(29), skipped(29);
      if (cached) {
        drawn.normal();
        skipped.normal();
      }
      for (std::uint64_t i = 0; i < count; ++i) drawn.normal();
      skipped.discard_normals(count);
      for (int k = 0; k < 3; ++k)
        EXPECT_EQ(bits(drawn.normal()), bits(skipped.normal()))
            << "cached=" << cached << " count=" << count << " normal " << k;
      EXPECT_EQ(bits(drawn.uniform()), bits(skipped.uniform()))
          << "cached=" << cached << " count=" << count;
    }
  }
}

TEST(Rng, UniformIntStaysBelowBound) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_int(17), 17u);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(23);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntZeroReturnsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.uniform_int(0), 0u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next() == child.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NormalCplxHasIndependentParts) {
  Rng rng(37);
  const int n = 50000;
  double cross = 0.0;
  for (int i = 0; i < n; ++i) {
    const cplx z = rng.normal_cplx();
    cross += z.real() * z.imag();
  }
  EXPECT_NEAR(cross / n, 0.0, 0.02);
}

}  // namespace
}  // namespace qkmps
