#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/preprocess.hpp"
#include "test_helpers.hpp"

namespace qkmps::data {
namespace {

kernel::RealMatrix random_data(idx n, idx m, std::uint64_t seed) {
  Rng rng(seed);
  kernel::RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.normal(5.0, 3.0);
  return x;
}

TEST(FeatureScaler, TrainDataLandsInOpenInterval) {
  const auto x = random_data(50, 6, 1);
  const FeatureScaler s = FeatureScaler::fit(x);
  const auto t = s.transform(x);
  for (idx i = 0; i < t.rows(); ++i)
    for (idx j = 0; j < t.cols(); ++j) {
      EXPECT_GT(t(i, j), 0.0);
      EXPECT_LT(t(i, j), 2.0);
    }
}

TEST(FeatureScaler, TrainExtremesHitIntervalEdges) {
  const auto x = random_data(50, 3, 2);
  const FeatureScaler s = FeatureScaler::fit(x);
  const auto t = s.transform(x);
  for (idx j = 0; j < 3; ++j) {
    double mn = 2.0, mx = 0.0;
    for (idx i = 0; i < 50; ++i) {
      mn = std::min(mn, t(i, j));
      mx = std::max(mx, t(i, j));
    }
    EXPECT_NEAR(mn, 0.001, 1e-12);
    EXPECT_NEAR(mx, 1.999, 1e-12);
  }
}

TEST(FeatureScaler, TestOutliersAreClamped) {
  const auto x = random_data(30, 2, 3);
  const FeatureScaler s = FeatureScaler::fit(x);
  kernel::RealMatrix wild(1, 2);
  wild(0, 0) = 1e6;
  wild(0, 1) = -1e6;
  const auto t = s.transform(wild);
  EXPECT_GT(t(0, 0), 0.0);
  EXPECT_LT(t(0, 0), 2.0);
  EXPECT_GT(t(0, 1), 0.0);
  EXPECT_LT(t(0, 1), 2.0);
}

TEST(FeatureScaler, CustomInterval) {
  const auto x = random_data(20, 2, 4);
  const FeatureScaler s = FeatureScaler::fit(x, -1.0, 1.0);
  const auto t = s.transform(x);
  for (idx i = 0; i < 20; ++i)
    for (idx j = 0; j < 2; ++j) {
      EXPECT_GT(t(i, j), -1.0);
      EXPECT_LT(t(i, j), 1.0);
    }
}

TEST(FeatureScaler, ConstantFeatureGoesToMidpointish) {
  kernel::RealMatrix x(10, 1);
  for (idx i = 0; i < 10; ++i) x(i, 0) = 42.0;
  const FeatureScaler s = FeatureScaler::fit(x);
  const auto t = s.transform(x);
  for (idx i = 0; i < 10; ++i) {
    EXPECT_GT(t(i, 0), 0.0);
    EXPECT_LT(t(i, 0), 2.0);
  }
}

TEST(FeatureScaler, TransformIsMonotone) {
  const auto x = random_data(40, 1, 5);
  const FeatureScaler s = FeatureScaler::fit(x);
  const auto t = s.transform(x);
  for (idx i = 0; i < 39; ++i)
    for (idx k = i + 1; k < 40; ++k)
      if (x(i, 0) < x(k, 0)) {
        EXPECT_LE(t(i, 0), t(k, 0));
      }
}

TEST(FeatureScaler, RejectsFeatureCountMismatch) {
  const auto x = random_data(10, 3, 6);
  const FeatureScaler s = FeatureScaler::fit(x);
  EXPECT_THROW(s.transform(random_data(5, 4, 7)), Error);
}

TEST(FeatureScaler, RejectsTinyTrainSet) {
  EXPECT_THROW(FeatureScaler::fit(random_data(1, 2, 8)), Error);
}

/// restore() is the bundle loader's entry: bounds whose span is not a
/// finite number would turn every transformed feature into inf or NaN.
TEST(FeatureScaler, RestoreRejectsNonFiniteBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto restore = [](double lo, double hi) {
    return FeatureScaler::restore({0.0}, {1.0}, {-1.0}, {1.0}, lo, hi);
  };
  EXPECT_NO_THROW(restore(0.0, 2.0));
  EXPECT_THROW(restore(-inf, 2.0), Error);
  EXPECT_THROW(restore(0.0, inf), Error);
  EXPECT_THROW(restore(-1e308, 1e308), Error);  // span overflows to inf
  EXPECT_THROW(restore(std::nan(""), 2.0), Error);
}

}  // namespace
}  // namespace qkmps::data
