#include <gtest/gtest.h>

#include <cmath>

#include "kernel/gaussian.hpp"
#include "svm/svm.hpp"
#include "test_helpers.hpp"

namespace qkmps::svm {
namespace {

/// Linear kernel on 2-D points.
kernel::RealMatrix linear_kernel(const std::vector<std::array<double, 2>>& pts) {
  const idx n = static_cast<idx>(pts.size());
  kernel::RealMatrix k(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j)
      k(i, j) = pts[static_cast<std::size_t>(i)][0] * pts[static_cast<std::size_t>(j)][0] +
                pts[static_cast<std::size_t>(i)][1] * pts[static_cast<std::size_t>(j)][1];
  return k;
}

TEST(Svm, SeparatesTrivialProblem) {
  // Two well-separated clusters on the x-axis.
  const std::vector<std::array<double, 2>> pts{
      {2.0, 0.1}, {2.5, -0.2}, {3.0, 0.3}, {-2.0, 0.2}, {-2.5, 0.1}, {-3.0, -0.1}};
  const std::vector<int> y{1, 1, 1, -1, -1, -1};
  const SvcModel m = train_svc(linear_kernel(pts), y, {.c = 1.0, .tol = 1e-4});
  EXPECT_TRUE(m.converged);
  EXPECT_EQ(m.predict(linear_kernel(pts)), y);
}

TEST(Svm, AlphaStaysInBox) {
  Rng rng(1);
  const idx n = 30;
  kernel::RealMatrix x(n, 3);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1 : -1;
    for (idx j = 0; j < 3; ++j)
      x(i, j) = rng.normal() + (y[static_cast<std::size_t>(i)] == 1 ? 0.5 : -0.5);
  }
  const kernel::RealMatrix k = kernel::gaussian_gram(x, 0.5);
  const double c = 0.7;
  const SvcModel m = train_svc(k, y, {.c = c, .tol = 1e-3});
  for (double a : m.alpha) {
    EXPECT_GE(a, -1e-12);
    EXPECT_LE(a, c + 1e-12);
  }
}

TEST(Svm, EqualityConstraintHolds) {
  Rng rng(2);
  const idx n = 24;
  kernel::RealMatrix x(n, 2);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = (i < n / 2) ? 1 : -1;
    for (idx j = 0; j < 2; ++j)
      x(i, j) = rng.normal() + (y[static_cast<std::size_t>(i)] == 1 ? 1.0 : -1.0);
  }
  const SvcModel m = train_svc(kernel::gaussian_gram(x, 1.0), y, {.c = 2.0});
  double dot = 0.0;
  for (std::size_t i = 0; i < m.alpha.size(); ++i)
    dot += m.alpha[i] * static_cast<double>(y[i]);
  EXPECT_NEAR(dot, 0.0, 1e-10);
}

TEST(Svm, FreeSupportVectorsSitOnMargin) {
  Rng rng(3);
  const idx n = 40;
  kernel::RealMatrix x(n, 2);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1 : -1;
    for (idx j = 0; j < 2; ++j)
      x(i, j) = rng.normal() + (y[static_cast<std::size_t>(i)] == 1 ? 0.8 : -0.8);
  }
  const kernel::RealMatrix k = kernel::gaussian_gram(x, 0.7);
  const double c = 1.5;
  const SvcModel m = train_svc(k, y, {.c = c, .tol = 1e-5});
  const auto f = m.decision_values(k);
  for (idx i = 0; i < n; ++i) {
    const double a = m.alpha[static_cast<std::size_t>(i)];
    if (a > 1e-8 && a < c - 1e-8) {
      EXPECT_NEAR(static_cast<double>(y[static_cast<std::size_t>(i)]) *
                      f[static_cast<std::size_t>(i)],
                  1.0, 5e-3);
    }
  }
}

TEST(Svm, LargerCReducesMarginViolations) {
  Rng rng(4);
  const idx n = 60;
  kernel::RealMatrix x(n, 2);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1 : -1;
    for (idx j = 0; j < 2; ++j)
      x(i, j) = rng.normal() + (y[static_cast<std::size_t>(i)] == 1 ? 0.6 : -0.6);
  }
  const kernel::RealMatrix k = kernel::gaussian_gram(x, 1.0);
  const SvcModel weak = train_svc(k, y, {.c = 0.01});
  const SvcModel strong = train_svc(k, y, {.c = 4.0});

  auto train_errors = [&](const SvcModel& m) {
    const auto pred = m.predict(k);
    idx errs = 0;
    for (idx i = 0; i < n; ++i)
      if (pred[static_cast<std::size_t>(i)] != y[static_cast<std::size_t>(i)]) ++errs;
    return errs;
  };
  EXPECT_LE(train_errors(strong), train_errors(weak));
}

TEST(Svm, InseparableDataStillConverges) {
  // Identical points with conflicting labels: fully inseparable.
  kernel::RealMatrix k(4, 4);
  for (idx i = 0; i < 4; ++i)
    for (idx j = 0; j < 4; ++j) k(i, j) = 1.0;
  const SvcModel m = train_svc(k, {1, -1, 1, -1}, {.c = 1.0});
  EXPECT_TRUE(m.converged);
}

TEST(Svm, DecisionValuesLinearInKernelRows) {
  const std::vector<std::array<double, 2>> pts{{1.0, 0.0}, {-1.0, 0.0}};
  const std::vector<int> y{1, -1};
  const SvcModel m = train_svc(linear_kernel(pts), y, {.c = 10.0, .tol = 1e-6});
  // Test point at the origin: decision value must be ~0 by symmetry.
  kernel::RealMatrix ktest(1, 2);
  ktest(0, 0) = 0.0;
  ktest(0, 1) = 0.0;
  EXPECT_NEAR(m.decision_values(ktest)[0], 0.0, 1e-3);
}

TEST(Svm, SupportVectorCount) {
  const std::vector<std::array<double, 2>> pts{
      {2.0, 0.0}, {3.0, 0.0}, {-2.0, 0.0}, {-3.0, 0.0}};
  const std::vector<int> y{1, 1, -1, -1};
  const SvcModel m = train_svc(linear_kernel(pts), y, {.c = 100.0, .tol = 1e-6});
  // Only the two inner points support the margin.
  EXPECT_LE(m.support_vector_count(), 2);
  EXPECT_GE(m.support_vector_count(), 1);
}

TEST(Svm, RejectsBadLabels) {
  kernel::RealMatrix k(2, 2);
  k(0, 0) = k(1, 1) = 1.0;
  EXPECT_THROW(train_svc(k, {1, 0}, {.c = 1.0}), Error);
}

TEST(Svm, RejectsNonSquareKernel) {
  kernel::RealMatrix k(2, 3);
  EXPECT_THROW(train_svc(k, {1, -1}, {.c = 1.0}), Error);
}

TEST(Svm, RejectsNonPositiveC) {
  kernel::RealMatrix k(2, 2);
  EXPECT_THROW(train_svc(k, {1, -1}, {.c = 0.0}), Error);
}

/// A Gaussian-kernel training problem with a healthy mix of zero and
/// nonzero alphas, shared by the compaction tests below.
struct TrainedProblem {
  kernel::RealMatrix k;
  std::vector<int> y;
  SvcModel model;
};

TrainedProblem gaussian_problem(std::uint64_t seed, double c) {
  Rng rng(seed);
  const idx n = 40;
  kernel::RealMatrix x(n, 3);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1 : -1;
    for (idx j = 0; j < 3; ++j)
      x(i, j) = rng.normal() + (y[static_cast<std::size_t>(i)] == 1 ? 0.9 : -0.9);
  }
  TrainedProblem p;
  p.k = kernel::gaussian_gram(x, 0.8);
  p.y = y;
  p.model = train_svc(p.k, y, {.c = c, .tol = 1e-5});
  return p;
}

TEST(SvmCompaction, DropsExactlyZeroAlphaEntries) {
  const TrainedProblem p = gaussian_problem(10, 1.0);
  ASSERT_GT(p.model.support_vector_count(), 0);
  ASSERT_LT(p.model.support_vector_count(), static_cast<idx>(p.y.size()));

  const CompactSvc compact = compact_support_vectors(p.model);
  EXPECT_EQ(static_cast<idx>(compact.model.alpha.size()),
            p.model.support_vector_count());
  for (double a : compact.model.alpha) EXPECT_GT(a, 0.0);
  EXPECT_EQ(compact.model.bias, p.model.bias);
  EXPECT_EQ(compact.model.iterations, p.model.iterations);
  EXPECT_EQ(compact.model.converged, p.model.converged);
  // Index map points at the original nonzero entries, in training order.
  for (std::size_t s = 0; s < compact.sv_indices.size(); ++s) {
    const auto orig = static_cast<std::size_t>(compact.sv_indices[s]);
    EXPECT_EQ(compact.model.alpha[s], p.model.alpha[orig]);
    EXPECT_EQ(compact.model.y[s], p.model.y[orig]);
    if (s > 0) {
      EXPECT_GT(compact.sv_indices[s], compact.sv_indices[s - 1]);
    }
  }
}

TEST(SvmCompaction, DecisionValuesBitwiseMatchFullModel) {
  const TrainedProblem p = gaussian_problem(11, 0.7);
  const CompactSvc compact = compact_support_vectors(p.model);
  const idx n = static_cast<idx>(p.y.size());
  const idx n_sv = static_cast<idx>(compact.sv_indices.size());

  // SV-only columns of the same kernel.
  kernel::RealMatrix k_sv(n, n_sv);
  for (idx i = 0; i < n; ++i)
    for (idx s = 0; s < n_sv; ++s)
      k_sv(i, s) = p.k(i, compact.sv_indices[static_cast<std::size_t>(s)]);

  const auto f_full = p.model.decision_values(p.k);
  const auto f_compact = compact.model.decision_values(k_sv);
  ASSERT_EQ(f_full.size(), f_compact.size());
  // Same nonzero terms in the same accumulation order => bitwise equality.
  for (std::size_t i = 0; i < f_full.size(); ++i)
    EXPECT_EQ(f_full[i], f_compact[i]);
  EXPECT_EQ(p.model.predict(p.k), compact.model.predict(k_sv));
}

TEST(SvmCompaction, StateGatherOverloadSelectsSvSubset) {
  const TrainedProblem p = gaussian_problem(13, 1.0);
  // Stand-in "states": the original training index, so the gather is
  // directly checkable.
  std::vector<int> states(p.y.size());
  for (std::size_t i = 0; i < states.size(); ++i) states[i] = static_cast<int>(i);
  std::vector<int> sv_states;
  const CompactSvc compact = compact_support_vectors(p.model, states, &sv_states);
  ASSERT_EQ(sv_states.size(), compact.sv_indices.size());
  for (std::size_t s = 0; s < sv_states.size(); ++s)
    EXPECT_EQ(sv_states[s], static_cast<int>(compact.sv_indices[s]));
}

TEST(SvmCompaction, RejectsMisalignedStates) {
  const TrainedProblem p = gaussian_problem(14, 1.0);
  std::vector<int> wrong_size(p.y.size() + 1, 0);
  std::vector<int> out;
  EXPECT_THROW(compact_support_vectors(p.model, wrong_size, &out), Error);
}

}  // namespace
}  // namespace qkmps::svm
