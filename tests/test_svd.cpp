#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/bidiag.hpp"
#include "linalg/qr.hpp"
#include "linalg/gemm.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "test_helpers.hpp"

namespace qkmps::linalg {
namespace {

class SvdShapes : public ::testing::TestWithParam<std::pair<idx, idx>> {};

TEST_P(SvdShapes, Reconstructs) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 677 + n));
  const Matrix a = testing::random_matrix(m, n, rng);
  const SvdResult f = svd(a);
  EXPECT_LT(max_abs_diff(testing::reconstruct(f), a), 1e-11);
}

TEST_P(SvdShapes, FactorsAreOrthonormal) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 31 + n * 7));
  const SvdResult f = svd(testing::random_matrix(m, n, rng));
  EXPECT_LT(orthonormality_defect(f.u), 1e-12);
  EXPECT_LT(orthonormality_defect(f.vh.adjoint()), 1e-12);
}

TEST_P(SvdShapes, SingularValuesSortedNonNegative) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 101));
  const SvdResult f = svd(testing::random_matrix(m, n, rng));
  EXPECT_EQ(static_cast<idx>(f.s.size()), std::min(m, n));
  for (std::size_t i = 0; i < f.s.size(); ++i) {
    EXPECT_GE(f.s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(f.s[i], f.s[i - 1]);
    }
  }
}

TEST_P(SvdShapes, AgreesWithJacobiOracle) {
  // Both kernel policies against the oracle: they are different arithmetic
  // (blocked, threaded reflectors vs serial loops), so they agree to the
  // repo-wide 1e-10 parity tolerance, not bitwise.
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 503 + n * 13));
  const Matrix a = testing::random_matrix(m, n, rng);
  const SvdResult qr_based = svd(a);
  const SvdResult accelerated = svd(a, ExecPolicy::Accelerated);
  const SvdResult oracle = jacobi_svd(a);
  const double tol = 1e-10 * (oracle.s[0] + 1.0);
  for (std::size_t i = 0; i < qr_based.s.size(); ++i) {
    EXPECT_NEAR(qr_based.s[i], oracle.s[i], tol);
    EXPECT_NEAR(accelerated.s[i], oracle.s[i], tol);
  }
  EXPECT_LT(max_abs_diff(testing::reconstruct(accelerated),
                         testing::reconstruct(qr_based)),
            tol);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, SvdShapes,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(2, 2),
                                           std::make_pair(6, 6),
                                           std::make_pair(10, 4),
                                           std::make_pair(4, 10),
                                           std::make_pair(33, 33),
                                           std::make_pair(64, 48),
                                           std::make_pair(48, 64),
                                           std::make_pair(100, 100)));

TEST(Svd, KnownDiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -5.0;  // sign must land in the factors, not in s
  a(2, 2) = 3.0;
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 5.0, 1e-13);
  EXPECT_NEAR(f.s[1], 3.0, 1e-13);
  EXPECT_NEAR(f.s[2], 1.0, 1e-13);
}

TEST(Svd, FrobeniusNormEqualsSingularValueNorm) {
  Rng rng(21);
  const Matrix a = testing::random_matrix(12, 9, rng);
  const SvdResult f = svd(a);
  double ssq = 0.0;
  for (double s : f.s) ssq += s * s;
  EXPECT_NEAR(std::sqrt(ssq), frobenius_norm(a), 1e-11);
}

TEST(Svd, RankDeficientTailIsZero) {
  Rng rng(22);
  // Rank-2 matrix from an outer-product sum.
  const Matrix u = testing::random_matrix(10, 2, rng);
  const Matrix v = testing::random_matrix(2, 7, rng);
  const Matrix a = gemm_reference(u, v);
  const SvdResult f = svd(a);
  for (std::size_t i = 2; i < f.s.size(); ++i) EXPECT_LT(f.s[i], 1e-12 * f.s[0]);
}

TEST(Svd, UnitaryInputHasUnitSingularValues) {
  Rng rng(23);
  const QrResult qr = qr_thin(testing::random_matrix(9, 9, rng));
  const SvdResult f = svd(qr.q);
  for (double s : f.s) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(Svd, ZeroMatrix) {
  const SvdResult f = svd(Matrix(4, 3));
  for (double s : f.s) EXPECT_EQ(s, 0.0);
}

TEST(Bidiag, RealBidiagonalForm) {
  Rng rng(24);
  const Matrix a = testing::random_matrix(8, 5, rng);
  const Bidiagonalization bd = bidiagonalize(a);
  EXPECT_EQ(bd.d.size(), 5u);
  EXPECT_EQ(bd.e.size(), 4u);
  // Reassemble U B V^H and compare.
  Matrix b(5, 5);
  for (idx i = 0; i < 5; ++i) {
    b(i, i) = bd.d[static_cast<std::size_t>(i)];
    if (i < 4) b(i, i + 1) = bd.e[static_cast<std::size_t>(i)];
  }
  const Matrix rec = gemm_reference(gemm_reference(bd.u, b), bd.v.adjoint());
  EXPECT_LT(max_abs_diff(rec, a), 1e-12);
  EXPECT_LT(orthonormality_defect(bd.u), 1e-13);
  EXPECT_LT(orthonormality_defect(bd.v), 1e-13);
}

TEST(TruncationRank, KeepsEverythingUnderBudget) {
  const std::vector<double> s{1.0, 0.5, 1e-9, 1e-10};
  // Budget bigger than the tail weight: drop the two tiny values.
  EXPECT_EQ(truncation_rank(s, 1e-17), 2);
}

TEST(TruncationRank, ZeroBudgetKeepsNonzeros) {
  const std::vector<double> s{1.0, 0.5, 0.0, 0.0};
  EXPECT_EQ(truncation_rank(s, 0.0), 2);
}

TEST(TruncationRank, AlwaysKeepsAtLeastOne) {
  const std::vector<double> s{1e-30};
  EXPECT_EQ(truncation_rank(s, 1.0), 1);
}

TEST(TruncationRank, MaxRankCaps) {
  const std::vector<double> s{3.0, 2.0, 1.0};
  EXPECT_EQ(truncation_rank(s, 0.0, 2), 2);
}

TEST(TruncationRank, BudgetIsCumulative) {
  // Each tail value has weight 1e-9; budget 2.5e-9 admits only two of them.
  const std::vector<double> s{1.0, 3.1623e-5, 3.1623e-5, 3.1623e-5};
  EXPECT_EQ(truncation_rank(s, 2.5e-9), 2);
}

TEST(TruncateSvd, ShrinksFactorsConsistently) {
  Rng rng(25);
  const Matrix a = testing::random_matrix(8, 6, rng);
  SvdResult f = svd(a);
  truncate_svd(f, 3);
  EXPECT_EQ(f.u.cols(), 3);
  EXPECT_EQ(f.vh.rows(), 3);
  EXPECT_EQ(f.s.size(), 3u);
  EXPECT_LT(orthonormality_defect(f.u), 1e-12);
}

TEST(Svd, WarmWorkspaceAndOutputAreBitwiseInvisible) {
  // The gate sweep keeps one SvdWorkspace and one SvdResult for a whole
  // circuit and decomposes with svd_into. Whatever an earlier call left in
  // them — other shapes, tall and wide, a truncated result, a zero matrix —
  // must not change a bit of the next factorization.
  Rng rng(27);
  std::vector<Matrix> inputs;
  for (int rep = 0; rep < 2; ++rep) {
    inputs.push_back(testing::random_matrix(8, 8, rng));
    inputs.push_back(testing::random_matrix(16, 4, rng));
    inputs.push_back(testing::random_matrix(4, 16, rng));
    inputs.push_back(gemm_reference(testing::random_matrix(8, 2, rng),
                                    testing::random_matrix(2, 8, rng)));
    inputs.push_back(Matrix(6, 5));
    inputs.push_back(testing::random_matrix(1, 7, rng));
    inputs.push_back(testing::random_matrix(2, 2, rng));
  }
  const auto same = [](const Matrix& x, const Matrix& y) {
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(),
                       static_cast<std::size_t>(x.rows() * x.cols()) *
                           sizeof(cplx)) == 0;
  };
  for (const ExecPolicy policy :
       {ExecPolicy::Reference, ExecPolicy::Accelerated}) {
    SvdWorkspace ws;
    SvdResult warm;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const SvdResult cold = svd(inputs[i], policy);
      svd_into(inputs[i], policy, warm, ws);
      EXPECT_TRUE(warm.s.size() == cold.s.size() &&
                  std::memcmp(warm.s.data(), cold.s.data(),
                              cold.s.size() * sizeof(double)) == 0 &&
                  same(warm.u, cold.u) && same(warm.vh, cold.vh))
          << "input " << i << " policy=" << to_string(policy);
      truncate_svd(warm, 1);
    }
  }
}

// --- Degenerate-input regressions --------------------------------------
// The gate-sweep hot path feeds the SVD every theta matrix a circuit can
// produce, including exactly-zero blocks, duplicated columns, and
// amplitude scales far outside [sqrt(DBL_MIN), sqrt(DBL_MAX)]. Each test
// here pins a failure mode that used to produce zero factor columns
// (orthonormality defect 1.0) or collapsed singular values, checked
// against BOTH drivers: the Golub-Kahan fast path and the Jacobi oracle.

void expect_valid_factorization(const Matrix& a, const SvdResult& f,
                                const char* what) {
  EXPECT_LT(orthonormality_defect(f.u), 1e-12) << what;
  EXPECT_LT(orthonormality_defect(f.vh.adjoint()), 1e-12) << what;
  const double scale = f.s.empty() ? 1.0 : f.s[0] + 1.0;
  EXPECT_LT(max_abs_diff(testing::reconstruct(f), a), 1e-11 * scale) << what;
  for (std::size_t i = 0; i < f.s.size(); ++i) {
    EXPECT_TRUE(std::isfinite(f.s[i])) << what;
    EXPECT_GE(f.s[i], 0.0) << what;
    if (i > 0) {
      EXPECT_LE(f.s[i], f.s[i - 1]) << what;
    }
  }
}

class SvdDegenerateShapes
    : public ::testing::TestWithParam<std::pair<idx, idx>> {};

TEST_P(SvdDegenerateShapes, ZeroMatrixFactorsStayOrthonormal) {
  // Used to leave U's null-space columns at zero in the Jacobi driver:
  // every singular value is zero, so no Givens rotation ever touched them.
  const auto [m, n] = GetParam();
  const Matrix a(m, n);
  expect_valid_factorization(a, svd(a), "golub-kahan");
  expect_valid_factorization(a, jacobi_svd(a), "jacobi");
}

TEST_P(SvdDegenerateShapes, DenormalRangeEntries) {
  // Entries near 1e-290: squaring them in Gram terms underflows to zero.
  // Both drivers now rescale into the safe window first, so the singular
  // values survive (scale-equivariance instead of collapse to 0.0).
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1009 + n * 17));
  Matrix a = testing::random_matrix(m, n, rng);
  Matrix tiny = a;
  for (idx i = 0; i < m; ++i)
    for (idx j = 0; j < n; ++j) tiny(i, j) *= 1e-290;
  for (const bool jacobi : {false, true}) {
    const SvdResult ref = jacobi ? jacobi_svd(a) : svd(a);
    const SvdResult f = jacobi ? jacobi_svd(tiny) : svd(tiny);
    ASSERT_EQ(f.s.size(), ref.s.size());
    EXPECT_GT(f.s[0], 0.0) << "denormal-range spectrum collapsed";
    for (std::size_t i = 0; i < f.s.size(); ++i)
      EXPECT_NEAR(f.s[i], ref.s[i] * 1e-290, 1e-12 * ref.s[0] * 1e-290);
    EXPECT_LT(orthonormality_defect(f.u), 1e-12);
    EXPECT_LT(orthonormality_defect(f.vh.adjoint()), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(DegenerateShapeSweep, SvdDegenerateShapes,
                         ::testing::Values(std::make_pair(4, 3),
                                           std::make_pair(3, 4),
                                           std::make_pair(1, 5),
                                           std::make_pair(5, 1),
                                           std::make_pair(6, 6)));

TEST(SvdDegenerate, DuplicateAndZeroColumns) {
  // Rank 2 out of 4 columns: col1 repeats col0 and col2 is exactly zero.
  // The tail singular values are exact zeros, so U needs two columns the
  // rotations never produced — they must be completed orthonormally.
  Rng rng(91);
  Matrix a(6, 4);
  for (idx i = 0; i < 6; ++i) {
    a(i, 0) = rng.normal_cplx();
    a(i, 1) = a(i, 0);
    a(i, 3) = rng.normal_cplx();
  }
  expect_valid_factorization(a, svd(a), "golub-kahan");
  expect_valid_factorization(a, jacobi_svd(a), "jacobi");
  const SvdResult f = svd(a);
  const SvdResult oracle = jacobi_svd(a);
  for (std::size_t i = 0; i < f.s.size(); ++i)
    EXPECT_NEAR(f.s[i], oracle.s[i], 1e-12 * (oracle.s[0] + 1.0));
  EXPECT_LT(f.s[2], 1e-13 * f.s[0]);
  EXPECT_LT(f.s[3], 1e-13 * f.s[0]);
}

TEST(SvdDegenerate, RepeatedSingularValues) {
  // A scaled unitary has every singular value equal — the classic case
  // where naive deflation loops forever or mixes degenerate subspaces.
  Rng rng(92);
  const QrResult qr = qr_thin(testing::random_matrix(7, 7, rng));
  Matrix a = qr.q;
  for (idx i = 0; i < 7; ++i)
    for (idx j = 0; j < 7; ++j) a(i, j) *= 3.0;
  for (const SvdResult& f : {svd(a), jacobi_svd(a)}) {
    expect_valid_factorization(a, f, "repeated");
    for (double s : f.s) EXPECT_NEAR(s, 3.0, 1e-12);
  }
}

TEST(SvdDegenerate, ExtremeMagnitudeDiagonal) {
  // Magnitudes around 1e+/-200, where squaring any entry overflows or
  // underflows double. One global rescale handles each regime (it cannot
  // widen the representable *spread* — a spectrum spanning 400 decades is
  // beyond any single scale factor — so each matrix stays within a few
  // decades of its own largest entry, like the gate sweep's thetas do).
  for (const double scale : {1e200, 1e-200}) {
    Matrix a(4, 4);
    a(0, 0) = scale;
    a(1, 1) = scale * 1e-5;
    a(2, 2) = scale * 1e-10;
    a(3, 3) = 0.0;
    for (const SvdResult& f : {svd(a), jacobi_svd(a)}) {
      ASSERT_EQ(f.s.size(), 4u);
      EXPECT_TRUE(std::isfinite(f.s[0]));
      EXPECT_NEAR(f.s[0] / scale, 1.0, 1e-12);
      EXPECT_NEAR(f.s[1] / scale, 1e-5, 1e-12);
      EXPECT_NEAR(f.s[2] / scale, 1e-10, 1e-12);
      EXPECT_EQ(f.s[3], 0.0);
      EXPECT_LT(orthonormality_defect(f.u), 1e-12);
      EXPECT_LT(orthonormality_defect(f.vh.adjoint()), 1e-12);
    }
  }
}

TEST(SvdDegenerate, SingleRowAndSingleColumn) {
  Rng rng(93);
  for (const auto& [m, n] :
       {std::make_pair<idx, idx>(1, 7), std::make_pair<idx, idx>(7, 1)}) {
    const Matrix a = testing::random_matrix(m, n, rng);
    expect_valid_factorization(a, svd(a), "golub-kahan 1d");
    expect_valid_factorization(a, jacobi_svd(a), "jacobi 1d");
  }
}

TEST(TruncateSvd, BestRankKApproximationError) {
  // Eckart-Young: the Frobenius error of the rank-k truncation equals the
  // norm of the dropped singular values.
  Rng rng(26);
  const Matrix a = testing::random_matrix(10, 10, rng);
  SvdResult f = svd(a);
  double tail = 0.0;
  for (std::size_t i = 4; i < f.s.size(); ++i) tail += f.s[i] * f.s[i];
  truncate_svd(f, 4);
  const Matrix approx = testing::reconstruct(f);
  Matrix diff = a;
  diff -= approx;
  EXPECT_NEAR(frobenius_norm_sq(diff), tail, 1e-10 * (tail + 1.0));
}

}  // namespace
}  // namespace qkmps::linalg
