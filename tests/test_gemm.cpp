#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "test_helpers.hpp"

namespace qkmps::linalg {
namespace {

Matrix naive_mul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < b.cols(); ++j) {
      cplx acc = 0.0;
      for (idx k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = testing::random_matrix(6, 6, rng);
  const Matrix r = gemm(a, Matrix::identity(6), ExecPolicy::Reference);
  EXPECT_LT(max_abs_diff(r, a), 1e-14);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(gemm(a, b, ExecPolicy::Reference), Error);
}

TEST(Gemm, ConjTransposeOperands) {
  Rng rng(2);
  const Matrix a = testing::random_matrix(5, 3, rng);
  const Matrix b = testing::random_matrix(5, 4, rng);
  // A^H B via op flag must match the explicit adjoint.
  const Matrix r1 = gemm(a, b, ExecPolicy::Reference, Op::ConjT, Op::None);
  const Matrix r2 = naive_mul(a.adjoint(), b);
  EXPECT_LT(max_abs_diff(r1, r2), 1e-13);
}

TEST(Gemm, BothOpsConjTranspose) {
  Rng rng(3);
  const Matrix a = testing::random_matrix(4, 6, rng);
  const Matrix b = testing::random_matrix(5, 4, rng);
  const Matrix r1 = gemm(a, b, ExecPolicy::Accelerated, Op::ConjT, Op::ConjT);
  const Matrix r2 = naive_mul(a.adjoint(), b.adjoint());
  EXPECT_LT(max_abs_diff(r1, r2), 1e-13);
}

/// Parameterized agreement sweep: all kernels must agree with the naive
/// triple loop over a representative grid of shapes, including the
/// parallel-dispatch threshold region.
class GemmShapes : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(GemmShapes, AllKernelsAgree) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n));
  const Matrix a = testing::random_matrix(m, k, rng);
  const Matrix b = testing::random_matrix(k, n, rng);
  const Matrix expect = naive_mul(a, b);

  const double scale = frobenius_norm(expect) + 1.0;
  EXPECT_LT(max_abs_diff(gemm_reference(a, b), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm_blocked(a, b, false), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm_blocked(a, b, true), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm(a, b, ExecPolicy::Reference), expect) / scale, 1e-13);
  EXPECT_LT(max_abs_diff(gemm(a, b, ExecPolicy::Accelerated), expect) / scale, 1e-13);

  // gemm_into into a warm output of another shape is bitwise gemm().
  for (const ExecPolicy policy :
       {ExecPolicy::Reference, ExecPolicy::Accelerated}) {
    Matrix into = testing::random_matrix(3, 2, rng);
    gemm_into(into, a, b, policy);
    const Matrix fresh = gemm(a, b, policy);
    ASSERT_EQ(into.rows(), fresh.rows());
    ASSERT_EQ(into.cols(), fresh.cols());
    EXPECT_EQ(std::memcmp(into.data(), fresh.data(),
                          static_cast<std::size_t>(m * n) * sizeof(cplx)),
              0)
        << "policy=" << to_string(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 1),
                      std::make_tuple(2, 3, 5), std::make_tuple(16, 16, 16),
                      std::make_tuple(48, 48, 48), std::make_tuple(49, 31, 57),
                      std::make_tuple(96, 17, 128), std::make_tuple(130, 130, 130),
                      std::make_tuple(7, 200, 3)));

}  // namespace
}  // namespace qkmps::linalg
