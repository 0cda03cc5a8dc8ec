#include "linalg/gemm.hpp"

#include <algorithm>

namespace qkmps::linalg {

namespace {

constexpr idx kBlock = 48;

/// op(A)[i, p] read in place: A's entry, or under ConjT conj(A[p, i]),
/// the value adjoint() would have copied out.
template <bool ConjA>
cplx op_entry(const ConstMatrixView& a, idx i, idx p) {
  if constexpr (ConjA) return std::conj(a.data[p * a.cols + i]);
  else return a.data[i * a.cols + p];
}

/// Core kernels accumulate into a zeroed C of op(A)'s rows and B's
/// columns, so every entry point shares one arithmetic path.
template <bool ConjA>
void gemm_reference_core(const MatrixView& c, const ConstMatrixView& a,
                         const ConstMatrixView& b) {
  const idx m = c.rows, k = b.rows, n = c.cols;
  for (idx i = 0; i < m; ++i) {
    cplx* ci = c.data + i * n;
    for (idx p = 0; p < k; ++p) {
      const cplx aip = op_entry<ConjA>(a, i, p);
      const cplx* bp = b.data + p * n;
      for (idx j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

template <bool ConjA>
void gemm_blocked_core(const MatrixView& c, const ConstMatrixView& a,
                       const ConstMatrixView& b, bool parallel) {
  const idx m = c.rows, k = b.rows, n = c.cols;
  const idx mblocks = (m + kBlock - 1) / kBlock;
  // Team width honors the caller's KernelThreadScope budget: a kernel
  // running inside a serving worker lane (budget 1) stays serial instead
  // of multiplying lane parallelism by an OpenMP team.
  const int width = parallel ? kernel_team_width() : 1;
  const bool fork = parallel && width > 1;

#pragma omp parallel num_threads(width) if (fork)
  {
    detail::KernelProbeGuard probe;
#pragma omp for schedule(static)
    for (idx bi = 0; bi < mblocks; ++bi) {
      const idx i0 = bi * kBlock;
      const idx i1 = std::min(i0 + kBlock, m);
      for (idx p0 = 0; p0 < k; p0 += kBlock) {
        const idx p1 = std::min(p0 + kBlock, k);
        for (idx j0 = 0; j0 < n; j0 += kBlock) {
          const idx j1 = std::min(j0 + kBlock, n);
          for (idx i = i0; i < i1; ++i) {
            cplx* ci = c.data + i * n;
            for (idx p = p0; p < p1; ++p) {
              const cplx aip = op_entry<ConjA>(a, i, p);
              const cplx* bp = b.data + p * n;
              for (idx j = j0; j < j1; ++j) ci[j] += aip * bp[j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

Matrix gemm_reference(const Matrix& a, const Matrix& b) {
  QKMPS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_reference_core<false>(view(c), view(a), view(b));
  return c;
}

Matrix gemm_blocked(const Matrix& a, const Matrix& b, bool parallel) {
  QKMPS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_blocked_core<false>(view(c), view(a), view(b), parallel);
  return c;
}

void gemm_into(MatrixView c, ConstMatrixView a, ConstMatrixView b,
               ExecPolicy policy, Op op_a) {
  const bool conj_a = op_a == Op::ConjT;
  QKMPS_CHECK((conj_a ? a.rows : a.cols) == b.rows);
  QKMPS_CHECK(c.rows == (conj_a ? a.cols : a.rows) && c.cols == b.cols);
  QKMPS_CHECK_MSG(c.data != a.data && c.data != b.data,
                  "gemm_into output must not alias an operand");
  std::fill(c.data, c.data + c.rows * c.cols, cplx(0.0));
  if (policy == ExecPolicy::Reference) {
    if (conj_a) gemm_reference_core<true>(c, a, b);
    else gemm_reference_core<false>(c, a, b);
    return;
  }
  const bool parallel = c.rows * c.cols >= kParallelGemmThreshold;
  if (conj_a) gemm_blocked_core<true>(c, a, b, parallel);
  else gemm_blocked_core<false>(c, a, b, parallel);
}

void gemm_into(Matrix& c, const Matrix& a, const Matrix& b,
               ExecPolicy policy) {
  QKMPS_CHECK(a.cols() == b.rows());
  QKMPS_CHECK_MSG(c.data() != a.data() && c.data() != b.data(),
                  "gemm_into output must not alias an operand");
  c.resize_for_overwrite(a.rows(), b.cols());
  gemm_into(view(c), view(a), view(b), policy);
}

Matrix gemm(const Matrix& a, const Matrix& b, ExecPolicy policy, Op op_a,
            Op op_b) {
  // op(A) is read in place; only a ConjT B pays an explicit transpose copy
  // (B's rows are the kernels' contiguous inner loop).
  Matrix bt;
  const Matrix& bm = op_b == Op::None ? b : (bt = b.adjoint());
  Matrix c(op_a == Op::None ? a.rows() : a.cols(), bm.cols());
  gemm_into(view(c), view(a), view(bm), policy, op_a);
  return c;
}

}  // namespace qkmps::linalg
