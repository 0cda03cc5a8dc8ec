#include "linalg/gemm.hpp"

#include <algorithm>

namespace qkmps::linalg {

namespace {

constexpr idx kBlock = 48;

/// Core kernels accumulate into a zeroed, pre-sized C so both the
/// allocating entry points and gemm_into share one arithmetic path.
void gemm_reference_core(Matrix& c, const Matrix& a, const Matrix& b) {
  const idx m = a.rows(), k = a.cols(), n = b.cols();
  for (idx i = 0; i < m; ++i) {
    cplx* ci = c.row(i);
    const cplx* ai = a.row(i);
    for (idx p = 0; p < k; ++p) {
      const cplx aip = ai[p];
      const cplx* bp = b.row(p);
      for (idx j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void gemm_blocked_core(Matrix& c, const Matrix& a, const Matrix& b,
                       bool parallel) {
  const idx m = a.rows(), k = a.cols(), n = b.cols();
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
            cplx* ci = c.row(i);
            const cplx* ai = a.row(i);
            for (idx p = p0; p < p1; ++p) {
              const cplx aip = ai[p];
              const cplx* bp = b.row(p);
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
  gemm_reference_core(c, a, b);
  return c;
}

Matrix gemm_blocked(const Matrix& a, const Matrix& b, bool parallel) {
  QKMPS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_blocked_core(c, a, b, parallel);
  return c;
}

void gemm_into(Matrix& c, const Matrix& a, const Matrix& b,
               ExecPolicy policy) {
  QKMPS_CHECK(a.cols() == b.rows());
  QKMPS_CHECK_MSG(c.data() != a.data() && c.data() != b.data(),
                  "gemm_into output must not alias an operand");
  c.resize(a.rows(), b.cols());
  if (policy == ExecPolicy::Reference) {
    gemm_reference_core(c, a, b);
    return;
  }
  const bool parallel = a.rows() * b.cols() >= kParallelGemmThreshold;
  gemm_blocked_core(c, a, b, parallel);
}

Matrix gemm(const Matrix& a, const Matrix& b, ExecPolicy policy, Op op_a,
            Op op_b) {
  // Op::None operands feed the kernels in place; only ConjT pays an
  // explicit transpose copy (strided kernels for every op combination are
  // not worth it at bond-dimension sizes).
  Matrix at, bt;
  const Matrix& am = op_a == Op::None ? a : (at = a.adjoint());
  const Matrix& bm = op_b == Op::None ? b : (bt = b.adjoint());
  if (policy == ExecPolicy::Reference) return gemm_reference(am, bm);
  const bool parallel = am.rows() * bm.cols() >= kParallelGemmThreshold;
  return gemm_blocked(am, bm, parallel);
}

}  // namespace qkmps::linalg
