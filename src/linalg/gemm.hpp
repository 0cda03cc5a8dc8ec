#pragma once

#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"

namespace qkmps::linalg {

/// How an operand enters the product.
enum class Op {
  None,     ///< A as stored
  ConjT,    ///< conjugate transpose A^H
};

/// Non-owning row-major view of rows x cols entries starting at `data`:
/// how a caller hands gemm_into storage that no Matrix owns (an MPS site
/// read in place, a slice of a workspace).
template <typename T>
struct BasicMatrixView {
  T* data = nullptr;
  idx rows = 0;
  idx cols = 0;
};
using MatrixView = BasicMatrixView<cplx>;
using ConstMatrixView = BasicMatrixView<const cplx>;

inline MatrixView view(Matrix& m) { return {m.data(), m.rows(), m.cols()}; }
inline ConstMatrixView view(const Matrix& m) { return {m.data(), m.rows(), m.cols()}; }

/// C = op(A) * op(B). Dispatches on `policy`:
///  - Reference: straightforward i-k-j loop (cache-friendly for row-major,
///    serial) — the low-overhead path.
///  - Accelerated: tiled kernel, OpenMP-parallel over row blocks once the
///    output is large enough (kParallelGemmThreshold).
/// Both kernels sum every entry of C over k in the same order, from zero,
/// so the two policies give bitwise-identical products.
Matrix gemm(const Matrix& a, const Matrix& b, ExecPolicy policy,
            Op op_a = Op::None, Op op_b = Op::None);

/// C = A * B into a caller-owned output (resized in place, so repeated
/// calls on a persistent C reuse its heap block — the gate sweep's
/// no-churn path). C must not alias A or B. Arithmetic is
/// identical to gemm(): the two entry points are bitwise-interchangeable.
void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ExecPolicy policy);

/// C = op(A) * B on views, with op(A) read in place (A^H is never copied
/// out). C must already have op(A)'s rows and B's columns; it is zeroed,
/// then summed exactly as gemm(a, b, policy, op_a) sums it, so the two are
/// bitwise-interchangeable. C must not alias A or B.
void gemm_into(MatrixView c, ConstMatrixView a, ConstMatrixView b,
               ExecPolicy policy, Op op_a = Op::None);

/// Kernels exposed for tests/ablation benches.
Matrix gemm_reference(const Matrix& a, const Matrix& b);
Matrix gemm_blocked(const Matrix& a, const Matrix& b, bool parallel);

}  // namespace qkmps::linalg
