#pragma once

#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"

namespace qkmps::linalg {

/// How an operand enters the product.
enum class Op {
  None,     ///< A as stored
  ConjT,    ///< conjugate transpose A^H
};

/// C = op(A) * op(B). Dispatches on `policy`:
///  - Reference: straightforward i-k-j loop (cache-friendly for row-major,
///    serial) — the low-overhead path.
///  - Accelerated: tiled kernel, OpenMP-parallel over row blocks once the
///    output is large enough (kParallelGemmThreshold).
Matrix gemm(const Matrix& a, const Matrix& b, ExecPolicy policy,
            Op op_a = Op::None, Op op_b = Op::None);

/// C = A * B into a caller-owned output (resized in place, so repeated
/// calls on a persistent C reuse its heap block — the gate sweep's
/// no-churn path). C must not alias A or B. Arithmetic is
/// identical to gemm(): the two entry points are bitwise-interchangeable.
void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ExecPolicy policy);

/// Kernels exposed for tests/ablation benches.
Matrix gemm_reference(const Matrix& a, const Matrix& b);
Matrix gemm_blocked(const Matrix& a, const Matrix& b, bool parallel);

}  // namespace qkmps::linalg
