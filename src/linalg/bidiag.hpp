#pragma once

#include <vector>

#include "linalg/householder.hpp"
#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"

namespace qkmps::linalg {

/// Householder bidiagonalization of an m x n complex matrix with m >= n:
/// A = U B V^H, where B is *real* upper bidiagonal (diagonal d, superdiagonal
/// e), U is m x n with orthonormal columns and V is n x n unitary. The real
/// bidiagonal form is achieved by the zlarfg-style real-beta reflectors in
/// householder.hpp; it is what allows the subsequent QR iteration (svd.cpp)
/// to run entirely in real arithmetic.
struct Bidiagonalization {
  std::vector<double> d;  ///< n diagonal entries
  std::vector<double> e;  ///< n-1 superdiagonal entries
  Matrix u;               ///< m x n
  Matrix v;               ///< n x n
};

/// Reusable scratch for bidiagonalize_into: the working copy of A, the
/// column/row gather buffer, and the reflector stacks all keep their heap
/// blocks across calls, so a sweep over same-shaped matrices (a gate
/// sweep at settled bond dimensions) allocates only on the first one.
struct BidiagWorkspace {
  Matrix work;
  std::vector<cplx> buf;
  std::vector<Reflector> lefts;
  std::vector<Reflector> rights;
};

/// The accelerated policy parallelizes the per-column/per-row reflector
/// applications (the O(mn^2) bulk of the factorization) across an OpenMP
/// team once the block is larger than kParallelSvdThreshold.
Bidiagonalization bidiagonalize(const Matrix& a,
                                ExecPolicy policy = ExecPolicy::Reference);

/// Workspace-reusing variant; arithmetic is identical to bidiagonalize()
/// (same kernels on the same values), only the allocations differ.
void bidiagonalize_into(const Matrix& a, ExecPolicy policy,
                        Bidiagonalization& out, BidiagWorkspace& ws);

}  // namespace qkmps::linalg
