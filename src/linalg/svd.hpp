#pragma once

#include <vector>

#include "linalg/bidiag.hpp"
#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"

namespace qkmps::linalg {

/// Thin singular value decomposition A = U diag(s) V^H with k = min(m, n):
/// U is m x k with orthonormal columns, V^H is k x n with orthonormal rows,
/// s is sorted descending and non-negative.
struct SvdResult {
  Matrix u;
  std::vector<double> s;
  Matrix vh;
};

/// Thin SVD. The driver bidiagonalizes (real-bidiagonal Householder form)
/// and runs an implicit-shift Golub-Kahan QR iteration; if the iteration
/// fails to converge within its budget (pathological inputs), it falls back
/// to the unconditionally-convergent one-sided Jacobi SVD. This is the
/// decomposition applied after every two-qubit gate (Fig. 1b of the paper)
/// and is the single hottest kernel in the simulator.
SvdResult svd(const Matrix& a, ExecPolicy policy = ExecPolicy::Reference);

/// Reusable scratch for the SVD driver. A long-lived workspace (the gate
/// sweep keeps one per simulate() call, see mps/gate_application.hpp)
/// collapses the ~2n+10 heap allocations of a cold svd() call to the
/// handful that escape into the returned factors.
struct SvdWorkspace {
  Bidiagonalization bd;
  BidiagWorkspace bidiag;
  Matrix wide;     ///< adjoint scratch for wide (m < n) inputs
  SvdResult tall;  ///< tall-factorization scratch for the wide branch
  std::vector<idx> perm;
};

/// Fully in-place variant: factors are written into `out`, reusing the heap
/// blocks it already owns. A caller that keeps `out` alive across calls
/// (the gate sweep's TwoQubitStep) runs the entire decomposition
/// allocation-free once warm. Bitwise-identical results to svd(), whatever
/// `out` and `ws` held before (tests/test_svd.cpp).
void svd_into(const Matrix& a, ExecPolicy policy, SvdResult& out,
              SvdWorkspace& ws);

/// Truncation decision: given singular values sorted descending, returns the
/// number to KEEP so that the discarded squared weight satisfies
/// sum_{i >= keep} s_i^2 <= max_discarded_weight (Eq. 8 of the paper),
/// additionally capping at max_rank if max_rank > 0. Always keeps >= 1.
idx truncation_rank(const std::vector<double>& s, double max_discarded_weight,
                    idx max_rank = 0);

/// Cuts an SvdResult down to its first `rank` triplets.
void truncate_svd(SvdResult& f, idx rank);

}  // namespace qkmps::linalg
