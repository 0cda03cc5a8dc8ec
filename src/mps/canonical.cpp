#include "mps/canonical.hpp"

#include <algorithm>
#include <utility>

#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// A copy of a site's matricization, for the factorizations that take a
/// Matrix.
linalg::Matrix to_matrix(linalg::ConstMatrixView v) {
  linalg::Matrix m(v.rows, v.cols);
  std::copy(v.data, v.data + v.rows * v.cols, m.data());
  return m;
}

}  // namespace

// Both shifts write their two factors over the pair's storage, which
// moves only if the shared bond's size changed.

void shift_center_right(Mps& psi, linalg::ExecPolicy policy) {
  const idx c = psi.center();
  QKMPS_CHECK(c + 1 < psi.num_sites());

  const linalg::QrResult qr =
      linalg::qr_thin(to_matrix(std::as_const(psi).site(c).left_matrix()));
  // next <- R * next over the shared bond.
  const SiteView next = std::as_const(psi).site(c + 1);
  linalg::Matrix merged(qr.r.rows(), 2 * next.right);
  linalg::gemm_into(linalg::view(merged), linalg::view(qr.r), next.right_matrix(),
                    policy);

  psi.resize_bond(c, qr.q.cols());
  psi.site(c).assign(qr.q);
  psi.site(c + 1).assign(merged);
  psi.set_center(c + 1);
}

void shift_center_left(Mps& psi, linalg::ExecPolicy policy) {
  const idx c = psi.center();
  QKMPS_CHECK(c - 1 >= 0);

  const linalg::LqResult lq =
      linalg::lq_thin(to_matrix(std::as_const(psi).site(c).right_matrix()));
  // prev <- prev * L over the shared bond.
  const SiteView prev = std::as_const(psi).site(c - 1);
  linalg::Matrix merged(prev.left * 2, lq.l.cols());
  linalg::gemm_into(linalg::view(merged), prev.left_matrix(), linalg::view(lq.l),
                    policy);

  psi.resize_bond(c - 1, lq.l.cols());
  psi.site(c - 1).assign(merged);
  psi.site(c).assign(lq.q);
  psi.set_center(c - 1);
}

void move_center(Mps& psi, idx target, linalg::ExecPolicy policy) {
  QKMPS_CHECK(target >= 0 && target < psi.num_sites());
  while (psi.center() < target) shift_center_right(psi, policy);
  while (psi.center() > target) shift_center_left(psi, policy);
}

double left_orthonormality_defect(const Mps& psi, idx site) {
  return linalg::orthonormality_defect(to_matrix(psi.site(site).left_matrix()));
}

double right_orthonormality_defect(const Mps& psi, idx site) {
  // Right-orthonormal means the (left | physical,right) matricization has
  // orthonormal rows.
  const linalg::Matrix m = to_matrix(psi.site(site).right_matrix()).adjoint();
  return linalg::orthonormality_defect(m);
}

}  // namespace qkmps::mps
