#include "mps/gate_application.hpp"

#include <algorithm>
#include <utility>
#include <cmath>
#include <cstdlib>

#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "mps/canonical.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// Canonicalizes the bond (q, q+1) and contracts its two site tensors,
/// read in place, into step.theta; `u` is copied into step.gate.
void stage_two_qubit_gate(Mps& psi, const linalg::Matrix& u, idx q,
                          TwoQubitStep& step, linalg::ExecPolicy policy) {
  QKMPS_CHECK(q >= 0 && q + 1 < psi.num_sites());
  QKMPS_CHECK(u.rows() == 4 && u.cols() == 4);

  // Canonicalize so the bond (q, q+1) is optimal to truncate.
  if (psi.center() < q) move_center(psi, q, policy);
  if (psi.center() > q + 1) move_center(psi, q + 1, policy);

  const SiteView a = std::as_const(psi).site(q);
  const SiteView b = std::as_const(psi).site(q + 1);
  QKMPS_CHECK(b.left == a.right);
  step.q = q;
  step.dl = a.left;
  step.dr = b.right;

  step.gate = u;
  // The (left, physical) x right and left x (physical, right) groupings
  // are reshapes of the row-major site storage, so the product reads the
  // buffer as it lies.
  step.theta.resize_for_overwrite(step.dl * 2, 2 * step.dr);
  linalg::gemm_into(linalg::view(step.theta), a.left_matrix(), b.right_matrix(),
                    policy);
}

void permute_theta_for_gate(TwoQubitStep& step) {
  // theta[l, s0, s1, r] -> theta_p[(s0 s1), (l r)]: the gate contraction
  // becomes a plain 4 x (dl*dr) GEMM.
  const idx dl = step.dl, dr = step.dr;
  step.theta_p.resize_for_overwrite(4, dl * dr);
  for (idx s0 = 0; s0 < 2; ++s0)
    for (idx s1 = 0; s1 < 2; ++s1)
      for (idx l = 0; l < dl; ++l)
        for (idx r = 0; r < dr; ++r)
          step.theta_p(s0 * 2 + s1, l * dr + r) =
              step.theta(l * 2 + s0, s1 * dr + r);
}

void permute_theta_for_svd(TwoQubitStep& step) {
  // Back to ((l s0), (s1 r)) layout for the bipartition SVD.
  const idx dl = step.dl, dr = step.dr;
  step.theta_m.resize_for_overwrite(dl * 2, 2 * dr);
  for (idx s0 = 0; s0 < 2; ++s0)
    for (idx s1 = 0; s1 < 2; ++s1)
      for (idx l = 0; l < dl; ++l)
        for (idx r = 0; r < dr; ++r)
          step.theta_m(l * 2 + s0, s1 * dr + r) =
              step.theta_u(s0 * 2 + s1, l * dr + r);
}

/// After step.f = svd(theta_m): truncates per `trunc`, writes the two site
/// tensors back and lands the center at q+1. Returns the discarded weight
/// (and records it into `stats` when non-null).
double commit_two_qubit_gate(Mps& psi, TwoQubitStep& step,
                             const TruncationConfig& trunc,
                             TruncationStats* stats) {
  linalg::SvdResult& f = step.f;
  const idx keep =
      linalg::truncation_rank(f.s, trunc.max_discarded_weight, trunc.max_bond);
  double discarded = 0.0;
  for (std::size_t i = static_cast<std::size_t>(keep); i < f.s.size(); ++i)
    discarded += f.s[i] * f.s[i];
  linalg::truncate_svd(f, keep);

  // Left site gets U (left-orthonormal); the singular values are contracted
  // into the right factor (Fig. 1b, last step), so the center lands on q+1.
  // Both overwrite the pair's storage, which moves only if the bond's size
  // changed.
  psi.resize_bond(step.q, keep);
  psi.site(step.q).assign(f.u);
  const MutableSiteView right = psi.site(step.q + 1);
  QKMPS_CHECK(right.a.size() == static_cast<std::size_t>(f.vh.size()));
  for (idx i = 0; i < keep; ++i) {
    const double s = f.s[static_cast<std::size_t>(i)];
    for (idx j = 0; j < f.vh.cols(); ++j)
      right.a[static_cast<std::size_t>(i * f.vh.cols() + j)] = f.vh(i, j) * s;
  }
  psi.set_center(step.q + 1);

  if (stats != nullptr) stats->record(discarded, keep);
  return discarded;
}

/// The |q0 q1> -> |lo hi> reordering of a two-qubit gate matrix.
linalg::Matrix chain_ordered_gate(const circuit::Gate& g) {
  linalg::Matrix u = g.matrix();
  if (g.q0 > g.q1) {
    // Gate matrix is in |q0 q1> order; sites want |lo hi>. Conjugate by the
    // qubit-swap permutation of the 4x4 matrix.
    linalg::Matrix w(4, 4);
    const auto flip = [](idx b) { return ((b & 1) << 1) | (b >> 1); };
    for (idx i = 0; i < 4; ++i)
      for (idx j = 0; j < 4; ++j) w(flip(i), flip(j)) = u(i, j);
    u = std::move(w);
  }
  return u;
}

}  // namespace

void apply_single_qubit_gate(Mps& psi, const linalg::Matrix& u, idx q) {
  QKMPS_CHECK(q >= 0 && q < psi.num_sites());
  QKMPS_CHECK(u.rows() == 2 && u.cols() == 2);
  const MutableSiteView t = psi.site(q);
  for (idx l = 0; l < t.left; ++l) {
    for (idx r = 0; r < t.right; ++r) {
      const cplx a0 = t.at(l, 0, r);
      const cplx a1 = t.at(l, 1, r);
      t.at(l, 0, r) = u(0, 0) * a0 + u(0, 1) * a1;
      t.at(l, 1, r) = u(1, 0) * a0 + u(1, 1) * a1;
    }
  }
}

double apply_adjacent_two_qubit_gate(Mps& psi, const linalg::Matrix& u, idx q,
                                     const TruncationConfig& trunc,
                                     linalg::ExecPolicy policy,
                                     TruncationStats* stats,
                                     TwoQubitStep* scratch) {
  TwoQubitStep fresh;
  TwoQubitStep& step = scratch != nullptr ? *scratch : fresh;
  stage_two_qubit_gate(psi, u, q, step, policy);
  permute_theta_for_gate(step);
  linalg::gemm_into(step.theta_u, step.gate, step.theta_p, policy);
  permute_theta_for_svd(step);
  linalg::svd_into(step.theta_m, policy, step.f, step.svd);
  return commit_two_qubit_gate(psi, step, trunc, stats);
}

void apply_gate(Mps& psi, const circuit::Gate& g, const TruncationConfig& trunc,
                linalg::ExecPolicy policy, TruncationStats* stats,
                TwoQubitStep* scratch) {
  if (!g.is_two_qubit()) {
    apply_single_qubit_gate(psi, g.matrix(), g.q0);
    return;
  }
  QKMPS_CHECK_MSG(std::abs(g.q0 - g.q1) == 1,
                  "non-adjacent two-qubit gate; route the circuit first");
  const idx lo = std::min(g.q0, g.q1);
  apply_adjacent_two_qubit_gate(psi, chain_ordered_gate(g), lo, trunc, policy,
                                stats, scratch);
}

}  // namespace qkmps::mps
