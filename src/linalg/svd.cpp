#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/bidiag.hpp"
#include "linalg/jacobi_svd.hpp"

namespace qkmps::linalg {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Real Givens pair (c, s) with c*a + s*b = r, -s*a + c*b = 0.
struct Givens {
  double c;
  double s;
  double r;
};

Givens make_givens(double a, double b) {
  if (b == 0.0) return {1.0, 0.0, a};
  if (a == 0.0) return {0.0, 1.0, b};
  const double r = std::hypot(a, b);
  return {a / r, b / r, r};
}

/// Columns p and q of M rotate as col_p' = c col_p + s col_q,
/// col_q' = -s col_p + c col_q. The same update accumulates both the left
/// rotations (into U) and the right rotations (into V); see the step below.
void rotate_cols(Matrix& m, idx p, idx q, double c, double s) {
  for (idx i = 0; i < m.rows(); ++i) {
    const cplx mp = m(i, p), mq = m(i, q);
    m(i, p) = c * mp + s * mq;
    m(i, q) = -s * mp + c * mq;
  }
}

/// Wilkinson shift from the trailing 2x2 of B^T B restricted to block [l,h].
double wilkinson_shift(const std::vector<double>& d, const std::vector<double>& e,
                       idx l, idx h) {
  const double dm1 = d[static_cast<std::size_t>(h - 1)];
  const double dm = d[static_cast<std::size_t>(h)];
  const double em1 = e[static_cast<std::size_t>(h - 1)];
  const double em2 = (h - 1 > l) ? e[static_cast<std::size_t>(h - 2)] : 0.0;
  const double t11 = dm1 * dm1 + em2 * em2;
  const double t12 = dm1 * em1;
  const double t22 = dm * dm + em1 * em1;
  if (t12 == 0.0) return t22;
  const double delta = 0.5 * (t11 - t22);
  const double denom = delta + std::copysign(std::hypot(delta, t12), delta);
  if (denom == 0.0) return t22;
  return t22 - (t12 * t12) / denom;
}

/// One implicit-shift Golub-Kahan SVD step on the bidiagonal block [l, h]
/// (inclusive), chasing the bulge down the band while accumulating the
/// right rotations into V and the left rotations into U.
void golub_kahan_step(std::vector<double>& d, std::vector<double>& e, idx l,
                      idx h, Matrix& u, Matrix& v) {
  const double mu = wilkinson_shift(d, e, l, h);
  double y = d[static_cast<std::size_t>(l)] * d[static_cast<std::size_t>(l)] - mu;
  double z = d[static_cast<std::size_t>(l)] * e[static_cast<std::size_t>(l)];
  double bulge = 0.0;

  for (idx k = l; k < h; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    // Right rotation on columns (k, k+1): kills the bulge at (k-1, k+1)
    // (or implements the shift on the first step).
    const Givens g1 = make_givens(y, z);
    if (k > l) e[ks - 1] = g1.c * e[ks - 1] + g1.s * bulge;
    const double dk = g1.c * d[ks] + g1.s * e[ks];
    const double ek = -g1.s * d[ks] + g1.c * e[ks];
    const double sub = g1.s * d[ks + 1];  // bulge at (k+1, k)
    const double dk1 = g1.c * d[ks + 1];
    rotate_cols(v, k, k + 1, g1.c, g1.s);

    // Left rotation on rows (k, k+1): kills the subdiagonal bulge.
    const Givens g2 = make_givens(dk, sub);
    d[ks] = g2.r;
    e[ks] = g2.c * ek + g2.s * dk1;
    d[ks + 1] = -g2.s * ek + g2.c * dk1;
    rotate_cols(u, k, k + 1, g2.c, g2.s);

    if (k < h - 1) {
      bulge = g2.s * e[ks + 1];  // new bulge at (k, k+2)
      e[ks + 1] = g2.c * e[ks + 1];
      y = e[ks];
      z = bulge;
    }
  }
}

/// Runs the QR iteration to completion. Returns false if the iteration
/// budget is exhausted (caller falls back to Jacobi).
bool bidiagonal_qr(std::vector<double>& d, std::vector<double>& e, Matrix& u,
                   Matrix& v) {
  const idx n = static_cast<idx>(d.size());
  if (n <= 1) return true;
  const long long max_steps = 100LL * static_cast<long long>(n);
  long long steps = 0;

  idx h = n - 1;
  while (h > 0) {
    // Deflate negligible superdiagonal entries.
    bool deflated = false;
    for (idx i = h - 1; i >= 0; --i) {
      const auto is = static_cast<std::size_t>(i);
      if (std::abs(e[is]) <=
          kEps * (std::abs(d[is]) + std::abs(d[is + 1]))) {
        e[is] = 0.0;
        if (i == h - 1) {
          --h;
          deflated = true;
          break;
        }
      }
    }
    if (deflated) continue;
    if (h == 0) break;

    // Active block [l, h]: largest run of non-zero superdiagonals ending at h.
    idx l = h - 1;
    while (l > 0 && e[static_cast<std::size_t>(l - 1)] != 0.0) --l;

    golub_kahan_step(d, e, l, h, u, v);
    if (++steps > max_steps) return false;
  }
  return true;
}

/// Writes the sorted factors straight into `out`, reusing whatever heap
/// blocks `out` already owns (resize_for_overwrite). The value written to
/// every slot is the same one the old copy-then-adjoint code produced, so
/// results stay bitwise identical while a warm caller (the gate sweep
/// keeps one SvdResult per simulate() call) allocates nothing.
void finalize(SvdResult& out, std::vector<double>& d, Matrix& u, Matrix& v,
              std::vector<idx>& perm) {
  const idx n = static_cast<idx>(d.size());
  // Make singular values non-negative by flipping the matching U column.
  for (idx i = 0; i < n; ++i) {
    if (d[static_cast<std::size_t>(i)] < 0.0) {
      d[static_cast<std::size_t>(i)] = -d[static_cast<std::size_t>(i)];
      for (idx r = 0; r < u.rows(); ++r) u(r, i) = -u(r, i);
    }
  }
  // Sort descending, permuting U and V columns consistently.
  perm.resize(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), idx{0});
  std::sort(perm.begin(), perm.end(), [&](idx a, idx b) {
    return d[static_cast<std::size_t>(a)] > d[static_cast<std::size_t>(b)];
  });

  out.s.resize(static_cast<std::size_t>(n));
  out.u.resize_for_overwrite(u.rows(), n);
  out.vh.resize_for_overwrite(n, v.rows());
  for (idx j = 0; j < n; ++j) {
    const idx src = perm[static_cast<std::size_t>(j)];
    out.s[static_cast<std::size_t>(j)] = d[static_cast<std::size_t>(src)];
    for (idx r = 0; r < u.rows(); ++r) out.u(r, j) = u(r, src);
    // V^H row j is the conjugate of V column src — written transposed
    // directly instead of materializing V-sorted and adjointing it.
    for (idx r = 0; r < v.rows(); ++r) out.vh(j, r) = std::conj(v(r, src));
  }
}

void svd_tall_into(const Matrix& a, ExecPolicy policy, SvdResult& out,
                   SvdWorkspace& ws) {
  bidiagonalize_into(a, policy, ws.bd, ws.bidiag);

  // The QR iteration squares band entries (Wilkinson shift, bulge chase);
  // a band whose scale sits in the denormal range underflows those
  // products to zero and the iteration silently collapses every singular
  // value, while an overflow-range band squares to inf. The band is
  // scale-equivariant, so normalize it to O(1) first and scale the
  // converged singular values back. Inside the safe window rescale stays
  // exactly 1.0 and no arithmetic changes.
  double band_max = 0.0;
  for (double x : ws.bd.d) band_max = std::max(band_max, std::abs(x));
  for (double x : ws.bd.e) band_max = std::max(band_max, std::abs(x));
  double rescale = 1.0;
  if (band_max != 0.0 && (band_max < 1e-150 || band_max > 1e150)) {
    rescale = band_max;
    for (double& x : ws.bd.d) x /= rescale;
    for (double& x : ws.bd.e) x /= rescale;
  }

  if (!bidiagonal_qr(ws.bd.d, ws.bd.e, ws.bd.u, ws.bd.v)) {
    out = jacobi_svd(a);
    return;
  }
  if (rescale != 1.0)
    for (double& x : ws.bd.d) x *= rescale;
  finalize(out, ws.bd.d, ws.bd.u, ws.bd.v, ws.perm);
}

}  // namespace

SvdResult svd(const Matrix& a, ExecPolicy policy) {
  SvdWorkspace ws;
  SvdResult out;
  svd_into(a, policy, out, ws);
  return out;
}

void svd_into(const Matrix& a, ExecPolicy policy, SvdResult& out,
              SvdWorkspace& ws) {
  QKMPS_CHECK(a.rows() > 0 && a.cols() > 0);
  if (a.rows() >= a.cols()) {
    svd_tall_into(a, policy, out, ws);
    return;
  }
  // Wide matrix: decompose the adjoint and swap factors. The adjoint and
  // the tall decomposition land in workspace scratch so repeated wide
  // calls reuse the same blocks.
  ws.wide.resize_for_overwrite(a.cols(), a.rows());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j) ws.wide(j, i) = std::conj(a(i, j));
  SvdResult& t = ws.tall;
  svd_tall_into(ws.wide, policy, t, ws);
  out.s.assign(t.s.begin(), t.s.end());
  const idx k = static_cast<idx>(t.s.size());
  out.u.resize_for_overwrite(k, k);
  for (idx i = 0; i < k; ++i)
    for (idx j = 0; j < k; ++j) out.u(i, j) = std::conj(t.vh(j, i));
  out.vh.resize_for_overwrite(k, t.u.rows());
  for (idx i = 0; i < k; ++i)
    for (idx j = 0; j < t.u.rows(); ++j) out.vh(i, j) = std::conj(t.u(j, i));
}

idx truncation_rank(const std::vector<double>& s, double max_discarded_weight,
                    idx max_rank) {
  const idx n = static_cast<idx>(s.size());
  if (n == 0) return 0;
  // Walk from the tail accumulating discarded weight sum(s_i^2) until the
  // budget would be exceeded (Eq. 8): keep everything before that point.
  double discarded = 0.0;
  idx keep = n;
  while (keep > 1) {
    const double w = s[static_cast<std::size_t>(keep - 1)];
    if (discarded + w * w > max_discarded_weight) break;
    discarded += w * w;
    --keep;
  }
  if (max_rank > 0 && keep > max_rank) keep = max_rank;
  return keep;
}

void truncate_svd(SvdResult& f, idx rank) {
  QKMPS_CHECK(rank >= 1 && rank <= static_cast<idx>(f.s.size()));
  const idx m = f.u.rows();
  const idx n0 = f.u.cols();
  const idx n = f.vh.cols();
  // U keeps its first `rank` columns: compact the kept entries forward in
  // the existing storage (reads stay ahead of writes row by row), then
  // shrink the logical shape — no reallocation, values untouched.
  cplx* u = f.u.data();
  for (idx i = 0; i < m; ++i)
    for (idx j = 0; j < rank; ++j)
      u[static_cast<std::size_t>(i * rank + j)] =
          u[static_cast<std::size_t>(i * n0 + j)];
  f.u.shrink_to(m, rank);
  // V^H keeps its first `rank` rows, which are already a contiguous prefix
  // of row-major storage: shrinking the shape is the whole truncation.
  f.vh.shrink_to(rank, n);
  f.s.resize(static_cast<std::size_t>(rank));
}

}  // namespace qkmps::linalg
