#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace qkmps::mps {

/// One MPS site tensor with shape (left bond, physical = 2, right bond),
/// read in place: `a` spans the site's amplitudes inside the owning Mps's
/// buffer, row-major a[(l * 2 + s) * right + r]. T is cplx for a view that
/// writes (from a non-const Mps) and const cplx for one that reads. A view
/// dangles once the buffer moves (Mps::resize_bond, Mps::shrink_to_fit) or
/// the state is destroyed.
template <typename T>
struct BasicSiteView {
  idx left = 1;
  idx right = 1;
  std::span<T> a;

  T& at(idx l, idx s, idx r) const {
    return a[static_cast<std::size_t>((l * 2 + s) * right + r)];
  }

  /// The same amplitudes as a (2*left) x right matrix (rows group left and
  /// physical) or a left x (2*right) matrix (columns group physical and
  /// right): row-major storage makes both free reshapes.
  linalg::BasicMatrixView<T> left_matrix() const { return {a.data(), left * 2, right}; }
  linalg::BasicMatrixView<T> right_matrix() const { return {a.data(), left, 2 * right}; }

  /// Overwrites the amplitudes with m's, which must hold as many: a
  /// factor written back over the site it came from.
  void assign(const linalg::Matrix& m) const {
    QKMPS_CHECK(a.size() == static_cast<std::size_t>(m.size()));
    std::copy(m.data(), m.data() + m.size(), a.begin());
  }

  std::size_t bytes() const { return a.size_bytes(); }
};
using SiteView = BasicSiteView<const cplx>;
using MutableSiteView = BasicSiteView<cplx>;

/// Matrix Product State on a linear chain of qubits (Sec. II-B). Maintains
/// a mixed-canonical form: sites left of `center()` are left-orthonormal,
/// sites right of it are right-orthonormal. That invariant is exactly what
/// makes per-bond SVD truncation globally optimal (the paper's
/// "canonicalization is applied before each SVD truncation").
///
/// Storage: every site's amplitudes sit back to back in one buffer, site
/// 0 first, beside the num_sites + 1 bond dimensions and the offset of
/// each site in the buffer. site(i) is a view into the buffer. Changing a
/// bond splices the buffer (resize_bond); copies and the states that
/// simulate() and load_mps() return hold no spare capacity.
class Mps {
 public:
  /// |0...0> product state.
  explicit Mps(idx num_sites);

  /// |+>^m — the paper's initial state (Eq. 2).
  static Mps plus_state(idx num_sites);
  /// Product state from per-site 2-vectors.
  static Mps product_state(const std::vector<std::array<cplx, 2>>& amps);
  /// The state with these bond dimensions (num_sites + 1 of them, 1 at
  /// both ends) and every amplitude zero: a shape for the caller to fill.
  static Mps from_bonds(std::vector<idx> bonds);

  idx num_sites() const { return static_cast<idx>(bonds_.size()) - 1; }
  SiteView site(idx i) const {
    const auto s = static_cast<std::size_t>(i);
    return {bonds_[s], bonds_[s + 1],
            {amps_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]}};
  }
  MutableSiteView site(idx i) {
    const auto s = static_cast<std::size_t>(i);
    return {bonds_[s], bonds_[s + 1],
            {amps_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]}};
  }

  idx center() const { return center_; }
  void set_center(idx c) { center_ = c; }

  /// Bond dimension between sites i and i+1.
  idx bond(idx i) const { return bonds_[static_cast<std::size_t>(i) + 1]; }
  /// Largest virtual bond dimension — the chi that drives the O(m chi^3)
  /// costs (Table I reports its average over data points).
  idx max_bond() const;
  std::vector<idx> bonds() const;

  /// Sets the bond between sites q and q+1 to chi. When its size changes
  /// the buffer is spliced: the pair's storage grows or shrinks in place
  /// and every later site moves. The amplitudes of sites q and q+1 are
  /// unspecified afterwards; the caller writes both (a gate's SVD factors,
  /// a centre move's QR factors).
  void resize_bond(idx q, idx chi);

  /// Frees the spare capacity that splices leave in the buffer, so the
  /// heap holds the amplitudes exactly.
  void shrink_to_fit() { amps_.shrink_to_fit(); }

  /// Amplitude payload in bytes, num_sites x 2 x left x right complex
  /// doubles summed over the sites: the quantity plotted in Fig. 6 and
  /// tabulated ("Memory per MPS") in Table I. The heap holds it in one
  /// buffer, plus 16 bytes a site for the bond dimensions and offsets.
  std::size_t memory_bytes() const { return amps_.size() * sizeof(cplx); }

  /// sqrt(<psi|psi>).
  double norm(linalg::ExecPolicy policy = linalg::ExecPolicy::Reference) const;

  /// Scales the state so norm() == 1.
  void normalize(linalg::ExecPolicy policy = linalg::ExecPolicy::Reference);

  /// Dense amplitude vector (qubit 0 = most significant bit); exponential,
  /// test-only, guarded to small m.
  std::vector<cplx> to_statevector() const;

 private:
  explicit Mps(std::vector<idx> bonds);

  std::vector<cplx> amps_;            ///< every site's amplitudes, in site order
  std::vector<idx> bonds_;            ///< bonds_[i] is site i's left bond
  std::vector<std::size_t> offsets_;  ///< site i is amps_[offsets_[i], offsets_[i + 1])
  idx center_ = 0;
};

}  // namespace qkmps::mps
