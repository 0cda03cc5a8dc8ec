#include "mps/mps.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mps/inner_product.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// num_sites + 1 unit bonds: a product state's shape.
std::vector<idx> unit_bonds(idx num_sites) {
  QKMPS_CHECK(num_sites >= 1);
  return std::vector<idx>(static_cast<std::size_t>(num_sites) + 1, 1);
}

std::size_t site_size(idx left, idx right) {
  return static_cast<std::size_t>(left * 2 * right);
}

}  // namespace

Mps::Mps(std::vector<idx> bonds) : bonds_(std::move(bonds)) {
  QKMPS_CHECK(bonds_.size() >= 2 && bonds_.front() == 1 && bonds_.back() == 1);
  offsets_.reserve(bonds_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i + 1 < bonds_.size(); ++i) {
    QKMPS_CHECK(bonds_[i] >= 1);
    offsets_.push_back(total);
    total += site_size(bonds_[i], bonds_[i + 1]);
  }
  offsets_.push_back(total);
  amps_.assign(total, cplx(0.0));
}

Mps::Mps(idx num_sites) : Mps(unit_bonds(num_sites)) {
  for (idx i = 0; i < num_sites; ++i) site(i).at(0, 0, 0) = 1.0;
}

Mps Mps::from_bonds(std::vector<idx> bonds) { return Mps(std::move(bonds)); }

Mps Mps::plus_state(idx num_sites) {
  Mps psi(num_sites);
  const double h = 1.0 / std::sqrt(2.0);
  for (idx i = 0; i < num_sites; ++i) {
    psi.site(i).at(0, 0, 0) = h;
    psi.site(i).at(0, 1, 0) = h;
  }
  return psi;
}

Mps Mps::product_state(const std::vector<std::array<cplx, 2>>& amps) {
  QKMPS_CHECK(!amps.empty());
  Mps psi(static_cast<idx>(amps.size()));
  for (idx i = 0; i < psi.num_sites(); ++i) {
    psi.site(i).at(0, 0, 0) = amps[static_cast<std::size_t>(i)][0];
    psi.site(i).at(0, 1, 0) = amps[static_cast<std::size_t>(i)][1];
  }
  return psi;
}

idx Mps::max_bond() const { return *std::max_element(bonds_.begin(), bonds_.end()); }

std::vector<idx> Mps::bonds() const {
  return std::vector<idx>(bonds_.begin() + 1, bonds_.end() - 1);
}

void Mps::resize_bond(idx q, idx chi) {
  QKMPS_CHECK(q >= 0 && q + 1 < num_sites() && chi >= 1);
  const auto s = static_cast<std::size_t>(q);
  if (bonds_[s + 1] == chi) return;
  // Sites q and q+1 fill amps_[begin, end); their new shapes fill `size`.
  const std::size_t begin = offsets_[s], end = offsets_[s + 2];
  const std::size_t left_size = site_size(bonds_[s], chi);
  const std::size_t size = left_size + site_size(chi, bonds_[s + 2]);
  if (size > end - begin)
    amps_.insert(amps_.begin() + static_cast<std::ptrdiff_t>(end),
                 size - (end - begin), cplx(0.0));
  else
    amps_.erase(amps_.begin() + static_cast<std::ptrdiff_t>(begin + size),
                amps_.begin() + static_cast<std::ptrdiff_t>(end));
  bonds_[s + 1] = chi;
  offsets_[s + 1] = begin + left_size;
  for (std::size_t j = s + 2; j < offsets_.size(); ++j)
    offsets_[j] = offsets_[j] - end + (begin + size);
}

double Mps::norm(linalg::ExecPolicy policy) const {
  const cplx overlap = inner_product(*this, *this, policy);
  return std::sqrt(std::abs(overlap.real()));
}

void Mps::normalize(linalg::ExecPolicy policy) {
  const double n = norm(policy);
  QKMPS_CHECK_MSG(n > 0.0, "cannot normalize the zero state");
  // Scale the center site only, keeping canonical sites orthonormal.
  const cplx scale = 1.0 / n;
  for (cplx& v : site(center_).a) v *= scale;
}

std::vector<cplx> Mps::to_statevector() const {
  const idx m = num_sites();
  QKMPS_CHECK_MSG(m <= 22, "to_statevector limited to 22 sites");
  // Left-fold: amp block of shape (2^k, chi_k) after absorbing k sites.
  const SiteView first = site(0);
  std::vector<cplx> block(first.a.begin(), first.a.end());
  idx rows = 2, chi = first.right;
  for (idx i = 1; i < m; ++i) {
    const SiteView s = site(i);
    QKMPS_CHECK(s.left == chi);
    std::vector<cplx> next(static_cast<std::size_t>(rows * 2 * s.right), cplx(0.0));
    for (idx rblk = 0; rblk < rows; ++rblk)
      for (idx l = 0; l < chi; ++l) {
        const cplx b = block[static_cast<std::size_t>(rblk * chi + l)];
        if (b == cplx(0.0)) continue;
        for (idx ph = 0; ph < 2; ++ph)
          for (idx r = 0; r < s.right; ++r)
            next[static_cast<std::size_t>((rblk * 2 + ph) * s.right + r)] +=
                b * s.at(l, ph, r);
      }
    block = std::move(next);
    rows *= 2;
    chi = s.right;
  }
  QKMPS_CHECK(chi == 1);
  return block;
}

}  // namespace qkmps::mps
