#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "mps/mps.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

TEST(Mps, ZeroStateAmplitudes) {
  const Mps psi(3);
  const auto v = psi.to_statevector();
  EXPECT_EQ(v[0], cplx(1.0));
  for (std::size_t i = 1; i < 8; ++i) EXPECT_EQ(v[i], cplx(0.0));
}

TEST(Mps, PlusStateIsUniform) {
  const Mps psi = Mps::plus_state(4);
  const auto v = psi.to_statevector();
  const double amp = 1.0 / 4.0;  // (1/sqrt 2)^4
  for (const auto& a : v) EXPECT_NEAR(std::abs(a - cplx(amp)), 0.0, 1e-15);
}

TEST(Mps, ProductStateFromAmplitudes) {
  const double h = 1.0 / std::sqrt(2.0);
  const Mps psi = Mps::product_state({{cplx(h), cplx(0.0, h)}, {cplx(1.0), cplx(0.0)}});
  const auto v = psi.to_statevector();
  EXPECT_NEAR(std::abs(v[0] - cplx(h)), 0.0, 1e-15);          // |00>
  EXPECT_NEAR(std::abs(v[2] - cplx(0.0, h)), 0.0, 1e-15);     // |10>
  EXPECT_NEAR(std::abs(v[1]), 0.0, 1e-15);
}

TEST(Mps, ProductStateBondsAreOne) {
  const Mps psi = Mps::plus_state(6);
  EXPECT_EQ(psi.max_bond(), 1);
  for (idx b : psi.bonds()) EXPECT_EQ(b, 1);
}

TEST(Mps, NormOfPreparedStates) {
  EXPECT_NEAR(Mps(5).norm(), 1.0, 1e-14);
  EXPECT_NEAR(Mps::plus_state(5).norm(), 1.0, 1e-14);
}

TEST(Mps, MemoryBytesOfProductState) {
  // m sites x (1 x 2 x 1) complex doubles.
  const Mps psi = Mps::plus_state(10);
  EXPECT_EQ(psi.memory_bytes(), 10u * 2u * sizeof(cplx));
}

TEST(Mps, NormalizeScalesCenterSite) {
  Mps psi = Mps::plus_state(3);
  // Double the center site: norm becomes 2.
  for (auto& v : psi.site(psi.center()).a) v *= 2.0;
  EXPECT_NEAR(psi.norm(), 2.0, 1e-13);
  psi.normalize();
  EXPECT_NEAR(psi.norm(), 1.0, 1e-13);
}

/// Fills every amplitude of psi with a distinct value: k + 0.5i for the
/// k-th amplitude of the buffer.
void number_amplitudes(Mps& psi) {
  double k = 0.0;
  for (idx i = 0; i < psi.num_sites(); ++i)
    for (cplx& v : psi.site(i).a) v = cplx(k++, 0.5);
}

TEST(SiteView, MatricizationsReadTheBufferInPlace) {
  Mps psi = Mps::from_bonds({1, 2, 3, 4, 2, 1});
  const SiteView t = std::as_const(psi).site(2);
  ASSERT_EQ(t.left, 3);
  ASSERT_EQ(t.right, 4);
  const linalg::ConstMatrixView l = t.left_matrix();
  const linalg::ConstMatrixView r = t.right_matrix();
  EXPECT_EQ(l.data, t.a.data());
  EXPECT_EQ(l.rows, 6);
  EXPECT_EQ(l.cols, 4);
  EXPECT_EQ(r.data, t.a.data());
  EXPECT_EQ(r.rows, 3);
  EXPECT_EQ(r.cols, 8);
  EXPECT_EQ(t.bytes(), 24u * sizeof(cplx));
}

TEST(SiteView, IndexingIsRowMajor) {
  Mps psi = Mps::from_bonds({1, 2, 3, 1});
  const MutableSiteView t = psi.site(1);
  t.at(1, 0, 2) = cplx(7.0);
  EXPECT_EQ(t.a[(1 * 2 + 0) * 3 + 2], cplx(7.0));
  EXPECT_EQ(std::as_const(psi).site(1).at(1, 0, 2), cplx(7.0));
}

TEST(Mps, SitesArePackedBackToBack) {
  const Mps psi = Mps::from_bonds({1, 2, 4, 3, 2, 1});
  ASSERT_EQ(psi.num_sites(), 5);
  EXPECT_EQ(psi.bonds(), (std::vector<idx>{2, 4, 3, 2}));
  EXPECT_EQ(psi.max_bond(), 4);
  std::size_t bytes = psi.site(0).bytes();
  for (idx i = 1; i < psi.num_sites(); ++i) {
    EXPECT_EQ(psi.site(i).a.data(),
              psi.site(i - 1).a.data() + psi.site(i - 1).a.size());
    EXPECT_EQ(psi.site(i).left, psi.site(i - 1).right);
    bytes += psi.site(i).bytes();
  }
  EXPECT_EQ(psi.memory_bytes(), bytes);
  for (idx i = 0; i < psi.num_sites(); ++i)
    for (const cplx& v : psi.site(i).a) EXPECT_EQ(v, cplx(0.0));
}

TEST(Mps, FromBondsRejectsAnOpenBoundaryAboveOne) {
  EXPECT_THROW(Mps::from_bonds({2, 2, 1}), Error);
  EXPECT_THROW(Mps::from_bonds({1, 2, 2}), Error);
  EXPECT_THROW(Mps::from_bonds({1}), Error);
  EXPECT_THROW(Mps::from_bonds({1, 0, 1}), Error);
}

TEST(Mps, ResizeBondSplicesOnlyThePair) {
  // Sites 0..4 with bonds 2, 4, 3, 2; resize the bond between sites 1
  // and 2 up, down and to its own size (which changes nothing).
  for (const idx chi : {6, 1, 4}) {
    SCOPED_TRACE(chi);
    Mps psi = Mps::from_bonds({1, 2, 4, 3, 2, 1});
    number_amplitudes(psi);
    const Mps before = psi;
    psi.resize_bond(1, chi);
    EXPECT_EQ(psi.bonds(), (std::vector<idx>{2, chi, 3, 2}));
    EXPECT_EQ(psi.site(1).a.size(), static_cast<std::size_t>(2 * 2 * chi));
    EXPECT_EQ(psi.site(2).a.size(), static_cast<std::size_t>(chi * 2 * 3));
    for (idx i = 1; i < psi.num_sites(); ++i)
      EXPECT_EQ(psi.site(i).a.data(),
                psi.site(i - 1).a.data() + psi.site(i - 1).a.size());
    // Sites outside the pair keep their amplitudes, wherever they moved.
    const std::vector<idx> kept =
        chi == 4 ? std::vector<idx>{0, 1, 2, 3, 4} : std::vector<idx>{0, 3, 4};
    for (const idx i : kept) {
      const SiteView was = before.site(i);
      const SiteView now = std::as_const(psi).site(i);
      ASSERT_EQ(now.a.size(), was.a.size()) << "site " << i;
      EXPECT_TRUE(std::equal(was.a.begin(), was.a.end(), now.a.begin()))
          << "site " << i;
    }
  }
}

TEST(Mps, ResizeBondRejectsBadArguments) {
  Mps psi(3);
  EXPECT_THROW(psi.resize_bond(2, 1), Error);   // no site 3
  EXPECT_THROW(psi.resize_bond(-1, 1), Error);
  EXPECT_THROW(psi.resize_bond(0, 0), Error);
}

TEST(Mps, ToStatevectorGuardsLargeSystems) {
  const Mps psi(23 > 22 ? 23 : 23);
  EXPECT_THROW(psi.to_statevector(), Error);
}

}  // namespace
}  // namespace qkmps::mps
