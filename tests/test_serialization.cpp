#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "circuit/ansatz.hpp"
#include "mps/inner_product.hpp"
#include "mps/serialization.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"
#include "util/binary_io.hpp"

namespace qkmps::mps {
namespace {

Mps ansatz_state(idx m, std::uint64_t seed) {
  Rng rng(seed);
  const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = 2,
                                .gamma = 0.8};
  MpsSimulator sim;
  return sim
      .simulate(circuit::feature_map_circuit(
          p, qkmps::testing::random_features(m, rng)))
      .state;
}

/// Three sites with bonds 1-2-1-1 and exactly representable amplitudes,
/// so its encoding depends on the format alone and not on how the
/// compiler contracts floating-point arithmetic.
Mps hand_built_state() {
  Mps psi(3);
  psi.resize_bond(0, 2);
  const MutableSiteView s0 = psi.site(0);
  const MutableSiteView s1 = psi.site(1);
  for (std::size_t k = 0; k < s0.a.size(); ++k)
    s0.a[k] = cplx(0.125 * static_cast<double>(k + 1), -0.5);
  for (std::size_t k = 0; k < s1.a.size(); ++k)
    s1.a[k] = cplx(-0.25, 0.0625 * static_cast<double>(k));
  psi.set_center(1);
  return psi;
}

class SerializationTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/qkmps_serialization_test.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializationTest, MpsRoundTripThroughBytes) {
  const Mps psi = ansatz_state(6, 1);
  const Mps back = load_mps(save_mps(psi));
  EXPECT_EQ(back.num_sites(), psi.num_sites());
  EXPECT_EQ(back.center(), psi.center());
  EXPECT_EQ(back.bonds(), psi.bonds());
  // Bitwise-equal amplitudes => unit overlap and equal statevectors.
  const auto va = psi.to_statevector();
  const auto vb = back.to_statevector();
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST_F(SerializationTest, MpsRoundTripThroughFile) {
  const Mps psi = ansatz_state(5, 2);
  save_mps(psi, path_);
  const Mps back = load_mps(path_);
  EXPECT_NEAR(std::abs(inner_product(psi, back)), 1.0, 1e-12);
}

TEST_F(SerializationTest, LoadedStateIsUsable) {
  // The paper's workflow: persist training states, reload for inference.
  const Mps a = ansatz_state(5, 3);
  const Mps b = ansatz_state(5, 4);
  const double expect = overlap_squared(a, b);
  save_mps(a, path_);
  const Mps a2 = load_mps(path_);
  EXPECT_NEAR(overlap_squared(a2, b), expect, 1e-14);
}

TEST_F(SerializationTest, SavedBytesArePinned) {
  // Magic, version, sites, center (24 bytes), then each site's two bonds
  // (16 bytes) and its left x 2 x right amplitudes: 64 + 64 + 32 bytes.
  // The digest is FNV-1a-64 of the encoding, unchanged since version 1.
  const std::vector<std::uint8_t> bytes = save_mps(hand_built_state());
  EXPECT_EQ(bytes.size(), 24u + 3 * 16 + 64 + 64 + 32);
  EXPECT_EQ(qkmps::testing::fnv1a64(bytes), 0xfcfb497ad7e2995aull);
  EXPECT_EQ(save_mps(load_mps(bytes)), bytes);
}

TEST_F(SerializationTest, RejectsGarbageMagic) {
  const std::string text = "definitely not an MPS file";
  io::write_file(path_, std::vector<std::uint8_t>(text.begin(), text.end()));
  EXPECT_THROW(load_mps(path_), Error);
}

TEST_F(SerializationTest, EveryStrictPrefixAndAnAppendedByteAreRefused) {
  // No cut of a saved file reads as some other state, and neither does
  // the file with one byte more.
  const std::vector<std::uint8_t> full = save_mps(hand_built_state());
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    io::write_file(path_, std::vector<std::uint8_t>(
                              full.begin(), full.begin() + static_cast<long>(keep)));
    EXPECT_THROW(load_mps(path_), Error) << "cut at " << keep;
  }
  std::vector<std::uint8_t> longer = full;
  longer.push_back(0);
  io::write_file(path_, longer);
  EXPECT_THROW(load_mps(path_), Error);
  io::write_file(path_, full);
  EXPECT_NO_THROW(load_mps(path_));
}

// Hostile headers: each encoding below claims an allocation far larger
// than its payload. load_mps must reject it as qkmps::Error before
// allocating — not with std::bad_alloc, and not after reserving gigabytes.
io::Writer mps_header(std::int64_t sites, std::int64_t center) {
  io::Writer w;
  w.pod(std::uint32_t{0x51'4B'4D'53});  // "QKMS"
  w.pod(std::uint32_t{1});
  w.pod(sites);
  w.pod(center);
  return w;
}

TEST_F(SerializationTest, RejectsHugeSiteCount) {
  io::Writer w = mps_header(std::int64_t{1} << 40, 0);
  w.pod(std::int64_t{1});
  w.pod(std::int64_t{1});
  w.pod(cplx(1.0));
  w.pod(cplx(0.0));
  EXPECT_THROW(load_mps(w.take()), Error);
}

TEST_F(SerializationTest, RejectsHugeBondDimension) {
  // A huge right bond on the first site, with a payload of one amplitude.
  io::Writer right = mps_header(1, 0);
  right.pod(std::int64_t{1});
  right.pod(std::int64_t{1} << 40);
  right.pod(cplx(1.0));
  EXPECT_THROW(load_mps(right.take()), Error);

  // A huge left bond on a later site (matching the previous site's
  // right bond, so it passes the consistency check), and a bond pair whose
  // element count overflows 64 bits.
  for (const auto& [l, r] :
       {std::make_pair(std::int64_t{1} << 40, std::int64_t{1}),
        std::make_pair(std::int64_t{1} << 62, std::int64_t{1} << 62)}) {
    io::Writer left = mps_header(2, 0);
    left.pod(std::int64_t{1});
    left.pod(l);
    left.pod(cplx(1.0));
    left.pod(cplx(0.0));
    left.pod(l);
    left.pod(r);
    EXPECT_THROW(load_mps(left.take()), Error) << "left=" << l << " right=" << r;
  }
}

TEST_F(SerializationTest, RejectsNonFiniteAmplitudes) {
  // Overwrite the real part (NaN) or the imaginary part (+inf) of the
  // last amplitude of a valid state: the load must name the site.
  const std::vector<std::uint8_t> good = save_mps(ansatz_state(5, 8));
  const std::pair<std::size_t, double> corruptions[] = {
      {good.size() - sizeof(cplx), std::numeric_limits<double>::quiet_NaN()},
      {good.size() - sizeof(double), std::numeric_limits<double>::infinity()}};
  for (const auto& [offset, value] : corruptions) {
    std::vector<std::uint8_t> bad = good;
    std::memcpy(bad.data() + offset, &value, sizeof(value));
    try {
      load_mps(bad);
      ADD_FAILURE() << "loaded a state holding " << value;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("site 4"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(SerializationTest, MissingFileThrows) {
  EXPECT_THROW(load_mps(path_ + ".missing"), Error);
}

}  // namespace
}  // namespace qkmps::mps
