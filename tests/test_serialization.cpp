#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "circuit/ansatz.hpp"
#include "mps/inner_product.hpp"
#include "mps/serialization.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

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

class SerializationTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/qkmps_serialization_test.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializationTest, MpsRoundTripThroughStream) {
  const Mps psi = ansatz_state(6, 1);
  std::stringstream ss;
  save_mps(psi, ss);
  const Mps back = load_mps(ss);
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

TEST_F(SerializationTest, RejectsGarbageMagic) {
  std::ofstream os(path_, std::ios::binary);
  os << "definitely not an MPS file";
  os.close();
  EXPECT_THROW(load_mps(path_), Error);
}

TEST_F(SerializationTest, RejectsTruncatedPayload) {
  const Mps psi = ansatz_state(6, 5);
  std::stringstream ss;
  save_mps(psi, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_mps(cut), Error);
}

// Hostile headers: each stream below claims an allocation far larger
// than its payload. The loaders must reject it as qkmps::Error before
// allocating — not with std::bad_alloc, and not after reserving gigabytes.
template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::stringstream mps_header(std::int64_t sites, std::int64_t center) {
  std::stringstream ss;
  put<std::uint32_t>(ss, 0x51'4B'4D'53);  // "QKMS"
  put<std::uint32_t>(ss, 1);
  put<std::int64_t>(ss, sites);
  put<std::int64_t>(ss, center);
  return ss;
}

TEST_F(SerializationTest, RejectsHugeSiteCount) {
  std::stringstream ss = mps_header(std::int64_t{1} << 40, 0);
  put<std::int64_t>(ss, 1);
  put<std::int64_t>(ss, 1);
  put<cplx>(ss, 1.0);
  put<cplx>(ss, 0.0);
  EXPECT_THROW(load_mps(ss), Error);
}

TEST_F(SerializationTest, RejectsHugeBondDimension) {
  // A huge right bond on the first site, with a payload of one amplitude.
  std::stringstream right = mps_header(1, 0);
  put<std::int64_t>(right, 1);
  put<std::int64_t>(right, std::int64_t{1} << 40);
  put<cplx>(right, 1.0);
  EXPECT_THROW(load_mps(right), Error);

  // A huge left bond on a later site (matching the previous site's
  // right bond, so it passes the consistency check), and a bond pair whose
  // element count overflows 64 bits.
  for (const auto& [l, r] :
       {std::make_pair(std::int64_t{1} << 40, std::int64_t{1}),
        std::make_pair(std::int64_t{1} << 62, std::int64_t{1} << 62)}) {
    std::stringstream left = mps_header(2, 0);
    put<std::int64_t>(left, 1);
    put<std::int64_t>(left, l);
    put<cplx>(left, 1.0);
    put<cplx>(left, 0.0);
    put<std::int64_t>(left, l);
    put<std::int64_t>(left, r);
    EXPECT_THROW(load_mps(left), Error) << "left=" << l << " right=" << r;
  }
}

TEST_F(SerializationTest, RejectsNonFiniteAmplitudes) {
  // Overwrite the real part (NaN) or the imaginary part (+inf) of the
  // last amplitude of a valid state: the load must name the site.
  const Mps psi = ansatz_state(5, 8);
  std::stringstream ss;
  save_mps(psi, ss);
  const std::string good = ss.str();
  const std::pair<std::size_t, double> corruptions[] = {
      {good.size() - sizeof(cplx), std::numeric_limits<double>::quiet_NaN()},
      {good.size() - sizeof(double), std::numeric_limits<double>::infinity()}};
  for (const auto& [offset, value] : corruptions) {
    std::string bad = good;
    std::memcpy(bad.data() + offset, &value, sizeof(value));
    std::stringstream in(bad);
    try {
      load_mps(in);
      ADD_FAILURE() << "loaded a state holding " << value;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("site 4"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(SerializationTest, KernelRejectsOverflowingShape) {
  // rows * cols * 8 wraps to 0 in 64 bits: without an overflow-checked
  // bound this would load a 2^32 x 2^32 matrix with no storage.
  for (const auto& [rows, cols] :
       {std::make_pair(std::int64_t{1} << 32, std::int64_t{1} << 32),
        std::make_pair(std::int64_t{1}, std::int64_t{1} << 40)}) {
    {
      std::ofstream os(path_, std::ios::binary);
      put<std::uint32_t>(os, 0x51'4B'4B'4D);  // "QKKM"
      put<std::uint32_t>(os, 1);
      put<std::int64_t>(os, rows);
      put<std::int64_t>(os, cols);
      put<double>(os, 1.0);
    }
    EXPECT_THROW(load_kernel(path_), Error) << rows << "x" << cols;
  }
}

TEST_F(SerializationTest, KernelRoundTrip) {
  Rng rng(6);
  kernel::RealMatrix k(7, 5);
  for (idx i = 0; i < 7; ++i)
    for (idx j = 0; j < 5; ++j) k(i, j) = rng.normal();
  save_kernel(k, path_);
  const kernel::RealMatrix back = load_kernel(path_);
  EXPECT_EQ(back.rows(), 7);
  EXPECT_EQ(back.cols(), 5);
  EXPECT_EQ(kernel::max_abs_diff(k, back), 0.0);
}

TEST_F(SerializationTest, KernelRejectsMpsFile) {
  save_mps(ansatz_state(4, 7), path_);
  EXPECT_THROW(load_kernel(path_), Error);
}

TEST_F(SerializationTest, MissingFileThrows) {
  EXPECT_THROW(load_mps(path_ + ".missing"), Error);
  EXPECT_THROW(load_kernel(path_ + ".missing"), Error);
}

}  // namespace
}  // namespace qkmps::mps
