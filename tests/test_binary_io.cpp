// util/binary_io.hpp: the byte codec every on-disk artifact and every
// message payload is built from. The contract under test: every read is
// bounded by the bytes left, so a corrupt length or shape can never
// over-allocate (even one whose byte count overflows 64 bits); a decode
// refuses trailing bytes; read_file refuses anything but a regular file;
// and a short write throws inside write_file, not later as a short read.

#include "util/binary_io.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace qkmps {
namespace {

// ---------------------------------------------------------------------
// Round trips.

TEST(BinaryIo, PodRoundTripPreservesBits) {
  io::Writer w;
  w.pod(std::uint64_t{0xDEADBEEFCAFEF00Dull});
  w.pod(-1.5);
  w.pod(std::int32_t{-7});
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(bytes.size(), 8u + 8 + 4);
  io::Reader r(bytes);
  EXPECT_EQ(r.pod<std::uint64_t>(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(r.pod<double>(), -1.5);
  EXPECT_EQ(r.pod<std::int32_t>(), -7);
  r.expect_end("the test message");
}

TEST(BinaryIo, VectorRoundTripIncludingEmpty) {
  io::Writer w;
  const std::vector<double> v{1.0, -0.0, 3.25};
  w.vec(v);
  w.vec(std::vector<double>{});
  w.raw(std::vector<std::int32_t>{4, 5});
  const std::vector<std::uint8_t> bytes = w.take();
  io::Reader r(bytes);
  const auto back = r.vec<double>();
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(back[i], v[i]);
  EXPECT_TRUE(r.vec<double>().empty());
  // raw() writes no length: the reader names the shape.
  EXPECT_EQ(r.left(), 2 * sizeof(std::int32_t));
  r.take(1, 2, sizeof(std::int32_t));
  r.expect_end("the test message");
}

// ---------------------------------------------------------------------
// Bounded reads.

std::vector<std::uint8_t> vector_bytes(std::int64_t claimed_len,
                                       const std::vector<double>& payload) {
  io::Writer w;
  w.pod(claimed_len);
  w.raw(payload);
  return w.take();
}

TEST(BinaryIo, TruncatedPodThrows) {
  const std::vector<std::uint8_t> bytes{'a', 'b'};
  io::Reader r(bytes);
  EXPECT_THROW(r.pod<std::uint64_t>(), Error);
}

TEST(BinaryIo, TruncatedVectorPayloadThrows) {
  // One element where four were promised.
  const std::vector<std::uint8_t> bytes = vector_bytes(4, {1.0});
  io::Reader r(bytes);
  EXPECT_THROW(r.vec<double>(), Error);
}

TEST(BinaryIo, NegativeVectorLengthThrows) {
  const std::vector<std::uint8_t> bytes = vector_bytes(-3, {1.0});
  io::Reader r(bytes);
  EXPECT_THROW(r.vec<double>(), Error);
}

TEST(BinaryIo, HugeLengthPrefixFailsBeforeAllocating) {
  // 2^60 and 2^61 doubles would be fatal allocations; the claim must die
  // as Error, not bad_alloc. 2^61 * 8 bytes also wraps 64 bits to 0.
  for (const std::int64_t huge : {std::int64_t{1} << 60, std::int64_t{1} << 61}) {
    const std::vector<std::uint8_t> bytes = vector_bytes(huge, {1.0});
    io::Reader r(bytes);
    EXPECT_THROW(r.vec<double>(), Error) << huge;
  }
}

TEST(BinaryIo, TakeRefusesShapesWhoseByteCountOverflows) {
  // rows * cols * 8 wraps to 0 in 64 bits: a bound that multiplied would
  // hand out a 2^32 x 2^32 payload backed by 8 bytes.
  const std::vector<std::uint8_t> bytes(8);
  for (const auto& [rows, cols] :
       {std::pair{std::int64_t{1} << 32, std::int64_t{1} << 32},
        std::pair{std::int64_t{1}, std::int64_t{1} << 61},
        std::pair{std::int64_t{1} << 62, std::int64_t{1} << 62}}) {
    io::Reader r(bytes);
    EXPECT_THROW(r.take(rows, cols, 8), Error) << rows << "x" << cols;
  }
  io::Reader r(bytes);
  EXPECT_THROW(r.take(-1, -8, 1), Error);
}

TEST(BinaryIo, TakeBoundIsExact) {
  const std::vector<std::uint8_t> bytes = vector_bytes(2, {1.0, 2.0});
  {
    io::Reader r(bytes);
    EXPECT_EQ(r.vec<double>().size(), 2u);
    r.expect_end("two doubles");
  }
  {
    // One byte short of the second element.
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
    io::Reader r(cut);
    EXPECT_THROW(r.vec<double>(), Error);
  }
  {
    io::Reader r(bytes);
    r.take(1, 3, sizeof(double));
    EXPECT_EQ(r.left(), 0u);
    EXPECT_THROW(r.take(1, 1, 1), Error);
    // An empty payload takes nothing, wherever the reader stands.
    r.take(0, std::int64_t{1} << 62, 8);
  }
}

TEST(BinaryIo, ExpectEndRefusesTrailingBytes) {
  std::vector<std::uint8_t> bytes = vector_bytes(1, {1.0});
  bytes.push_back(0);
  io::Reader r(bytes);
  EXPECT_EQ(r.vec<double>().size(), 1u);
  EXPECT_THROW(r.expect_end("one double"), Error);
}

// ---------------------------------------------------------------------
// Files.

class BinaryIoFile : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/qkmps_binary_io_test.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(BinaryIoFile, WriteThenReadRoundTrips) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 0, 255};
  io::write_file(path_, bytes);
  EXPECT_EQ(io::read_file(path_), bytes);
  // Rewriting truncates: no tail of the longer file survives.
  io::write_file(path_, {9});
  EXPECT_EQ(io::read_file(path_), std::vector<std::uint8_t>{9});
  io::write_file(path_, {});
  EXPECT_TRUE(io::read_file(path_).empty());
}

TEST_F(BinaryIoFile, WriteFailuresThrowAtTheWriteSite) {
  EXPECT_THROW(io::write_file(path_ + ".missing_dir/x", {1}), Error);
  // /dev/full takes the open and refuses every write with ENOSPC: the
  // stand-in for a full disk.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(io::write_file("/dev/full", std::vector<std::uint8_t>(64, 7)),
               Error);
}

TEST_F(BinaryIoFile, ReadRefusesAnythingButARegularFile) {
  EXPECT_THROW(io::read_file(path_ + ".missing"), Error);
  // A device that never ends, a directory, and a FIFO with no writer:
  // each is refused at once instead of being read forever or waited on.
  if (std::filesystem::exists("/dev/zero")) {
    EXPECT_THROW(io::read_file("/dev/zero"), Error);
  }
  EXPECT_THROW(io::read_file(::testing::TempDir()), Error);
  std::remove(path_.c_str());
  ASSERT_EQ(::mkfifo(path_.c_str(), 0600), 0);
  EXPECT_THROW(io::read_file(path_), Error);
}

}  // namespace
}  // namespace qkmps
