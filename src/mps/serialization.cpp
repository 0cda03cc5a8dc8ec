#include "mps/serialization.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

using io::read_pod;
using io::write_pod;

constexpr std::uint32_t kMpsMagic = 0x51'4B'4D'53;     // "QKMS"
constexpr std::uint32_t kKernelMagic = 0x51'4B'4B'4D;  // "QKKM"
constexpr std::uint32_t kVersion = 1;

}  // namespace

void save_mps(const Mps& psi, std::ostream& os) {
  write_pod(os, kMpsMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::int64_t>(psi.num_sites()));
  write_pod(os, static_cast<std::int64_t>(psi.center()));
  for (idx i = 0; i < psi.num_sites(); ++i) {
    const SiteTensor& t = psi.site(i);
    write_pod(os, static_cast<std::int64_t>(t.left));
    write_pod(os, static_cast<std::int64_t>(t.right));
    os.write(reinterpret_cast<const char*>(t.a.data()),
             static_cast<std::streamsize>(t.a.size() * sizeof(cplx)));
  }
  QKMPS_CHECK_MSG(os.good(), "MPS write failure");
}

Mps load_mps(std::istream& is) {
  QKMPS_CHECK_MSG(read_pod<std::uint32_t>(is) == kMpsMagic, "not an MPS file");
  QKMPS_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion,
                  "unsupported MPS file version");
  const auto sites = static_cast<idx>(read_pod<std::int64_t>(is));
  const auto center = static_cast<idx>(read_pod<std::int64_t>(is));
  QKMPS_CHECK(sites >= 1 && center >= 0 && center < sites);

  // Every allocation below is sized from header fields, so each must fit
  // in the bytes the stream still holds: a hostile header fails here as
  // qkmps::Error, before the allocator sees it. A site takes its two bond
  // fields plus left * right pairs of amplitudes (at least one pair).
  constexpr std::int64_t kBondBytes = 2 * sizeof(std::int64_t);
  constexpr std::int64_t kPairBytes = 2 * sizeof(cplx);
  std::int64_t budget = io::remaining_bytes(is);
  QKMPS_CHECK_MSG(io::fits_budget(budget, sites, 1, kBondBytes + kPairBytes),
                  "MPS header claims " << sites
                                       << " sites, more than the stream holds");

  Mps psi(sites);
  idx prev_right = 1;
  for (idx i = 0; i < sites; ++i) {
    const auto left = static_cast<idx>(read_pod<std::int64_t>(is));
    const auto right = static_cast<idx>(read_pod<std::int64_t>(is));
    QKMPS_CHECK_MSG(left == prev_right, "inconsistent bond dimensions");
    QKMPS_CHECK(left >= 1 && right >= 1);
    if (budget >= 0) budget -= kBondBytes;
    QKMPS_CHECK_MSG(io::fits_budget(budget, left, right, kPairBytes),
                    "MPS site " << i << " claims a " << left << "x2x" << right
                                << " tensor, more than the stream holds");
    SiteTensor t(left, right);
    is.read(reinterpret_cast<char*>(t.a.data()),
            static_cast<std::streamsize>(t.a.size() * sizeof(cplx)));
    QKMPS_CHECK_MSG(is.good(), "truncated MPS payload");
    // A NaN or inf amplitude loads as a valid-looking state whose every
    // overlap is NaN, and a NaN decision value scores as label -1.
    for (const cplx& amp : t.a)
      QKMPS_CHECK_MSG(std::isfinite(amp.real()) && std::isfinite(amp.imag()),
                      "MPS site " << i << " holds a non-finite amplitude");
    if (budget >= 0) budget -= left * right * kPairBytes;
    psi.site(i) = std::move(t);
    prev_right = right;
  }
  QKMPS_CHECK_MSG(prev_right == 1, "open boundary bond must close at 1");
  psi.set_center(center);
  return psi;
}

void save_mps(const Mps& psi, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  QKMPS_CHECK_MSG(os.good(), "cannot open " << path);
  save_mps(psi, os);
}

Mps load_mps(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  QKMPS_CHECK_MSG(is.good(), "cannot open " << path);
  return load_mps(is);
}

void save_kernel(const kernel::RealMatrix& k, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  QKMPS_CHECK_MSG(os.good(), "cannot open " << path);
  write_pod(os, kKernelMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::int64_t>(k.rows()));
  write_pod(os, static_cast<std::int64_t>(k.cols()));
  os.write(reinterpret_cast<const char*>(k.data()),
           static_cast<std::streamsize>(static_cast<std::size_t>(k.rows()) *
                                        static_cast<std::size_t>(k.cols()) *
                                        sizeof(double)));
  QKMPS_CHECK_MSG(os.good(), "kernel write failure");
}

kernel::RealMatrix load_kernel(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  QKMPS_CHECK_MSG(is.good(), "cannot open " << path);
  QKMPS_CHECK_MSG(read_pod<std::uint32_t>(is) == kKernelMagic,
                  "not a kernel file");
  QKMPS_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion,
                  "unsupported kernel file version");
  const auto rows = static_cast<idx>(read_pod<std::int64_t>(is));
  const auto cols = static_cast<idx>(read_pod<std::int64_t>(is));
  QKMPS_CHECK(rows >= 0 && cols >= 0);
  QKMPS_CHECK_MSG(io::fits_budget(io::remaining_bytes(is), rows, cols,
                                  sizeof(double)),
                  "kernel header claims a " << rows << "x" << cols
                                            << " matrix, more than the file "
                                               "holds");
  kernel::RealMatrix k(rows, cols);
  is.read(reinterpret_cast<char*>(k.data()),
          static_cast<std::streamsize>(static_cast<std::size_t>(rows) *
                                       static_cast<std::size_t>(cols) *
                                       sizeof(double)));
  QKMPS_CHECK_MSG(is.good(), "truncated kernel payload");
  return k;
}

}  // namespace qkmps::mps
