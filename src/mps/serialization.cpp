#include "mps/serialization.hpp"

#include <cmath>
#include <cstring>

#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

constexpr std::uint32_t kMpsMagic = 0x51'4B'4D'53;  // "QKMS"
constexpr std::uint32_t kVersion = 1;

/// A site's amplitudes come in left x right pairs (the physical index),
/// after its two bond fields.
constexpr std::size_t kPairBytes = 2 * sizeof(cplx);
constexpr std::size_t kBondBytes = 2 * sizeof(std::int64_t);

}  // namespace

std::vector<std::uint8_t> save_mps(const Mps& psi) {
  io::Writer w;
  w.pod(kMpsMagic);
  w.pod(kVersion);
  w.pod(static_cast<std::int64_t>(psi.num_sites()));
  w.pod(static_cast<std::int64_t>(psi.center()));
  for (idx i = 0; i < psi.num_sites(); ++i) {
    const SiteView t = psi.site(i);
    w.pod(static_cast<std::int64_t>(t.left));
    w.pod(static_cast<std::int64_t>(t.right));
    for (const cplx& amp : t.a) w.pod(amp);
  }
  return w.take();
}

Mps load_mps(const std::vector<std::uint8_t>& bytes) {
  io::Reader r(bytes);
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kMpsMagic, "not an MPS encoding");
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kVersion,
                  "unsupported MPS format version");
  const auto sites = static_cast<idx>(r.pod<std::int64_t>());
  const auto center = static_cast<idx>(r.pod<std::int64_t>());
  QKMPS_CHECK(sites >= 1 && center >= 0 && center < sites);
  // The bonds and payload pointers are sized by the site count, so it
  // must fit in the bytes left (at least one amplitude pair a site)
  // before it is trusted.
  QKMPS_CHECK_MSG(static_cast<std::uint64_t>(sites) <=
                      r.left() / (kBondBytes + kPairBytes),
                  "MPS header claims " << sites << " sites, more than the "
                                       << r.left() << " bytes left hold");

  // Every site's shape is checked against the bytes left before the
  // state's one buffer is sized from the shapes.
  std::vector<idx> bonds;
  bonds.reserve(static_cast<std::size_t>(sites) + 1);
  bonds.push_back(1);
  std::vector<const std::uint8_t*> payloads;
  payloads.reserve(static_cast<std::size_t>(sites));
  for (idx i = 0; i < sites; ++i) {
    const auto left = static_cast<idx>(r.pod<std::int64_t>());
    const auto right = static_cast<idx>(r.pod<std::int64_t>());
    QKMPS_CHECK_MSG(left == bonds.back(), "inconsistent bond dimensions");
    QKMPS_CHECK(left >= 1 && right >= 1);
    payloads.push_back(r.take(left, right, kPairBytes));
    bonds.push_back(right);
  }
  QKMPS_CHECK_MSG(bonds.back() == 1, "open boundary bond must close at 1");
  r.expect_end("the last MPS site");

  Mps psi = Mps::from_bonds(std::move(bonds));
  for (idx i = 0; i < sites; ++i) {
    const MutableSiteView t = psi.site(i);
    std::memcpy(t.a.data(), payloads[static_cast<std::size_t>(i)], t.bytes());
    // A NaN or inf amplitude loads as a valid-looking state whose every
    // overlap is NaN, and a NaN decision value scores as label -1.
    for (const cplx& amp : t.a)
      QKMPS_CHECK_MSG(std::isfinite(amp.real()) && std::isfinite(amp.imag()),
                      "MPS site " << i << " holds a non-finite amplitude");
  }
  psi.set_center(center);
  return psi;
}

void save_mps(const Mps& psi, const std::string& path) {
  io::write_file(path, save_mps(psi));
}

Mps load_mps(const std::string& path) { return load_mps(io::read_file(path)); }

}  // namespace qkmps::mps
