#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace qkmps::io {

/// Binary primitives shared by every on-disk artifact in the repo (MPS
/// states, kernel matrices, model bundles) and by the serving wire frames
/// (parallel/socket_transport.hpp, serve/shard_wire.hpp). Values are
/// written in native host byte order — little-endian on every target the
/// repo supports; the formats are not portable to big-endian hosts. Each
/// format owns its magic/version header; these helpers only move PODs and
/// flat vectors and fail loudly on short reads *and* short writes so
/// corruption surfaces as a qkmps::Error at the faulting site (a full
/// disk or closed pipe at write time, a truncated or hostile stream at
/// read time) instead of garbage tensors later.

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
  QKMPS_CHECK_MSG(os.good(),
                  "short write (" << sizeof(T) << " bytes rejected)");
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  QKMPS_CHECK_MSG(is.good(), "truncated stream");
  return v;
}

/// Length-prefixed flat vector of trivially-copyable elements.
template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(os, static_cast<std::int64_t>(v.size()));
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    QKMPS_CHECK_MSG(os.good(), "short write (vector payload of "
                                   << v.size() * sizeof(T)
                                   << " bytes rejected)");
  }
}

/// Bytes left between the read position and the end of a seekable
/// stream, or -1 when the stream is not seekable (pipes, sockets). The
/// read position is restored. Readers bound every allocation sized from a
/// header field by it (fits_budget), so a corrupt or hostile size fails
/// as qkmps::Error instead of bad_alloc or a runaway allocation.
inline std::int64_t remaining_bytes(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  // The probe seeks must not leave sticky eof/fail state behind on
  // stream types whose end-seek trips a state bit; the payload read
  // re-checks health on its own.
  is.clear();
  is.seekg(pos);
  QKMPS_CHECK_MSG(is.good(), "stream seek failed during length check");
  return end >= pos ? static_cast<std::int64_t>(end - pos) : 0;
}

/// True when a rows x cols payload of `elem_bytes`-byte elements fits in
/// `budget` bytes, checked without overflowing the product. A negative
/// budget (remaining_bytes of a non-seekable stream) admits any shape.
inline bool fits_budget(std::int64_t budget, std::int64_t rows,
                        std::int64_t cols, std::int64_t elem_bytes) {
  if (budget < 0 || rows == 0 || cols == 0) return true;
  return rows > 0 && cols > 0 && rows <= budget / elem_bytes &&
         cols <= budget / elem_bytes / rows;
}

namespace detail {
template <typename T>
std::vector<T> read_vector_payload(std::istream& is, std::int64_t n) {
  std::vector<T> v(static_cast<std::size_t>(n));
  if (n > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
    QKMPS_CHECK_MSG(is.good(), "truncated vector payload");
  }
  return v;
}
}  // namespace detail

template <typename T>
std::vector<T> read_vector(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::int64_t>(is);
  QKMPS_CHECK_MSG(n >= 0, "negative vector length");
  // Non-seekable streams get no bound here — callers reading untrusted
  // bytes from one must use the explicit byte-budget overload below.
  QKMPS_CHECK_MSG(fits_budget(remaining_bytes(is), n, 1, sizeof(T)),
                  "vector length " << n << " exceeds remaining stream size");
  return detail::read_vector_payload<T>(is, n);
}

/// Byte-budget overload for non-seekable / untrusted streams (the socket
/// wire codec): the decoded length may claim at most `max_bytes` of
/// payload, whatever the stream says about its own size. A hostile or
/// corrupt length prefix therefore fails as qkmps::Error before any
/// allocation happens — it can never over-allocate.
template <typename T>
std::vector<T> read_vector(std::istream& is, std::uint64_t max_bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::int64_t>(is);
  QKMPS_CHECK_MSG(n >= 0, "negative vector length");
  QKMPS_CHECK_MSG(
      static_cast<std::uint64_t>(n) <= max_bytes / sizeof(T),
      "vector length " << n << " exceeds the " << max_bytes
                       << "-byte budget");
  return detail::read_vector_payload<T>(is, n);
}

}  // namespace qkmps::io
