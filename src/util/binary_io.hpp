#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace qkmps::io {

/// The one byte codec behind every on-disk artifact in the repo (MPS
/// states, model bundles) and every message payload (serve/shard_wire.hpp,
/// the Fig. 4 ring). Encoders append to a Writer; decoders read bytes
/// already in hand through a Reader, whose every read is bounded by the
/// bytes left, so a corrupt or hostile length or shape fails as
/// qkmps::Error before anything is allocated from it. Files move whole
/// through read_file and write_file. Values are in native host byte
/// order, little-endian on every target the repo supports; the formats
/// are not portable to big-endian hosts. Each format owns its magic and
/// version header; the codec only moves PODs and flat vectors.

/// Appends PODs and vectors to a byte buffer.
class Writer {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }

  /// A vector prefixed by its int64 element count (Reader::vec).
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(static_cast<std::int64_t>(v.size()));
    raw(v);
  }

  /// A vector's elements alone, for a payload whose shape the format has
  /// already written (Reader::take).
  template <typename T>
  void raw(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(v.data(), v.size() * sizeof(T));
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Reads bytes already in hand, which must outlive the Reader. Every read
/// is bounded by the bytes left.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), left_(bytes.size()) {}
  /// A temporary would be gone before the first read.
  explicit Reader(std::vector<std::uint8_t>&&) = delete;

  std::size_t left() const { return left_; }

  /// The next rows x cols elements of `elem_bytes` bytes each, in place.
  /// The bound divides instead of multiplying, so a shape whose byte
  /// count overflows 64 bits is refused like any other that overruns.
  const std::uint8_t* take(std::int64_t rows, std::int64_t cols,
                           std::size_t elem_bytes) {
    const std::uint64_t fit = left_ / elem_bytes;
    QKMPS_CHECK_MSG(
        rows >= 0 && cols >= 0 &&
            (rows == 0 || cols == 0 ||
             (static_cast<std::uint64_t>(rows) <= fit &&
              static_cast<std::uint64_t>(cols) <=
                  fit / static_cast<std::uint64_t>(rows))),
        "truncated: " << rows << "x" << cols << " elements of " << elem_bytes
                      << " bytes do not fit in the " << left_
                      << " bytes left");
    const std::size_t n = static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(cols) * elem_bytes;
    const std::uint8_t* p = data_;
    data_ += n;
    left_ -= n;
    return p;
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    std::memcpy(&v, take(1, 1, sizeof(T)), sizeof(T));
    return v;
  }

  /// A vector written by Writer::vec.
  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = pod<std::int64_t>();
    const std::uint8_t* p = take(n, 1, sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) std::memcpy(v.data(), p, v.size() * sizeof(T));
    return v;
  }

  /// Every decode ends here: bytes past the message are a framing bug or
  /// an attack, not slack to ignore.
  void expect_end(const char* what) const {
    QKMPS_CHECK_MSG(left_ == 0, left_ << " trailing bytes after " << what);
  }

 private:
  const std::uint8_t* data_;
  std::size_t left_;
};

/// The whole contents of a regular file. Anything else (a FIFO, a device
/// such as /dev/zero, a directory) is refused rather than read forever.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Creates or truncates `path` and writes `bytes` to it; a short write
/// (a full disk, say) throws here, not later as a truncated read.
void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes);

}  // namespace qkmps::io
