#include "serve/shard_wire.hpp"

#include <sstream>

#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qkmps::serve {

namespace {

/// Hello/welcome payloads open with their own magic so a stray frame
/// (or a non-handshake message) can't be mistaken for a handshake.
constexpr std::uint32_t kHelloMagic = 0x53484B51u;    // "QKHS"
constexpr std::uint32_t kWelcomeMagic = 0x57484B51u;  // "QKHW"

std::vector<std::uint8_t> take_bytes(const std::ostringstream& os) {
  const std::string s = os.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Wraps untrusted payload bytes in a stream plus the byte budget the
/// vector reads must respect. An istringstream is seekable, but the
/// budget is what actually bounds a hostile length prefix: it caps the
/// allocation at the payload size *before* any vector is constructed.
struct PayloadReader {
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : is(std::string(payload.begin(), payload.end())),
        budget(payload.size()) {}

  template <typename T>
  T pod() {
    return io::read_pod<T>(is);
  }

  template <typename T>
  std::vector<T> vec() {
    return io::read_vector<T>(is, budget);
  }

  std::string str() {
    const std::vector<char> chars = vec<char>();
    return std::string(chars.begin(), chars.end());
  }

  /// Every decoder ends with this: payload bytes beyond the message are
  /// a framing bug or an attack, not slack to ignore.
  void expect_exhausted(const char* what) {
    QKMPS_CHECK_MSG(is.peek() == std::istringstream::traits_type::eof(),
                    "trailing bytes after " << what);
  }

  std::istringstream is;
  std::uint64_t budget;
};

void write_string(std::ostream& os, const std::string& s) {
  io::write_vector(os, std::vector<char>(s.begin(), s.end()));
}

void write_lru_stats(std::ostream& os, const LruStats& s) {
  io::write_pod(os, s.hits);
  io::write_pod(os, s.misses);
  io::write_pod(os, s.evictions);
  io::write_pod(os, s.insertions);
}

LruStats read_lru_stats(PayloadReader& r) {
  LruStats s;
  s.hits = r.pod<std::uint64_t>();
  s.misses = r.pod<std::uint64_t>();
  s.evictions = r.pod<std::uint64_t>();
  s.insertions = r.pod<std::uint64_t>();
  return s;
}

void write_worker_timings(std::ostream& os, const WorkerTimings& t) {
  io::write_pod(os, t.gather_seconds);
  io::write_pod(os, t.scale_seconds);
  io::write_pod(os, t.memo_seconds);
  io::write_pod(os, t.cache_seconds);
  io::write_pod(os, t.simulate_seconds);
  io::write_pod(os, t.kernel_seconds);
  io::write_pod(os, t.score_seconds);
}

/// A worker timing the router can turn into whole nanoseconds: NaN,
/// negative, infinite or decades-long values are hostile bytes, and
/// converting them to an integer would be undefined behaviour.
double read_seconds(PayloadReader& r) {
  const double seconds = r.pod<double>();
  QKMPS_CHECK_MSG(seconds >= 0.0 && seconds < 1e9,
                  "worker timing " << seconds << " s out of range");
  return seconds;
}

WorkerTimings read_worker_timings(PayloadReader& r) {
  WorkerTimings t;
  t.gather_seconds = read_seconds(r);
  t.scale_seconds = read_seconds(r);
  t.memo_seconds = read_seconds(r);
  t.cache_seconds = read_seconds(r);
  t.simulate_seconds = read_seconds(r);
  t.kernel_seconds = read_seconds(r);
  t.score_seconds = read_seconds(r);
  return t;
}

}  // namespace

// ---------------------------------------------------------------------
// Envelope: u8 kind | u64 id | vec<double> features.

std::vector<std::uint8_t> encode_envelope(const ShardEnvelope& envelope) {
  std::ostringstream os;
  io::write_pod(os, static_cast<std::uint8_t>(envelope.kind));
  io::write_pod(os, envelope.id);
  io::write_vector(os, envelope.features);
  return take_bytes(os);
}

ShardEnvelope decode_envelope(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  ShardEnvelope envelope;
  const auto kind = r.pod<std::uint8_t>();
  QKMPS_CHECK_MSG(
      kind <= static_cast<std::uint8_t>(ShardEnvelope::Kind::kShutdown),
      "unknown envelope kind byte " << static_cast<int>(kind));
  envelope.kind = static_cast<ShardEnvelope::Kind>(kind);
  envelope.id = r.pod<std::uint64_t>();
  envelope.features = r.vec<double>();
  r.expect_exhausted("envelope");
  return envelope;
}

// ---------------------------------------------------------------------
// Reply: u8 kind | u64 id | prediction | error string | engine stats
//        | worker timings (7 x f64).
// Fixed field set for every kind — a scored reply is 191 bytes, and one
// layout means one decoder to torture instead of three.

std::vector<std::uint8_t> encode_reply(const ShardReply& reply) {
  std::ostringstream os;
  io::write_pod(os, static_cast<std::uint8_t>(reply.kind));
  io::write_pod(os, reply.id);
  io::write_pod(os, static_cast<std::int32_t>(reply.prediction.label));
  io::write_pod(os, reply.prediction.decision_value);
  io::write_pod(os, static_cast<std::uint8_t>(reply.prediction.cache_hit));
  io::write_pod(os, static_cast<std::uint8_t>(reply.prediction.memo_hit));
  io::write_pod(os, reply.prediction.latency_seconds);
  write_string(os, reply.error);
  io::write_pod(os, reply.stats.requests);
  io::write_pod(os, reply.stats.batches);
  io::write_pod(os, reply.stats.circuits_simulated);
  io::write_pod(os, reply.stats.max_batch_seen);
  write_lru_stats(os, reply.stats.cache);
  write_lru_stats(os, reply.stats.memo);
  write_worker_timings(os, reply.timings);
  return take_bytes(os);
}

ShardReply decode_reply(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  ShardReply reply;
  const auto kind = r.pod<std::uint8_t>();
  QKMPS_CHECK_MSG(
      kind <= static_cast<std::uint8_t>(ShardReply::Kind::kStopped),
      "unknown reply kind byte " << static_cast<int>(kind));
  reply.kind = static_cast<ShardReply::Kind>(kind);
  reply.id = r.pod<std::uint64_t>();
  reply.prediction.label = r.pod<std::int32_t>();
  reply.prediction.decision_value = r.pod<double>();
  reply.prediction.cache_hit = r.pod<std::uint8_t>() != 0;
  reply.prediction.memo_hit = r.pod<std::uint8_t>() != 0;
  reply.prediction.latency_seconds = r.pod<double>();
  reply.error = r.str();
  reply.stats.requests = r.pod<std::uint64_t>();
  reply.stats.batches = r.pod<std::uint64_t>();
  reply.stats.circuits_simulated = r.pod<std::uint64_t>();
  reply.stats.max_batch_seen = r.pod<std::uint64_t>();
  reply.stats.cache = read_lru_stats(r);
  reply.stats.memo = read_lru_stats(r);
  reply.timings = read_worker_timings(r);
  r.expect_exhausted("reply");
  return reply;
}

// ---------------------------------------------------------------------
// Handshake.

std::vector<std::uint8_t> encode_hello(const ShardHello& hello) {
  std::ostringstream os;
  io::write_pod(os, kHelloMagic);
  io::write_pod(os, hello.wire_version);
  io::write_pod(os, hello.shard_index);
  io::write_pod(os, hello.num_features);
  io::write_pod(os, hello.weight);
  io::write_pod(os, hello.generation);
  return take_bytes(os);
}

ShardHello decode_hello(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kHelloMagic,
                  "not a shard hello message");
  ShardHello hello;
  hello.wire_version = r.pod<std::uint16_t>();
  hello.shard_index = r.pod<std::uint64_t>();
  hello.num_features = r.pod<std::int64_t>();
  hello.weight = r.pod<double>();
  hello.generation = r.pod<std::uint64_t>();
  r.expect_exhausted("hello");
  return hello;
}

std::vector<std::uint8_t> encode_welcome(const ShardWelcome& welcome) {
  std::ostringstream os;
  io::write_pod(os, kWelcomeMagic);
  io::write_pod(os, welcome.wire_version);
  io::write_pod(os, static_cast<std::uint8_t>(welcome.accepted));
  write_string(os, welcome.error);
  return take_bytes(os);
}

ShardWelcome decode_welcome(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kWelcomeMagic,
                  "not a shard welcome message");
  ShardWelcome welcome;
  welcome.wire_version = r.pod<std::uint16_t>();
  welcome.accepted = r.pod<std::uint8_t>() != 0;
  welcome.error = r.str();
  r.expect_exhausted("welcome");
  return welcome;
}

}  // namespace qkmps::serve
