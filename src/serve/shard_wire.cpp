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
    QKMPS_CHECK_MSG(exhausted(), "trailing bytes after " << what);
  }

  /// True when the payload has no bytes left — how the v3 decoders
  /// detect a v2-length payload (the v3 tail is strictly appended, so
  /// "exhausted exactly at the v2 boundary" identifies the old schema).
  bool exhausted() {
    return is.peek() == std::istringstream::traits_type::eof();
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

}  // namespace

// ---------------------------------------------------------------------
// Envelope: u8 kind | u64 id | vec<double> features | u64 trace_id (v3).

std::vector<std::uint8_t> encode_envelope(const ShardEnvelope& envelope) {
  std::ostringstream os;
  io::write_pod(os, static_cast<std::uint8_t>(envelope.kind));
  io::write_pod(os, envelope.id);
  io::write_vector(os, envelope.features);
  io::write_pod(os, envelope.trace_id);
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
  // A payload that ends exactly here is a v2 envelope: the trace tail
  // defaults to "untraced". Anything between the v2 boundary and a full
  // v3 tail is truncation and throws on the pod read below.
  if (!r.exhausted()) envelope.trace_id = r.pod<std::uint64_t>();
  r.expect_exhausted("envelope");
  return envelope;
}

// ---------------------------------------------------------------------
// Reply: u8 kind | u64 id | prediction | error string | engine stats
//        | u64 trace_id | u64 span_count | spans (v3).
// Each span: vec<char> name | u8 origin | u64 start_ns | u64 duration_ns.
// Fixed field set for every kind — a reply is ~150 bytes, and one layout
// means one decoder to torture instead of three.

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
  io::write_pod(os, reply.trace_id);
  io::write_pod(os, static_cast<std::uint64_t>(reply.spans.size()));
  for (const obs::Span& span : reply.spans) {
    write_string(os, span.name);
    io::write_pod(os, static_cast<std::uint8_t>(span.origin));
    io::write_pod(os, span.start_ns);
    io::write_pod(os, span.duration_ns);
  }
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
  // Exhausted exactly here: a v2 reply — untraced, no spans. A partial
  // v3 tail throws below as truncation.
  if (!r.exhausted()) {
    reply.trace_id = r.pod<std::uint64_t>();
    const std::uint64_t count = r.pod<std::uint64_t>();
    // Each span costs at least 25 payload bytes (8-byte length prefix of
    // an empty name + origin + two u64s), so the byte budget bounds a
    // hostile count before the read loop spins.
    QKMPS_CHECK_MSG(count <= r.budget / 25,
                    "hostile span count " << count << " in reply");
    reply.spans.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      obs::Span span;
      span.name = r.str();
      const auto origin = r.pod<std::uint8_t>();
      QKMPS_CHECK_MSG(
          origin <= static_cast<std::uint8_t>(obs::SpanOrigin::kWorker),
          "unknown span origin byte " << static_cast<int>(origin));
      span.origin = static_cast<obs::SpanOrigin>(origin);
      span.start_ns = r.pod<std::uint64_t>();
      span.duration_ns = r.pod<std::uint64_t>();
      reply.spans.push_back(std::move(span));
    }
  }
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
