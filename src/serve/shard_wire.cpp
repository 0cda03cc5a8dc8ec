#include "serve/shard_wire.hpp"

#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qkmps::serve {

namespace {

/// Hello/welcome payloads open with their own magic so a stray frame
/// (or a non-handshake message) can't be mistaken for a handshake.
constexpr std::uint32_t kHelloMagic = 0x53484B51u;    // "QKHS"
constexpr std::uint32_t kWelcomeMagic = 0x57484B51u;  // "QKHW"

void write_string(io::Writer& w, const std::string& s) {
  w.vec(std::vector<char>(s.begin(), s.end()));
}

std::string read_string(io::Reader& r) {
  const std::vector<char> chars = r.vec<char>();
  return std::string(chars.begin(), chars.end());
}

void write_lru_stats(io::Writer& w, const LruStats& s) {
  w.pod(s.hits);
  w.pod(s.misses);
  w.pod(s.evictions);
  w.pod(s.insertions);
}

LruStats read_lru_stats(io::Reader& r) {
  LruStats s;
  s.hits = r.pod<std::uint64_t>();
  s.misses = r.pod<std::uint64_t>();
  s.evictions = r.pod<std::uint64_t>();
  s.insertions = r.pod<std::uint64_t>();
  return s;
}

void write_worker_timings(io::Writer& w, const WorkerTimings& t) {
  w.pod(t.gather_seconds);
  w.pod(t.scale_seconds);
  w.pod(t.memo_seconds);
  w.pod(t.cache_seconds);
  w.pod(t.simulate_seconds);
  w.pod(t.kernel_seconds);
  w.pod(t.score_seconds);
}

/// A worker timing the router can turn into whole nanoseconds: NaN,
/// negative, infinite or decades-long values are hostile bytes, and
/// converting them to an integer would be undefined behaviour.
double read_seconds(io::Reader& r) {
  const double seconds = r.pod<double>();
  QKMPS_CHECK_MSG(seconds >= 0.0 && seconds < 1e9,
                  "worker timing " << seconds << " s out of range");
  return seconds;
}

WorkerTimings read_worker_timings(io::Reader& r) {
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
  io::Writer w;
  w.pod(static_cast<std::uint8_t>(envelope.kind));
  w.pod(envelope.id);
  w.vec(envelope.features);
  return w.take();
}

ShardEnvelope decode_envelope(const std::vector<std::uint8_t>& payload) {
  io::Reader r(payload);
  ShardEnvelope envelope;
  const auto kind = r.pod<std::uint8_t>();
  QKMPS_CHECK_MSG(
      kind <= static_cast<std::uint8_t>(ShardEnvelope::Kind::kShutdown),
      "unknown envelope kind byte " << static_cast<int>(kind));
  envelope.kind = static_cast<ShardEnvelope::Kind>(kind);
  envelope.id = r.pod<std::uint64_t>();
  envelope.features = r.vec<double>();
  r.expect_end("envelope");
  return envelope;
}

// ---------------------------------------------------------------------
// Reply: u8 kind | u64 id | prediction | error string | engine stats
//        | worker timings (7 x f64).
// Fixed field set for every kind — a scored reply is 191 bytes, and one
// layout means one decoder to torture instead of three.

std::vector<std::uint8_t> encode_reply(const ShardReply& reply) {
  io::Writer w;
  w.pod(static_cast<std::uint8_t>(reply.kind));
  w.pod(reply.id);
  w.pod(static_cast<std::int32_t>(reply.prediction.label));
  w.pod(reply.prediction.decision_value);
  w.pod(static_cast<std::uint8_t>(reply.prediction.cache_hit));
  w.pod(static_cast<std::uint8_t>(reply.prediction.memo_hit));
  w.pod(reply.prediction.latency_seconds);
  write_string(w, reply.error);
  w.pod(reply.stats.requests);
  w.pod(reply.stats.batches);
  w.pod(reply.stats.circuits_simulated);
  w.pod(reply.stats.max_batch_seen);
  write_lru_stats(w, reply.stats.cache);
  write_lru_stats(w, reply.stats.memo);
  write_worker_timings(w, reply.timings);
  return w.take();
}

ShardReply decode_reply(const std::vector<std::uint8_t>& payload) {
  io::Reader r(payload);
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
  reply.error = read_string(r);
  reply.stats.requests = r.pod<std::uint64_t>();
  reply.stats.batches = r.pod<std::uint64_t>();
  reply.stats.circuits_simulated = r.pod<std::uint64_t>();
  reply.stats.max_batch_seen = r.pod<std::uint64_t>();
  reply.stats.cache = read_lru_stats(r);
  reply.stats.memo = read_lru_stats(r);
  reply.timings = read_worker_timings(r);
  r.expect_end("reply");
  return reply;
}

// ---------------------------------------------------------------------
// Handshake.

std::vector<std::uint8_t> encode_hello(const ShardHello& hello) {
  io::Writer w;
  w.pod(kHelloMagic);
  w.pod(hello.wire_version);
  w.pod(hello.shard_index);
  w.pod(hello.num_features);
  w.pod(hello.weight);
  w.pod(hello.generation);
  return w.take();
}

ShardHello decode_hello(const std::vector<std::uint8_t>& payload) {
  io::Reader r(payload);
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kHelloMagic,
                  "not a shard hello message");
  ShardHello hello;
  hello.wire_version = r.pod<std::uint16_t>();
  hello.shard_index = r.pod<std::uint64_t>();
  hello.num_features = r.pod<std::int64_t>();
  hello.weight = r.pod<double>();
  hello.generation = r.pod<std::uint64_t>();
  r.expect_end("hello");
  return hello;
}

std::vector<std::uint8_t> encode_welcome(const ShardWelcome& welcome) {
  io::Writer w;
  w.pod(kWelcomeMagic);
  w.pod(welcome.wire_version);
  w.pod(static_cast<std::uint8_t>(welcome.accepted));
  write_string(w, welcome.error);
  return w.take();
}

ShardWelcome decode_welcome(const std::vector<std::uint8_t>& payload) {
  io::Reader r(payload);
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kWelcomeMagic,
                  "not a shard welcome message");
  ShardWelcome welcome;
  welcome.wire_version = r.pod<std::uint16_t>();
  welcome.accepted = r.pod<std::uint8_t>() != 0;
  welcome.error = read_string(r);
  r.expect_end("welcome");
  return welcome;
}

}  // namespace qkmps::serve
