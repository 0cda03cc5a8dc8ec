// serve/shard_wire.hpp: the byte serialization of the shard protocol.
// Round trips must be lossless (bitwise on doubles — the determinism
// contract rides on this), and decoders must treat payloads as untrusted
// wire input: unknown kinds, every strict prefix, hostile vector lengths,
// out-of-range worker timings, and trailing garbage all throw
// qkmps::Error.

#include "serve/shard_wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "serve/shard_worker.hpp"
#include "util/error.hpp"

namespace qkmps::serve {
namespace {

TEST(ShardWire, EnvelopeRoundTripIsLossless) {
  ShardEnvelope envelope;
  envelope.kind = ShardEnvelope::Kind::kRequest;
  envelope.id = 0xFEEDFACE12345678ull;
  envelope.features = {1.5, -0.0, std::numeric_limits<double>::denorm_min(),
                       -3.25e-300, 2.0};
  const ShardEnvelope back = decode_envelope(encode_envelope(envelope));
  EXPECT_EQ(back.kind, envelope.kind);
  EXPECT_EQ(back.id, envelope.id);
  ASSERT_EQ(back.features.size(), envelope.features.size());
  for (std::size_t i = 0; i < envelope.features.size(); ++i) {
    // Bitwise, not ==: -0.0 must survive as -0.0 (the cache keys by
    // feature bits, so the wire may not canonicalize).
    EXPECT_EQ(std::signbit(back.features[i]),
              std::signbit(envelope.features[i]));
    EXPECT_EQ(back.features[i], envelope.features[i]);
  }
}

TEST(ShardWire, ControlEnvelopesRoundTrip) {
  const ShardEnvelope back = decode_envelope(
      encode_envelope(ShardEnvelope{ShardEnvelope::Kind::kShutdown, 7, {}}));
  EXPECT_EQ(back.kind, ShardEnvelope::Kind::kShutdown);
  EXPECT_EQ(back.id, 7u);
  EXPECT_TRUE(back.features.empty());
}

TEST(ShardWire, ReplyRoundTripIsLossless) {
  ShardReply reply;
  reply.kind = ShardReply::Kind::kPrediction;
  reply.id = 42;
  reply.prediction.label = -1;
  reply.prediction.decision_value = -0.12345678901234567;
  reply.prediction.cache_hit = true;
  reply.prediction.memo_hit = false;
  reply.prediction.latency_seconds = 3.5e-4;
  reply.error = "none really";
  reply.stats.requests = 9;
  reply.stats.circuits_simulated = 5;
  reply.stats.cache.hits = 4;
  reply.stats.memo.insertions = 2;
  // Seven distinct durations, so a swapped pair cannot round-trip.
  reply.timings = {1.5e-6, 2e-5, 3e-5, 4e-4, 2e-3, 6e-4, 7e-6};
  const ShardReply back = decode_reply(encode_reply(reply));
  EXPECT_EQ(back.kind, reply.kind);
  EXPECT_EQ(back.id, reply.id);
  EXPECT_EQ(back.timings.gather_seconds, reply.timings.gather_seconds);
  EXPECT_EQ(back.timings.scale_seconds, reply.timings.scale_seconds);
  EXPECT_EQ(back.timings.memo_seconds, reply.timings.memo_seconds);
  EXPECT_EQ(back.timings.cache_seconds, reply.timings.cache_seconds);
  EXPECT_EQ(back.timings.simulate_seconds, reply.timings.simulate_seconds);
  EXPECT_EQ(back.timings.kernel_seconds, reply.timings.kernel_seconds);
  EXPECT_EQ(back.timings.score_seconds, reply.timings.score_seconds);
  EXPECT_EQ(back.prediction.label, reply.prediction.label);
  EXPECT_EQ(back.prediction.decision_value, reply.prediction.decision_value);
  EXPECT_EQ(back.prediction.cache_hit, reply.prediction.cache_hit);
  EXPECT_EQ(back.prediction.memo_hit, reply.prediction.memo_hit);
  EXPECT_EQ(back.prediction.latency_seconds, reply.prediction.latency_seconds);
  EXPECT_EQ(back.error, reply.error);
  EXPECT_EQ(back.stats.requests, reply.stats.requests);
  EXPECT_EQ(back.stats.circuits_simulated, reply.stats.circuits_simulated);
  EXPECT_EQ(back.stats.cache.hits, reply.stats.cache.hits);
  EXPECT_EQ(back.stats.memo.insertions, reply.stats.memo.insertions);
}

TEST(ShardWire, HandshakeRoundTrips) {
  ShardHello hello;
  hello.shard_index = 3;
  hello.num_features = 17;
  // v2 fields: the elastic engine pins these at respawn/add time, so
  // the round trip must be bitwise (the weight rides argv as a %.17g
  // decimal and must come back identical through the wire too).
  hello.weight = 0.30000000000000004;  // not representable shorter
  hello.generation = 0xDEADBEEFCAFEF00Dull;
  const ShardHello hback = decode_hello(encode_hello(hello));
  EXPECT_EQ(hback.wire_version, kShardWireVersion);
  EXPECT_EQ(hback.shard_index, 3u);
  EXPECT_EQ(hback.num_features, 17);
  EXPECT_EQ(hback.weight, hello.weight);
  EXPECT_EQ(hback.generation, hello.generation);

  ShardWelcome welcome;
  welcome.accepted = false;
  welcome.error = "wire version skew";
  const ShardWelcome wback = decode_welcome(encode_welcome(welcome));
  EXPECT_FALSE(wback.accepted);
  EXPECT_EQ(wback.error, "wire version skew");
}

TEST(ShardWire, HelloDefaultsMatchAnUnpinnedFleet) {
  const ShardHello back = decode_hello(encode_hello(ShardHello{}));
  EXPECT_EQ(back.weight, 1.0);
  EXPECT_EQ(back.generation, 0u);
}

TEST(ShardWire, PayloadSizesArePinned) {
  // v5 is a fixed schema: an envelope is kind + id + length-prefixed
  // features, and a reply with an empty error string is 191 bytes —
  // kind (1), id (8), prediction (22), error length (8), engine stats
  // (96) and the seven worker timings (56) — whatever its kind.
  EXPECT_EQ(encode_envelope(ShardEnvelope{ShardEnvelope::Kind::kRequest, 1,
                                          {1.0, 2.0, 3.0}})
                .size(),
            1u + 8 + 8 + 3 * 8);
  ShardReply scored;
  scored.kind = ShardReply::Kind::kPrediction;
  scored.timings.simulate_seconds = 1e-3;
  EXPECT_EQ(encode_reply(scored).size(), 191u);
  EXPECT_EQ(encode_reply(ShardReply{}).size(), 191u);
}

// ---------------------------------------------------------------------
// Untrusted-input behaviour.

TEST(ShardWire, UnknownKindBytesThrow) {
  std::vector<std::uint8_t> env = encode_envelope(
      ShardEnvelope{ShardEnvelope::Kind::kRequest, 1, {1.0}});
  env[0] = 200;
  EXPECT_THROW(decode_envelope(env), Error);
  // The first byte past the last kind (a v3 peer's kShutdown) too.
  env[0] = static_cast<std::uint8_t>(ShardEnvelope::Kind::kShutdown) + 1;
  EXPECT_THROW(decode_envelope(env), Error);

  std::vector<std::uint8_t> rep = encode_reply(ShardReply{});
  rep[0] = 99;
  EXPECT_THROW(decode_reply(rep), Error);
  rep[0] = static_cast<std::uint8_t>(ShardReply::Kind::kStopped) + 1;
  EXPECT_THROW(decode_reply(rep), Error);
}

TEST(ShardWire, EveryStrictPrefixIsRefused) {
  // The handshake is the only version check, so no decoder may read a
  // shorter payload as some other message: a cut at any byte before the
  // end throws, for every message type.
  ShardReply reply;
  reply.kind = ShardReply::Kind::kPrediction;
  reply.id = 5;
  reply.prediction.decision_value = 0.5;
  reply.error = "why";
  ShardWelcome welcome;
  welcome.error = "refused";
  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
    void (*decode)(const std::vector<std::uint8_t>&);
  } messages[] = {
      {"request envelope",
       encode_envelope(
           ShardEnvelope{ShardEnvelope::Kind::kRequest, 1, {1.0, 2.0, 3.0}}),
       [](const std::vector<std::uint8_t>& b) { decode_envelope(b); }},
      {"shutdown envelope",
       encode_envelope(ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}}),
       [](const std::vector<std::uint8_t>& b) { decode_envelope(b); }},
      {"reply", encode_reply(reply),
       [](const std::vector<std::uint8_t>& b) { decode_reply(b); }},
      {"hello", encode_hello(ShardHello{}),
       [](const std::vector<std::uint8_t>& b) { decode_hello(b); }},
      {"welcome", encode_welcome(welcome),
       [](const std::vector<std::uint8_t>& b) { decode_welcome(b); }},
  };
  for (const auto& m : messages) {
    EXPECT_NO_THROW(m.decode(m.bytes)) << m.what;
    for (std::size_t keep = 0; keep < m.bytes.size(); ++keep) {
      const std::vector<std::uint8_t> cut(
          m.bytes.begin(), m.bytes.begin() + static_cast<long>(keep));
      EXPECT_THROW(m.decode(cut), Error) << m.what << " cut at " << keep;
    }
  }
}

TEST(ShardWire, OutOfRangeWorkerTimingsThrow) {
  // The router turns each timing into whole nanoseconds; a value that
  // has no such form is hostile bytes, refused at decode time.
  for (const double bad : {-1e-9, 1e9, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ShardReply reply;
    reply.timings.kernel_seconds = bad;
    EXPECT_THROW(decode_reply(encode_reply(reply)), Error) << bad;
  }
}

TEST(ShardWire, HostileFeatureLengthCannotOverAllocate) {
  // Craft an envelope whose feature-vector length prefix claims 2^59
  // elements. The decoder's byte budget (the payload size) must reject
  // it before any allocation.
  std::vector<std::uint8_t> env = encode_envelope(
      ShardEnvelope{ShardEnvelope::Kind::kRequest, 1, {1.0}});
  // Layout: u8 kind | u64 id | i64 count | payload. Overwrite count.
  const std::uint64_t huge = 1ull << 59;
  for (int b = 0; b < 8; ++b)
    env[9 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((huge >> (8 * b)) & 0xFF);
  EXPECT_THROW(decode_envelope(env), Error);
}

TEST(ShardWire, TrailingGarbageThrows) {
  std::vector<std::uint8_t> env = encode_envelope(
      ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}});
  env.push_back(0xAB);
  EXPECT_THROW(decode_envelope(env), Error);

  std::vector<std::uint8_t> rep = encode_reply(ShardReply{});
  rep.push_back(0x01);
  EXPECT_THROW(decode_reply(rep), Error);
}

TEST(ShardWire, HandshakeMagicConfusionThrows) {
  // A hello decoded as a welcome (and vice versa) must fail on magic,
  // not misparse: the two payloads are deliberately not shape-compatible.
  EXPECT_THROW(decode_welcome(encode_hello(ShardHello{})), Error);
  EXPECT_THROW(decode_hello(encode_welcome(ShardWelcome{})), Error);
  EXPECT_THROW(decode_hello(encode_envelope(
                   ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}})),
               Error);
}

TEST(ShardWire, ByteFuzzNeverCrashes) {
  // Single-byte corruption sweep over a request envelope and a scored
  // reply: every outcome is either a clean decode (some bytes are
  // don't-care equivalent, e.g. flips inside a double) or qkmps::Error.
  // Never a crash, an over-allocation, or (under UBSan) a NaN timing
  // reaching a float-to-integer conversion.
  const std::vector<std::uint8_t> env = encode_envelope(
      ShardEnvelope{ShardEnvelope::Kind::kRequest, 77, {1.0, -2.0}});
  for (std::size_t pos = 0; pos < env.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x10, 0xFF}) {
      std::vector<std::uint8_t> corrupted = env;
      corrupted[pos] ^= flip;
      try {
        const ShardEnvelope decoded = decode_envelope(corrupted);
        // A surviving decode must at least be internally consistent.
        EXPECT_LE(decoded.features.size(), corrupted.size());
      } catch (const Error&) {
        // loud failure: the desired outcome for structural corruption
      }
    }
  }
  ShardReply scored;
  scored.kind = ShardReply::Kind::kPrediction;
  scored.timings = {1e-4, 1e-5, 1e-5, 1e-4, 1e-3, 1e-3, 1e-5};
  const std::vector<std::uint8_t> rep = encode_reply(scored);
  for (std::size_t pos = 0; pos < rep.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x10, 0xFF}) {
      std::vector<std::uint8_t> corrupted = rep;
      corrupted[pos] ^= flip;
      try {
        const ShardReply decoded = decode_reply(corrupted);
        obs::TraceContext trace;
        add_worker_spans(trace, 0, decoded.timings);
        EXPECT_EQ(trace.spans.size(), 7u);
      } catch (const Error&) {
      }
    }
  }
}

}  // namespace
}  // namespace qkmps::serve
