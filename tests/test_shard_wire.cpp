// serve/shard_wire.hpp: the byte serialization of the shard protocol.
// Round trips must be lossless (bitwise on doubles — the determinism
// contract rides on this), and decoders must treat payloads as untrusted
// wire input: unknown kinds, truncation, hostile vector lengths, and
// trailing garbage all throw qkmps::Error.

#include "serve/shard_wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace qkmps::serve {
namespace {

TEST(ShardWire, EnvelopeRoundTripIsLossless) {
  ShardEnvelope envelope;
  envelope.kind = ShardEnvelope::Kind::kRequest;
  envelope.id = 0xFEEDFACE12345678ull;
  envelope.features = {1.5, -0.0, std::numeric_limits<double>::denorm_min(),
                       -3.25e-300, 2.0};
  envelope.trace_id = 0xABCDEF0123456789ull;  // wire v3 tail
  const ShardEnvelope back = decode_envelope(encode_envelope(envelope));
  EXPECT_EQ(back.kind, envelope.kind);
  EXPECT_EQ(back.id, envelope.id);
  EXPECT_EQ(back.trace_id, envelope.trace_id);
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
  reply.trace_id = 0x1122334455667788ull;  // wire v3 tail
  reply.spans = {
      {"gather_wait", 0, 1500, obs::SpanOrigin::kWorker},
      {"simulate", 1500, 2'000'000, obs::SpanOrigin::kWorker},
      {"", 2'001'500, 0, obs::SpanOrigin::kRouter},  // empty name survives
  };
  const ShardReply back = decode_reply(encode_reply(reply));
  EXPECT_EQ(back.kind, reply.kind);
  EXPECT_EQ(back.id, reply.id);
  EXPECT_EQ(back.trace_id, reply.trace_id);
  ASSERT_EQ(back.spans.size(), reply.spans.size());
  for (std::size_t i = 0; i < reply.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name, reply.spans[i].name);
    EXPECT_EQ(back.spans[i].start_ns, reply.spans[i].start_ns);
    EXPECT_EQ(back.spans[i].duration_ns, reply.spans[i].duration_ns);
    EXPECT_EQ(back.spans[i].origin, reply.spans[i].origin);
  }
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

TEST(ShardWire, TruncatedHelloThrows) {
  // The v2 fields widened the hello; every truncation point — including
  // a v1-length payload missing just weight/generation — must throw,
  // never silently default.
  const std::vector<std::uint8_t> hello = encode_hello(ShardHello{});
  for (std::size_t keep = 0; keep < hello.size(); ++keep) {
    const std::vector<std::uint8_t> cut(
        hello.begin(), hello.begin() + static_cast<long>(keep));
    EXPECT_THROW(decode_hello(cut), Error) << "hello cut at " << keep;
  }
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

TEST(ShardWire, TruncatedPayloadsThrowEverywhere) {
  // One cut per payload is special: exactly at the v2 boundary the bytes
  // ARE a complete v2 message, and the v3 decoder accepts it (back
  // compatibility, pinned by V3DecodersAcceptV2Payloads below). The v3
  // tails are 8 bytes (envelope trace_id) and 16 bytes (reply trace_id +
  // span count); every other truncation still throws.
  const std::vector<std::uint8_t> env = encode_envelope(
      ShardEnvelope{ShardEnvelope::Kind::kRequest, 1, {1.0, 2.0, 3.0}});
  const std::size_t env_v2_size = env.size() - 8;
  for (std::size_t keep = 0; keep < env.size(); ++keep) {
    const std::vector<std::uint8_t> cut(env.begin(),
                                        env.begin() + static_cast<long>(keep));
    if (keep == env_v2_size) {
      EXPECT_NO_THROW(decode_envelope(cut)) << "v2-shaped envelope";
      continue;
    }
    EXPECT_THROW(decode_envelope(cut), Error) << "envelope cut at " << keep;
  }
  const std::vector<std::uint8_t> rep = encode_reply(ShardReply{});
  const std::size_t rep_v2_size = rep.size() - 16;
  for (std::size_t keep = 0; keep < rep.size(); ++keep) {
    const std::vector<std::uint8_t> cut(rep.begin(),
                                        rep.begin() + static_cast<long>(keep));
    if (keep == rep_v2_size) {
      EXPECT_NO_THROW(decode_reply(cut)) << "v2-shaped reply";
      continue;
    }
    EXPECT_THROW(decode_reply(cut), Error) << "reply cut at " << keep;
  }
}

TEST(ShardWire, V3DecodersAcceptV2Payloads) {
  // A v2 peer's bytes are exactly our encoding minus the appended trace
  // tail. The v3 decoder must accept them, defaulting trace_id = 0
  // (untraced) and no spans — with every v2 field intact.
  ShardEnvelope envelope;
  envelope.kind = ShardEnvelope::Kind::kRequest;
  envelope.id = 31337;
  envelope.features = {0.25, -8.0};
  envelope.trace_id = 0x5555555555555555ull;
  std::vector<std::uint8_t> env = encode_envelope(envelope);
  env.resize(env.size() - 8);  // strip the v3 tail -> a v2 envelope
  const ShardEnvelope eback = decode_envelope(env);
  EXPECT_EQ(eback.kind, envelope.kind);
  EXPECT_EQ(eback.id, envelope.id);
  EXPECT_EQ(eback.features, envelope.features);
  EXPECT_EQ(eback.trace_id, 0u);

  ShardReply reply;
  reply.kind = ShardReply::Kind::kPrediction;
  reply.id = 31337;
  reply.prediction.label = 1;
  reply.prediction.decision_value = 0.75;
  reply.trace_id = 0x5555555555555555ull;
  reply.spans = {{"simulate", 0, 99, obs::SpanOrigin::kWorker}};
  std::vector<std::uint8_t> rep = encode_reply(reply);
  // The encoded span adds name-length prefix (8) + 8 name bytes + origin
  // (1) + start (8) + duration (8); the fixed tail is trace_id (8) +
  // count (8). Strip all of it to recover the v2 shape.
  rep.resize(rep.size() - (16 + 8 + 8 + 1 + 8 + 8));
  const ShardReply rback = decode_reply(rep);
  EXPECT_EQ(rback.kind, reply.kind);
  EXPECT_EQ(rback.id, reply.id);
  EXPECT_EQ(rback.prediction.label, reply.prediction.label);
  EXPECT_EQ(rback.prediction.decision_value, reply.prediction.decision_value);
  EXPECT_EQ(rback.trace_id, 0u);
  EXPECT_TRUE(rback.spans.empty());
}

TEST(ShardWire, HostileSpanCountCannotOverAllocate) {
  // A reply whose span-count word claims 2^56 spans must be rejected by
  // the byte budget before any allocation — the span guard mirrors the
  // feature-length guard below.
  ShardReply reply;
  reply.trace_id = 1;
  reply.spans = {{"x", 0, 0, obs::SpanOrigin::kWorker}};
  std::vector<std::uint8_t> rep = encode_reply(reply);
  // The count is the 8 bytes right after the 8-byte trace_id, which sit
  // right after the v2 body; the single span's encoding follows it.
  const std::size_t span_bytes = 8 + 1 + 1 + 8 + 8;  // len+name+origin+2*u64
  const std::size_t count_at = rep.size() - span_bytes - 8;
  const std::uint64_t huge = 1ull << 56;
  for (int b = 0; b < 8; ++b)
    rep[count_at + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((huge >> (8 * b)) & 0xFF);
  EXPECT_THROW(decode_reply(rep), Error);
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
  // Single-byte corruption sweep over a request envelope: every outcome
  // is either a clean decode (some bytes are don't-care equivalent,
  // e.g. flips inside a double) or qkmps::Error. Never a crash or an
  // over-allocation.
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
}

}  // namespace
}  // namespace qkmps::serve
