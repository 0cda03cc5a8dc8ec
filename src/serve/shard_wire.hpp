#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/inference_engine.hpp"

namespace qkmps::serve {

/// Wire protocol of the rank-distributed serving frontend. Everything the
/// router and the shard workers exchange travels as one of these two
/// message structs, and each struct has exactly one byte serialization
/// (encode/decode below) — the payload a parallel::SocketTransport frame
/// carries (parallel/socket_transport.hpp), whether the shard worker is a
/// thread on a socketpair or a spawned process on a TCP/Unix socket.
/// Either way the bytes, the router logic, the worker loop, and the
/// batching are identical — the transport substitution of DESIGN.md §1.
///
/// Numbers are written with the util/binary_io.hpp primitives, so the
/// wire inherits its endianness caveat: native little-endian, not
/// portable to big-endian hosts.

/// Router -> shard. A request envelope carries the raw (pre-scaling)
/// feature vector, validated once at submit(); kShutdown carries no
/// payload. These two kinds are the whole router -> shard protocol:
/// worker stats ride on every reply, and the kStopped ack of kShutdown is
/// the only barrier (links are FIFO, so it follows every owed reply).
struct ShardEnvelope {
  enum class Kind : std::uint8_t {
    kRequest,   ///< score `features`, reply kPrediction with the same id
    kShutdown,  ///< finish in-hand work, reply kStopped, exit the loop
  };
  Kind kind = Kind::kRequest;
  std::uint64_t id = 0;  ///< router-assigned, unique per engine incarnation
  std::vector<double> features;
  /// v3: the router-side trace id riding along so worker-side spans can
  /// be stitched into the request's cross-process timeline. 0 = untraced
  /// (and what a v2 envelope decodes to).
  std::uint64_t trace_id = 0;
};

/// Shard -> router.
struct ShardReply {
  enum class Kind : std::uint8_t {
    kPrediction,  ///< `prediction` is valid for request `id`
    kFailed,      ///< the batch containing `id` threw; `error` explains
    kStopped,     ///< ack of kShutdown; the shard has exited its loop
  };
  Kind kind = Kind::kPrediction;
  std::uint64_t id = 0;
  Prediction prediction;
  std::string error;
  /// kPrediction/kFailed: the worker engine's counters once the batch
  /// that produced this reply was done (one snapshot shared by every
  /// reply of the batch). The router keeps the latest per shard, which
  /// is what RankShardedEngine::stats() reports.
  EngineStats stats;
  /// v3: echo of the request envelope's trace id (0 = untraced or v2
  /// peer) plus the worker-side spans for the batch that scored this
  /// request — start_ns relative to the worker's batch start; the router
  /// re-bases them under its wire span when stitching.
  std::uint64_t trace_id = 0;
  std::vector<obs::Span> spans;
};

/// Version of the *payload* schema (fields, their order and the kind
/// bytes), negotiated at handshake. Independent of the frame-codec
/// version, which covers only the 20-byte header around each payload. v2
/// added the elastic-fleet fields (ring weight + spawn generation) to the
/// hello. v3 appended the tracing tail: trace_id on the envelope,
/// trace_id + spans on the reply. v4 dropped the drain and stats control
/// kinds, which renumbers kShutdown and kStopped, so a worker built from
/// an older tree is refused at the handshake. The decoders still accept
/// v2-length payloads (the tail defaults to "untraced") — pinned by
/// tests/test_shard_wire.cpp.
inline constexpr std::uint16_t kShardWireVersion = 4;

/// Worker -> router, first message after connect: identifies which shard
/// this process serves, what it believes the model shape is, and — since
/// v2 — which spawn generation and ring weight it was born with, so a
/// mis-spawned, stale (previous-generation), or mis-weighted worker
/// fails the handshake instead of scoring with the wrong bundle or
/// pulling the wrong share of load.
struct ShardHello {
  std::uint16_t wire_version = kShardWireVersion;
  std::uint64_t shard_index = 0;
  std::int64_t num_features = 0;
  /// Consistent-hash ring weight this worker was spawned to carry
  /// (proportional load for heterogeneous --threads budgets).
  double weight = 1.0;
  /// Spawn generation of this shard slot: 0 for the initial fleet,
  /// incremented by the engine for every respawn, so a worker from a
  /// superseded generation that connects late is refused.
  std::uint64_t generation = 0;
};

/// Router -> worker, handshake verdict. A refused worker exits instead
/// of serving; `error` says why (version skew, wrong shard, wrong model).
struct ShardWelcome {
  std::uint16_t wire_version = kShardWireVersion;
  bool accepted = false;
  std::string error;
};

/// Byte codecs. decode_* treat the payload as untrusted wire input:
/// unknown kind bytes, truncated payloads, hostile vector lengths (the
/// byte-budget read_vector overload bounds every allocation to the
/// payload size), and trailing garbage all throw qkmps::Error — never a
/// crash or a silently wrong message (tests/test_shard_wire.cpp).
std::vector<std::uint8_t> encode_envelope(const ShardEnvelope& envelope);
ShardEnvelope decode_envelope(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_reply(const ShardReply& reply);
ShardReply decode_reply(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_hello(const ShardHello& hello);
ShardHello decode_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_welcome(const ShardWelcome& welcome);
ShardWelcome decode_welcome(const std::vector<std::uint8_t>& payload);

}  // namespace qkmps::serve
