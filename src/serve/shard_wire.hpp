#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
/// Payloads are encoded with util/binary_io.hpp's io::Writer and decoded
/// with its io::Reader, so the wire inherits its endianness caveat: native
/// little-endian, not portable to big-endian hosts.

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
};

/// How long the worker spent on the batch that scored a reply, in
/// seconds, in the order the stages ran: the gather wait, then the
/// engine's six StageTimings stages. The router lays these out as the
/// request's worker-side trace spans (add_worker_spans, shard_worker.hpp).
struct WorkerTimings {
  double gather_seconds = 0.0;
  double scale_seconds = 0.0;
  double memo_seconds = 0.0;
  double cache_seconds = 0.0;
  double simulate_seconds = 0.0;
  double kernel_seconds = 0.0;
  double score_seconds = 0.0;
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
  /// kPrediction: the worker-side durations of the batch that scored
  /// this request (one record shared by every reply of the batch). Zero
  /// for the other kinds.
  WorkerTimings timings;
};

/// Version of the *payload* schema (fields, their order and the kind
/// bytes), checked once, at the handshake: the decoders speak exactly
/// this schema and nothing older. Independent of the frame-codec
/// version, which covers only the 20-byte header around each payload.
/// History: v2 added the ring weight and spawn generation to the hello;
/// v3 appended a trace id to the envelope and a span list to the reply;
/// v4 dropped the drain and stats kinds; v5 drops the trace ids and
/// sends the reply's worker timings as a fixed record of seven doubles.
inline constexpr std::uint16_t kShardWireVersion = 5;

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
/// unknown kind bytes, any strict prefix of a message, hostile vector
/// lengths (io::Reader bounds every read by the payload bytes left), and
/// trailing garbage all throw qkmps::Error — never a crash or a silently
/// wrong message (tests/test_shard_wire.cpp).
std::vector<std::uint8_t> encode_envelope(const ShardEnvelope& envelope);
ShardEnvelope decode_envelope(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_reply(const ShardReply& reply);
ShardReply decode_reply(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_hello(const ShardHello& hello);
ShardHello decode_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_welcome(const ShardWelcome& welcome);
ShardWelcome decode_welcome(const std::vector<std::uint8_t>& payload);

}  // namespace qkmps::serve
