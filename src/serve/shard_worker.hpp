#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/trace.hpp"
#include "parallel/socket_transport.hpp"
#include "serve/inference_engine.hpp"
#include "serve/shard_wire.hpp"

namespace qkmps::serve {

/// The shard side of the rank-sharded serving protocol, factored out of
/// the engine so the exact same loop serves both kinds of shard worker:
/// a thread serve::RankShardedEngine starts in its own process (over one
/// end of a SocketTransport::pair) and the serving_rankd worker process
/// (over a connected SocketTransport, after the handshake below). Same
/// loop, same frame codec, same link class — the transports differ only
/// in where the worker runs, so neither can drift behaviourally from the
/// other.

struct ShardWorkerOptions {
  /// Gather bound per batch: the router's EngineConfig::max_batch, which
  /// is also the unit of its two-batch flow-control window.
  std::size_t batch_limit = 32;
  /// Test hook: abandon the loop — without sending the kStopped ack —
  /// once this many requests have been scored, simulating a worker that
  /// crashes mid-service (the socket closes when the process exits).
  /// 0 disables.
  std::size_t die_after_requests = 0;
};

/// Runs the gather->predict->reply loop until a kShutdown envelope
/// arrives (acked with kStopped) or `die_after_requests` trips. Batching
/// is opportunistic: block for the first envelope, try_recv whatever is
/// already queued up to batch_limit, score once through the engine's
/// validating predict_batch (the rows crossed a link), reply per request.
/// Every scored reply carries the batch's WorkerTimings, and every reply
/// of a batch, scored or failed, carries one engine.stats() snapshot
/// taken after the batch, so the router knows the worker's counters
/// without asking. A kShutdown is honoured after
/// the in-hand batch (FIFO: its kStopped ack follows every reply the
/// worker owes). Throws qkmps::Error if the link dies —
/// the caller owns what a dead router means (a worker process exits, a
/// worker thread returns). Returns true on a clean, kStopped-acked
/// shutdown; false when the die_after_requests hook ended the loop
/// instead (so serving_rankd can report which exit it took).
bool run_shard_worker(parallel::SocketTransport& link,
                      InferenceEngine& engine,
                      const ShardWorkerOptions& options = {});

/// The worker-side spans of a scored request, as the router stitches
/// them into its trace: gather_wait, scale, memo, cache, simulate,
/// kernel, score, in that order, with origin kWorker, laid end to end
/// from `start_ns` (the start of the router's wire span). Each duration
/// is truncated to whole nanoseconds.
void add_worker_spans(obs::TraceContext& trace, std::uint64_t start_ns,
                      const WorkerTimings& timings);

/// Worker-side handshake: sends `hello`, waits for the router's verdict.
/// Throws qkmps::Error on timeout, version skew, or refusal (carrying the
/// router's reason).
void shard_handshake_client(parallel::SocketTransport& link,
                            const ShardHello& hello,
                            std::chrono::microseconds timeout);

/// What the router requires of a connecting worker's hello: the model
/// shape, plus the one worker it expects. The engine spawns one process
/// at a time (at construction, add_shard and respawn) and must refuse
/// any other straggler (a late connection from a superseded generation,
/// a worker claiming the wrong slot, or one spawned with a stale weight).
struct ShardAcceptPolicy {
  std::int64_t num_features = 0;
  /// The hello must claim exactly this shard slot...
  std::uint64_t require_shard = 0;
  /// ...this spawn generation...
  std::uint64_t require_generation = 0;
  /// ...and this ring weight, bit for bit (the engine formats weights
  /// with full precision on the worker command line, so the round trip
  /// is exact).
  double require_weight = 1.0;
};

/// Router-side handshake: receives a hello on a freshly accepted
/// connection, validates it against `policy` (wire version, model
/// feature count, pinned slot/generation/weight), and replies with the
/// verdict. Returns the validated hello; throws
/// qkmps::Error — after sending the refusal so the worker can die loudly
/// too — when validation fails or the hello never comes.
ShardHello shard_handshake_server(parallel::SocketTransport& link,
                                  const ShardAcceptPolicy& policy,
                                  std::chrono::microseconds timeout);

}  // namespace qkmps::serve
