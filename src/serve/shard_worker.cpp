#include "serve/shard_worker.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::serve {

namespace {

/// Poll tick while idle-waiting for the first envelope of a batch: the
/// worker stays reclaimable (a dead router surfaces as a transport error
/// on the next tick) instead of blocking forever.
constexpr std::chrono::microseconds kIdlePoll{100'000};

}  // namespace

bool run_shard_worker(parallel::SocketTransport& link,
                      InferenceEngine& engine,
                      const ShardWorkerOptions& options) {
  const std::size_t limit = std::max<std::size_t>(1, options.batch_limit);
  std::size_t scored_total = 0;

  const auto send_stopped = [&link] {
    ShardReply reply;
    reply.kind = ShardReply::Kind::kStopped;
    link.send(encode_reply(reply));
  };

  for (;;) {
    // Blocking first recv, in reclaimable ticks: a dead router surfaces
    // as a transport error from recv_for, never as a permanent block.
    ShardEnvelope first;
    for (;;) {
      if (std::optional<std::vector<std::uint8_t>> bytes =
              link.recv_for(kIdlePoll)) {
        first = decode_envelope(*bytes);
        break;
      }
    }
    if (first.kind == ShardEnvelope::Kind::kShutdown) {
      send_stopped();
      return true;
    }

    // Gather: micro-batching emerges under load exactly as in the
    // single engine — whatever envelopes are already queued join
    // the batch, up to the batch bound; an idle link means a batch of
    // one. A kShutdown ends the gather and is honoured after the batch
    // is scored (FIFO: its ack must follow our replies).
    Timer gather_timer;
    std::vector<std::uint64_t> ids{first.id};
    std::vector<std::vector<double>> rows;
    rows.push_back(std::move(first.features));
    bool shutdown = false;
    while (rows.size() < limit) {
      std::optional<std::vector<std::uint8_t>> bytes = link.try_recv();
      if (!bytes) break;
      ShardEnvelope next = decode_envelope(*bytes);
      if (next.kind == ShardEnvelope::Kind::kShutdown) {
        shutdown = true;
        break;
      }
      ids.push_back(next.id);
      rows.push_back(std::move(next.features));
    }
    const double gather_seconds = gather_timer.seconds();

    std::vector<ShardReply> replies(ids.size());
    try {
      StageTimings stages;
      const std::vector<Prediction> predictions =
          engine.predict_batch(std::move(rows), &stages);
      const WorkerTimings timings{
          gather_seconds,          stages.scale_seconds,
          stages.memo_seconds,     stages.cache_seconds,
          stages.simulate_seconds, stages.kernel_seconds,
          stages.score_seconds};
      for (std::size_t i = 0; i < ids.size(); ++i) {
        replies[i].kind = ShardReply::Kind::kPrediction;
        replies[i].prediction = predictions[i];
        replies[i].timings = timings;
      }
    } catch (const std::exception& e) {
      for (ShardReply& reply : replies) {
        reply = ShardReply{};
        reply.kind = ShardReply::Kind::kFailed;
        reply.error = e.what();
      }
    }
    const EngineStats stats = engine.stats();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      replies[i].id = ids[i];
      replies[i].stats = stats;
      link.send(encode_reply(replies[i]));
    }
    scored_total += ids.size();

    if (shutdown) {
      send_stopped();
      return true;
    }

    if (options.die_after_requests > 0 &&
        scored_total >= options.die_after_requests)
      return false;  // simulated crash: no kStopped, the link just closes
  }
}

void add_worker_spans(obs::TraceContext& trace, std::uint64_t start_ns,
                      const WorkerTimings& timings) {
  std::uint64_t at = start_ns;
  const auto add = [&](const char* name, double seconds) {
    const std::uint64_t ns =
        seconds <= 0.0 ? 0ull : static_cast<std::uint64_t>(seconds * 1e9);
    trace.add_span_ns(name, at, ns, obs::SpanOrigin::kWorker);
    at += ns;
  };
  add("gather_wait", timings.gather_seconds);
  add("scale", timings.scale_seconds);
  add("memo", timings.memo_seconds);
  add("cache", timings.cache_seconds);
  add("simulate", timings.simulate_seconds);
  add("kernel", timings.kernel_seconds);
  add("score", timings.score_seconds);
}

void shard_handshake_client(parallel::SocketTransport& link,
                            const ShardHello& hello,
                            std::chrono::microseconds timeout) {
  link.send(encode_hello(hello));
  const std::optional<std::vector<std::uint8_t>> bytes =
      link.recv_for(timeout);
  QKMPS_CHECK_MSG(bytes.has_value(), "handshake timed out awaiting welcome");
  const ShardWelcome welcome = decode_welcome(*bytes);
  QKMPS_CHECK_MSG(welcome.accepted,
                  "router refused shard " << hello.shard_index << ": "
                                          << welcome.error);
  QKMPS_CHECK_MSG(welcome.wire_version == kShardWireVersion,
                  "router speaks wire version "
                      << welcome.wire_version << ", this worker speaks "
                      << kShardWireVersion);
}

ShardHello shard_handshake_server(parallel::SocketTransport& link,
                                  const ShardAcceptPolicy& policy,
                                  std::chrono::microseconds timeout) {
  const std::optional<std::vector<std::uint8_t>> bytes =
      link.recv_for(timeout);
  QKMPS_CHECK_MSG(bytes.has_value(), "handshake timed out awaiting hello");
  const ShardHello hello = decode_hello(*bytes);

  std::ostringstream reason;
  if (hello.wire_version != kShardWireVersion)
    reason << "wire version skew: worker speaks " << hello.wire_version
           << ", router speaks " << kShardWireVersion;
  else if (hello.num_features != policy.num_features)
    reason << "model shape mismatch: worker bundle has "
           << hello.num_features << " features, router bundle has "
           << policy.num_features;
  else if (hello.shard_index != policy.require_shard)
    reason << "expected a worker for shard " << policy.require_shard
           << ", got shard " << hello.shard_index;
  else if (hello.generation != policy.require_generation)
    reason << "stale worker generation " << hello.generation
           << " for shard " << hello.shard_index << " (current is "
           << policy.require_generation << ")";
  else if (hello.weight != policy.require_weight)
    reason << "ring weight mismatch: worker spawned with " << hello.weight
           << ", router assigned " << policy.require_weight;

  ShardWelcome welcome;
  welcome.accepted = reason.str().empty();
  welcome.error = reason.str();
  link.send(encode_welcome(welcome));
  QKMPS_CHECK_MSG(welcome.accepted, "refused worker: " << welcome.error);
  return hello;
}

}  // namespace qkmps::serve
