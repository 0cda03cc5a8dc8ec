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

/// Worker-side spans for one scored batch: the gather wait plus the
/// engine's stage breakdown, laid end-to-end from the batch's first
/// envelope (start_ns = 0 on the worker clock; the router re-bases the
/// whole set under its wire span when stitching — obs/trace.hpp). Every
/// request in the batch shares the set, mirroring how latency_seconds is
/// batch-scoped.
std::vector<obs::Span> batch_spans(double gather_seconds,
                                   const StageTimings& t) {
  const auto ns = [](double s) {
    return s <= 0.0 ? 0ull : static_cast<std::uint64_t>(s * 1e9);
  };
  std::vector<obs::Span> spans;
  std::uint64_t at = 0;
  const auto push = [&](const char* name, double seconds) {
    obs::Span span;
    span.name = name;
    span.start_ns = at;
    span.duration_ns = ns(seconds);
    span.origin = obs::SpanOrigin::kWorker;
    at += span.duration_ns;
    spans.push_back(std::move(span));
  };
  push("gather_wait", gather_seconds);
  push("scale", t.scale_seconds);
  push("memo", t.memo_seconds);
  push("cache", t.cache_seconds);
  push("simulate", t.simulate_seconds);
  push("kernel", t.kernel_seconds);
  push("score", t.score_seconds);
  return spans;
}

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
    std::vector<std::uint64_t> trace_ids{first.trace_id};
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
      trace_ids.push_back(next.trace_id);
      rows.push_back(std::move(next.features));
    }
    const double gather_seconds = gather_timer.seconds();

    std::vector<ShardReply> replies(ids.size());
    try {
      // Trusted entry: rows were validated once at submit().
      StageTimings timings;
      const std::vector<Prediction> predictions =
          engine.predict_batch_trusted(std::move(rows), &timings);
      const std::vector<obs::Span> spans =
          batch_spans(gather_seconds, timings);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        replies[i].kind = ShardReply::Kind::kPrediction;
        replies[i].prediction = predictions[i];
        // Trace echo: only traced requests pay the span bytes. An
        // untraced envelope (trace_id 0 — e.g. from a v2 peer) gets an
        // empty span set back.
        if (trace_ids[i] != 0) replies[i].spans = spans;
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
      replies[i].trace_id = trace_ids[i];
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
  else if (hello.shard_index >= policy.num_shards)
    reason << "shard index " << hello.shard_index << " out of range (have "
           << policy.num_shards << " shards)";
  else if (hello.num_features != policy.num_features)
    reason << "model shape mismatch: worker bundle has "
           << hello.num_features << " features, router bundle has "
           << policy.num_features;
  else if (policy.require_shard && hello.shard_index != *policy.require_shard)
    reason << "expected a worker for shard " << *policy.require_shard
           << ", got shard " << hello.shard_index;
  else if (policy.require_generation &&
           hello.generation != *policy.require_generation)
    reason << "stale worker generation " << hello.generation
           << " for shard " << hello.shard_index << " (current is "
           << *policy.require_generation << ")";
  else if (policy.require_weight && hello.weight != *policy.require_weight)
    reason << "ring weight mismatch: worker spawned with " << hello.weight
           << ", router assigned " << *policy.require_weight;

  ShardWelcome welcome;
  welcome.accepted = reason.str().empty();
  welcome.error = reason.str();
  link.send(encode_welcome(welcome));
  QKMPS_CHECK_MSG(welcome.accepted, "refused worker: " << welcome.error);
  return hello;
}

}  // namespace qkmps::serve
