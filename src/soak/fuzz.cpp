#include "soak/fuzz.hpp"

#include <signal.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "serve/shard_wire.hpp"
#include "util/error.hpp"

namespace qkmps::soak {

namespace {

bool bitwise_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

std::vector<double> pool_row(const kernel::RealMatrix& pool, idx row) {
  return std::vector<double>(pool.row(row), pool.row(row) + pool.cols());
}

}  // namespace

FuzzLab::FuzzLab(serve::ModelBundle bundle, kernel::RealMatrix pool,
                 std::vector<double> reference, FuzzLabConfig config)
    : bundle_(std::make_shared<const serve::ModelBundle>(std::move(bundle))),
      pool_(std::move(pool)),
      reference_(std::move(reference)),
      config_(config),
      rng_(config.seed) {
  QKMPS_CHECK_MSG(pool_.rows() > 0, "fuzz lab needs a non-empty pool");
  QKMPS_CHECK_MSG(static_cast<idx>(reference_.size()) == pool_.rows(),
                  "one reference value per pool row");
  QKMPS_CHECK_MSG(config_.worker_path.empty() == config_.bundle_dir.empty(),
                  "socket mode needs both worker_path and bundle_dir");
}

FuzzLab::~FuzzLab() = default;

FuzzLab::EngineSlot& FuzzLab::slot_for(bool post_resize, bool post_death) {
  const int key = (post_resize ? 1 : 0) | (post_death ? 2 : 0);
  auto it = slots_.find(key);
  if (it != slots_.end()) return it->second;
  QKMPS_CHECK_MSG(!post_death || supports_worker_death(),
                  "post-death states need the socket transport");

  serve::RankShardedEngineConfig cfg;
  cfg.num_shards = config_.num_shards;
  cfg.router = {serve::RouterKind::kConsistentHash, config_.virtual_nodes};
  cfg.engine.num_threads = 1;  // lab engines share the fuzz host
  if (post_death) {
    cfg.transport = serve::TransportKind::kSocket;
    cfg.socket.worker_path = config_.worker_path;
    cfg.socket.bundle_dir = config_.bundle_dir + "/slot" + std::to_string(key);
    cfg.socket.respawn = true;
    cfg.socket.respawn_backoff = std::chrono::milliseconds(50);
  }
  EngineSlot slot;
  slot.engine =
      std::make_unique<serve::RankShardedEngine>(bundle_, cfg);
  slot.seen.assign(static_cast<std::size_t>(pool_.rows()), 0);
  slot.first_seen.assign(static_cast<std::size_t>(pool_.rows()), 0.0);

  if (post_death) {
    // Kill shard 0's worker and wait for the monitor to heal the slot so
    // later checks run against a genuinely respawned fleet.
    const long victim = slot.engine->worker_pid(0);
    QKMPS_CHECK_MSG(victim > 0, "no live worker to kill for post-death state");
    ::kill(static_cast<pid_t>(victim), SIGKILL);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      const serve::RankShardedStats st = slot.engine->stats();
      if (st.shards[0].respawns >= 1 && st.shards[0].alive) break;
      QKMPS_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                      "worker respawn did not complete in 30s");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (post_resize) slot.engine->add_shard(1.0);
  return slots_.emplace(key, std::move(slot)).first->second;
}

serve::RoutedPrediction FuzzLab::submit_served(EngineSlot& slot, idx row) {
  // A respawning worker sheds its keyspace for a short window and a full
  // pending queue rejects; both are expected soak weather, so retry with a
  // bounded budget rather than failing the relation on scheduling noise.
  for (int attempt = 0; attempt < 200; ++attempt) {
    serve::RoutedPrediction r =
        slot.engine->submit(pool_row(pool_, row)).get();
    if (r.status == serve::ServeStatus::kServed) {
      if (!slot.seen[static_cast<std::size_t>(row)]) {
        slot.seen[static_cast<std::size_t>(row)] = 1;
        slot.first_seen[static_cast<std::size_t>(row)] =
            r.prediction.decision_value;
      }
      return r;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  QKMPS_CHECK_MSG(false, "request for pool row "
                             << row << " never served after 200 attempts");
  __builtin_unreachable();
}

CheckResult FuzzLab::run(const FuzzStep& step, RelationCoverageMap& map) {
  CheckResult result;
  switch (step.relation) {
    case Relation::kBitwiseParity:
      result = check_parity(step);
      break;
    case Relation::kRoutingStability:
      result = check_routing(step);
      break;
    case Relation::kResizeRetention:
      result = check_resize_retention(step);
      break;
    case Relation::kWireTorture:
      result = check_wire(step);
      break;
  }
  map.record(result.relation, result.state);
  return result;
}

CheckResult FuzzLab::check_parity(const FuzzStep& step) {
  CheckResult res;
  res.relation = Relation::kBitwiseParity;
  res.state = step.state;
  EngineSlot& slot = slot_for(step.state.post_resize, step.state.post_death);

  // Warm wants a row this engine has served before; cold wants a fresh
  // one. Scan from a random start so the fuzz run spreads over the pool.
  const idx n = pool_.rows();
  idx row = static_cast<idx>(rng_.uniform_int(static_cast<std::uint64_t>(n)));
  for (idx tries = 0; tries < n; ++tries, row = (row + 1) % n) {
    const bool seen = slot.seen[static_cast<std::size_t>(row)] != 0;
    if (seen == step.state.warm_cache) break;
  }
  if (step.state.warm_cache && !slot.seen[static_cast<std::size_t>(row)]) {
    // Nothing warm yet (or the whole pool is cold): warm this row first.
    submit_served(slot, row);
  }
  // Every row may already be warm on a long-soaked engine; a cold check
  // then degrades to warm, and the recorded state says so.
  res.state.warm_cache = slot.seen[static_cast<std::size_t>(row)] != 0;

  const serve::RoutedPrediction r = submit_served(slot, row);
  const double expect = reference_[static_cast<std::size_t>(row)];
  if (!bitwise_equal(r.prediction.decision_value, expect)) {
    std::ostringstream os;
    os << "parity broke on pool row " << row << ": engine "
       << r.prediction.decision_value << " reference " << expect;
    res.detail = os.str();
    return res;
  }
  if (res.state.warm_cache &&
      !bitwise_equal(r.prediction.decision_value,
                     slot.first_seen[static_cast<std::size_t>(row)])) {
    std::ostringstream os;
    os << "warm re-serve of pool row " << row
       << " disagrees with its first serve";
    res.detail = os.str();
    return res;
  }
  res.passed = true;
  return res;
}

CheckResult FuzzLab::check_routing(const FuzzStep& step) {
  CheckResult res;
  res.relation = Relation::kRoutingStability;
  res.state = step.state;
  EngineSlot& slot = slot_for(step.state.post_resize, step.state.post_death);

  const idx row = static_cast<idx>(
      rng_.uniform_int(static_cast<std::uint64_t>(pool_.rows())));
  const std::vector<double> x = pool_row(pool_, row);
  const int s1 = slot.engine->shard_for(x);
  const serve::RoutedPrediction r = submit_served(slot, row);
  const int s2 = slot.engine->shard_for(x);
  if (s1 != s2 || r.shard != s1) {
    std::ostringstream os;
    os << "routing moved for pool row " << row << ": shard_for " << s1
       << " then " << s2 << ", served by " << r.shard;
    res.detail = os.str();
    return res;
  }
  res.passed = true;
  return res;
}

CheckResult FuzzLab::check_resize_retention(const FuzzStep& step) {
  CheckResult res;
  res.relation = Relation::kResizeRetention;
  res.state = step.state;

  // The engine-level form grows a real fleet; past max_fleet fall back to
  // the router-level form (same ring math, no processes) so soaking this
  // cell forever cannot grow the fleet without bound.
  EngineSlot* slot = nullptr;
  if (!step.state.post_death || supports_worker_death()) {
    EngineSlot& s = slot_for(true, step.state.post_death);
    if (s.engine->num_shards() < config_.max_fleet) slot = &s;
  }

  std::vector<int> before(static_cast<std::size_t>(pool_.rows()));
  if (slot != nullptr) {
    for (idx i = 0; i < pool_.rows(); ++i)
      before[static_cast<std::size_t>(i)] =
          slot->engine->shard_for(pool_row(pool_, i));
    slot->engine->add_shard(1.0);
    const int fresh = static_cast<int>(slot->engine->num_shards()) - 1;
    for (idx i = 0; i < pool_.rows(); ++i) {
      const int after = slot->engine->shard_for(pool_row(pool_, i));
      if (after != before[static_cast<std::size_t>(i)] && after != fresh) {
        std::ostringstream os;
        os << "engine resize moved pool row " << i << " from shard "
           << before[static_cast<std::size_t>(i)] << " to " << after
           << " (not the new shard " << fresh << ")";
        res.detail = os.str();
        return res;
      }
    }
  } else {
    serve::ConsistentHashRouter router(config_.num_shards,
                                       config_.virtual_nodes);
    for (idx i = 0; i < pool_.rows(); ++i)
      before[static_cast<std::size_t>(i)] = router.shard_for(pool_row(pool_, i));
    router.add_shard(1.0);
    const int fresh = static_cast<int>(router.num_shards()) - 1;
    for (idx i = 0; i < pool_.rows(); ++i) {
      const int after = router.shard_for(pool_row(pool_, i));
      if (after != before[static_cast<std::size_t>(i)] && after != fresh) {
        std::ostringstream os;
        os << "router resize moved pool row " << i << " from shard "
           << before[static_cast<std::size_t>(i)] << " to " << after
           << " (not the new shard " << fresh << ")";
        res.detail = os.str();
        return res;
      }
    }
  }
  res.passed = true;
  return res;
}

CheckResult FuzzLab::check_wire(const FuzzStep& step) {
  CheckResult res;
  res.relation = Relation::kWireTorture;
  res.state = step.state;

  const idx row = static_cast<idx>(
      rng_.uniform_int(static_cast<std::uint64_t>(pool_.rows())));
  serve::ShardEnvelope env;
  env.kind = serve::ShardEnvelope::Kind::kRequest;
  env.id = rng_.next();
  env.features = pool_row(pool_, row);

  const std::vector<std::uint8_t> bytes = serve::encode_envelope(env);
  const auto fail = [&](const std::string& what) {
    res.detail = what;
    return res;
  };

  serve::ShardEnvelope back;
  try {
    back = serve::decode_envelope(bytes);
  } catch (const std::exception& e) {
    return fail(std::string("envelope round-trip threw: ") + e.what());
  }
  if (back.id != env.id || back.features != env.features)
    return fail("envelope round-trip mangled a field");

  // Torture proper: a cut anywhere in [1, size - 1] and a hostile kind
  // byte must throw, never crash or succeed.
  const std::size_t keep =
      1 + rng_.uniform_int(static_cast<std::uint64_t>(bytes.size() - 1));
  const std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + static_cast<long>(keep));
  try {
    serve::decode_envelope(cut);
    return fail("truncated envelope decoded without error");
  } catch (const std::exception&) {
  }
  std::vector<std::uint8_t> hostile = bytes;
  hostile[0] = 0xFF;
  try {
    serve::decode_envelope(hostile);
    return fail("hostile kind byte decoded without error");
  } catch (const std::exception&) {
  }

  res.passed = true;
  return res;
}

}  // namespace qkmps::soak
