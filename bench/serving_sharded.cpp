/// Sharded serving frontend benchmark: throughput / latency / admission
/// behavior of serve::ShardedEngine swept over shard counts, driven by the
/// deterministic serve::workload scenario generator (the same scenarios
/// the parity tests replay — every load shape published here is
/// reproducible byte for byte, see the scenario digests in the artifact).
///
/// Two sections:
///  1. Shard scaling: a cache-pressure uniform stream (working set larger
///     than one shard's StateCache + memo, smaller than the aggregate at
///     the top shard count) swept over shards {1, 2, 4}. Per-shard
///     resources are fixed, so sharding scales the aggregate cache as well
///     as the drain parallelism — the scale-out model where each shard is
///     a future process/node. Reports speedup vs 1 shard.
///  2. Scenario sweep: every standard workload scenario through a fixed
///     frontend with tight admission queues, arrival-paced, reporting
///     served/shed/rejected and queue depths.
///
/// Every served prediction in both sections is compared bitwise against
/// the sequential simulate_states + decision_values pipeline; any
/// mismatch makes the process exit 1 (CI runs `serving_sharded --quick`
/// as a parity smoke). Emits serving_sharded.json.
///
/// Knobs: QKMPS_SHARDED_REQUESTS, QKMPS_SHARDED_UNIQUE,
/// QKMPS_SHARDED_FEATURES, QKMPS_SHARDED_LAYERS, QKMPS_SHARDED_TRAIN,
/// QKMPS_SHARDED_CACHE (per-shard StateCache+memo entries);
/// QKMPS_FULL=1 scales everything up; --quick shrinks to a CI smoke that
/// sweeps shards {1, 2}.

#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernel/gram.hpp"
#include "serve/sharded_engine.hpp"
#include "serve/workload.hpp"
#include "svm/svm.hpp"
#include "util/timer.hpp"

using namespace qkmps;
namespace workload = qkmps::serve::workload;

namespace {

struct Setup {
  std::shared_ptr<const serve::ModelBundle> bundle;
  kernel::RealMatrix pool;  ///< raw rows the scenarios draw from
};

Setup build_setup(idx per_class, idx m, idx layers) {
  data::EllipticSyntheticParams gen;
  gen.num_points = std::max<idx>(24 * per_class, 2000);
  gen.num_features = m;
  const data::Dataset pool = data::generate_elliptic_synthetic(gen);
  Rng rng(42);
  const data::Dataset sample = data::balanced_subsample(pool, per_class, rng);
  const data::TrainTestSplit split = data::train_test_split(sample, 0.2, rng);
  const data::FeatureScaler scaler = data::FeatureScaler::fit(split.train.x);
  const auto x_train = scaler.transform(split.train.x);

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = layers, .distance = 1,
                .gamma = 0.25};
  const auto train_states = kernel::simulate_states(cfg, x_train);
  const auto k_train = kernel::gram_from_states(train_states, cfg.sim.policy);
  const auto model = svm::train_svc(k_train, split.train.y, {.c = 1.0});

  Setup s;
  s.bundle = std::make_shared<const serve::ModelBundle>(
      serve::make_bundle(cfg, scaler, model, train_states));
  s.pool = pool.x;
  return s;
}

/// Sequential reference pipeline over the scenario's unique points:
/// scale -> simulate_states -> rectangular kernel vs the resident SVs ->
/// decision_values. Entrywise the same calls the engine makes; served
/// predictions must reproduce these bits exactly.
std::vector<double> reference_values(const serve::ModelBundle& bundle,
                                     const kernel::RealMatrix& points) {
  const auto scaled = bundle.scaler.transform(points);
  const auto states = kernel::simulate_states(bundle.config, scaled);
  const auto k = kernel::cross_from_states(states, bundle.sv_states,
                                           bundle.config.sim.policy);
  return bundle.model.decision_values(k);
}

struct RunResult {
  double seconds = 0.0;
  double throughput = 0.0;  ///< served requests / second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t circuits = 0;
  std::uint64_t max_queue_depth = 0;
  double cache_hit_rate = 0.0;
  double memo_hit_rate = 0.0;
  std::uint64_t parity_mismatches = 0;
};

RunResult run_scenario(const Setup& setup,
                       const workload::Scenario& scenario,
                       const std::vector<double>& reference,
                       const serve::ShardedEngineConfig& scfg,
                       bool pace_arrivals) {
  serve::ShardedEngine engine(setup.bundle, scfg);

  std::vector<std::future<serve::RoutedPrediction>> futures;
  futures.reserve(static_cast<std::size_t>(scenario.size()));
  Timer total;
  for (idx r = 0; r < scenario.size(); ++r) {
    if (pace_arrivals) {
      const double target_us = scenario.arrival_us[static_cast<std::size_t>(r)];
      while (total.seconds() * 1e6 < target_us) std::this_thread::yield();
    }
    futures.push_back(engine.submit(scenario.request(r)));
  }

  RunResult res;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (idx r = 0; r < scenario.size(); ++r) {
    const serve::RoutedPrediction p =
        futures[static_cast<std::size_t>(r)].get();
    switch (p.status) {
      case serve::ServeStatus::kServed: {
        ++res.served;
        latencies.push_back(p.total_seconds);
        const idx u = scenario.order[static_cast<std::size_t>(r)];
        if (p.prediction.decision_value !=
            reference[static_cast<std::size_t>(u)])
          ++res.parity_mismatches;
        break;
      }
      case serve::ServeStatus::kRejected:
        ++res.rejected;
        break;
      case serve::ServeStatus::kShed:
        ++res.shed;
        break;
    }
  }
  res.seconds = total.seconds();
  res.throughput = static_cast<double>(res.served) / res.seconds;
  if (!latencies.empty()) {
    res.p50_ms = 1e3 * quantile(latencies, 0.50);
    res.p99_ms = 1e3 * quantile(latencies, 0.99);
  }
  const serve::ShardedStats st = engine.stats();
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  std::uint64_t memo_hits = 0, memo_lookups = 0;
  for (const serve::ShardStats& shard : st.shards) {
    res.circuits += shard.engine.circuits_simulated;
    cache_hits += shard.engine.cache.hits;
    cache_lookups += shard.engine.cache.hits + shard.engine.cache.misses;
    memo_hits += shard.engine.memo.hits;
    memo_lookups += shard.engine.memo.hits + shard.engine.memo.misses;
    res.max_queue_depth = std::max(res.max_queue_depth, shard.max_queue_depth);
  }
  if (cache_lookups > 0)
    res.cache_hit_rate = static_cast<double>(cache_hits) /
                         static_cast<double>(cache_lookups);
  if (memo_lookups > 0)
    res.memo_hit_rate = static_cast<double>(memo_hits) /
                        static_cast<double>(memo_lookups);
  return res;
}

void print_row(const char* label, const RunResult& r) {
  std::printf(
      "%-24s %9.0f req/s %8.2f ms %8.2f ms %6.0f%% %6.0f%% %6llu "
      "%5llu/%llu/%llu\n",
      label, r.throughput, r.p50_ms, r.p99_ms, 100.0 * r.cache_hit_rate,
      100.0 * r.memo_hit_rate, static_cast<unsigned long long>(r.circuits),
      static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.rejected));
}

std::string hex_digest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_header("serving_sharded: sharded frontend + admission control");
  const bool full = full_scale_requested();
  const idx per_class = env_int("QKMPS_SHARDED_TRAIN", full ? 100 : 24);
  const idx m = env_int("QKMPS_SHARDED_FEATURES", full ? 20 : 10);
  const idx layers = env_int("QKMPS_SHARDED_LAYERS", 4);
  const idx n_requests =
      env_int("QKMPS_SHARDED_REQUESTS", full ? 4000 : (quick ? 240 : 600));
  const idx n_unique =
      env_int("QKMPS_SHARDED_UNIQUE", full ? 512 : (quick ? 48 : 96));
  // Per-shard cache/memo sized so the scaling sweep's working set thrashes
  // one shard but fits the aggregate at the top shard count.
  const idx cache_entries =
      env_int("QKMPS_SHARDED_CACHE", std::max<idx>(4, n_unique / 4));
  const std::vector<std::size_t> shard_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4};

  std::printf("workload: %lld requests over %lld unique points, %lld-qubit "
              "r=%lld ansatz, %lld per-shard cache/memo entries\n",
              static_cast<long long>(n_requests),
              static_cast<long long>(n_unique), static_cast<long long>(m),
              static_cast<long long>(layers),
              static_cast<long long>(cache_entries));
  const Setup setup = build_setup(per_class, m, layers);
  std::printf("bundle: %lld support vectors resident (shared across shards)\n",
              static_cast<long long>(setup.bundle->num_support_vectors()));

  std::uint64_t total_mismatches = 0;

  // --- Section 1: shard scaling on the cache-pressure uniform stream. ---
  workload::ScenarioConfig pressure;
  pressure.name = "cache-pressure-uniform";
  pressure.seed = 2024;
  pressure.num_requests = n_requests;
  pressure.num_unique = n_unique;
  const workload::Scenario scaling_stream =
      workload::make_scenario(pressure, setup.pool);
  const std::vector<double> scaling_ref =
      reference_values(*setup.bundle, scaling_stream.unique_points);
  std::printf("\nscenario %s (digest %s)\n", pressure.name.c_str(),
              hex_digest(workload::scenario_digest(scaling_stream)).c_str());
  std::printf("%-24s %15s %11s %11s %7s %7s %7s %13s\n", "configuration",
              "throughput", "p50", "p99", "cache", "memo", "circ",
              "srv/shed/rej");

  std::vector<RunResult> scaling;
  for (std::size_t shards : shard_counts) {
    serve::ShardedEngineConfig scfg;
    scfg.num_shards = shards;
    scfg.admission_capacity = static_cast<std::size_t>(n_requests);  // admit all
    scfg.engine.max_batch = 16;
    scfg.engine.cache_capacity = static_cast<std::size_t>(cache_entries);
    scfg.engine.memo_capacity = static_cast<std::size_t>(cache_entries);
    scaling.push_back(run_scenario(setup, scaling_stream, scaling_ref, scfg,
                                   /*pace_arrivals=*/false));
    char label[64];
    std::snprintf(label, sizeof label, "%zu shard%s", shards,
                  shards == 1 ? "" : "s");
    print_row(label, scaling.back());
    total_mismatches += scaling.back().parity_mismatches;
  }
  const double speedup =
      scaling.back().throughput / scaling.front().throughput;
  std::printf("\n%zu shards vs 1: %.2fx throughput (per-shard resources "
              "fixed; aggregate cache scales with the shard count)\n",
              shard_counts.back(), speedup);

  // --- Section 2: every standard scenario through tight admission. ------
  std::printf("\nstandard scenarios, 2 shards, admission capacity 32, "
              "shed-oldest, arrival-paced:\n");
  std::printf("%-24s %15s %11s %11s %7s %7s %7s %13s\n", "scenario",
              "throughput", "p50", "p99", "cache", "memo", "circ",
              "srv/shed/rej");
  struct ScenarioRow {
    workload::ScenarioConfig cfg;
    std::uint64_t digest = 0;
    RunResult result;
  };
  std::vector<ScenarioRow> rows;
  for (const workload::ScenarioConfig& cfg : workload::standard_scenarios(
           quick ? n_requests / 2 : n_requests, n_unique, 7)) {
    ScenarioRow row;
    row.cfg = cfg;
    const workload::Scenario scenario =
        workload::make_scenario(cfg, setup.pool);
    row.digest = workload::scenario_digest(scenario);
    const std::vector<double> ref =
        reference_values(*setup.bundle, scenario.unique_points);
    serve::ShardedEngineConfig scfg;
    scfg.num_shards = 2;
    scfg.admission_capacity = 32;
    scfg.policy = serve::AdmissionPolicy::kShedOldest;
    scfg.engine.max_batch = 16;
    scfg.engine.cache_capacity = static_cast<std::size_t>(cache_entries);
    scfg.engine.memo_capacity = static_cast<std::size_t>(cache_entries);
    row.result = run_scenario(setup, scenario, ref, scfg,
                              /*pace_arrivals=*/true);
    print_row(cfg.name.c_str(), row.result);
    total_mismatches += row.result.parity_mismatches;
    rows.push_back(std::move(row));
  }

  if (total_mismatches > 0)
    std::printf("\nPARITY FAILURE: %llu served predictions diverged from the "
                "sequential pipeline\n",
                static_cast<unsigned long long>(total_mismatches));
  else
    std::printf("\nparity: every served prediction bitwise-matches the "
                "sequential pipeline\n");

  bench::write_artifact("serving_sharded.json", [&](JsonWriter& jw) {
    jw.field("bench", "serving_sharded");
    jw.field("quick", quick);
    jw.field("requests", static_cast<long long>(n_requests));
    jw.field("unique_points", static_cast<long long>(n_unique));
    jw.field("features", static_cast<long long>(m));
    jw.field("per_shard_cache_entries", static_cast<long long>(cache_entries));
    jw.field("support_vectors",
             static_cast<long long>(setup.bundle->num_support_vectors()));
    jw.field("parity_ok", total_mismatches == 0);
    jw.begin_array("shard_scaling");
    for (std::size_t i = 0; i < shard_counts.size(); ++i) {
      const RunResult& r = scaling[i];
      jw.begin_array_object();
      jw.field("shards", static_cast<long long>(shard_counts[i]));
      jw.field("throughput_rps", r.throughput);
      jw.field("p50_ms", r.p50_ms);
      jw.field("p99_ms", r.p99_ms);
      jw.field("cache_hit_rate", r.cache_hit_rate);
      jw.field("memo_hit_rate", r.memo_hit_rate);
      jw.field("circuits", static_cast<long long>(r.circuits));
      jw.field("served", static_cast<long long>(r.served));
      jw.end_object();
    }
    jw.end_array();
    jw.field("scaling_scenario_digest",
             hex_digest(workload::scenario_digest(scaling_stream)));
    jw.field("speedup_max_shards_vs_1", speedup);
    jw.begin_array("scenarios");
    for (const ScenarioRow& row : rows) {
      const RunResult& r = row.result;
      jw.begin_array_object();
      jw.field("name", row.cfg.name);
      jw.field("digest", hex_digest(row.digest));
      jw.field("throughput_rps", r.throughput);
      jw.field("p50_ms", r.p50_ms);
      jw.field("p99_ms", r.p99_ms);
      jw.field("served", static_cast<long long>(r.served));
      jw.field("shed", static_cast<long long>(r.shed));
      jw.field("rejected", static_cast<long long>(r.rejected));
      jw.field("max_queue_depth", static_cast<long long>(r.max_queue_depth));
      jw.field("cache_hit_rate", r.cache_hit_rate);
      jw.field("memo_hit_rate", r.memo_hit_rate);
      jw.field("circuits", static_cast<long long>(r.circuits));
      jw.field("parity_mismatches",
               static_cast<long long>(r.parity_mismatches));
      jw.end_object();
    }
    jw.end_array();
  });
  return total_mismatches == 0 ? 0 : 1;
}
