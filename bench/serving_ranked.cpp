/// Sharded serving benchmark: serve::RankShardedEngine — the sharded
/// frontend whose shard workers sit at the far end of parallel::
/// SocketTransport links (see DESIGN.md) — driven by the deterministic serve::workload scenarios the parity
/// tests replay (every load shape published here is reproducible byte for
/// byte, see the scenario digests in the artifact).
///
/// Transports (--transport=inproc|socket, default inproc):
///  - inproc: shard workers are threads of the bench process, each on
///    one end of a socketpair.
///  - socket: shard workers are serving_rankd processes connected over
///    Unix-domain sockets. Both carry the same QKFR frames; the bench
///    spawns the workers itself (worker binary baked in at build time,
///    overridable with --worker=PATH); throughput/p99 against the inproc
///    numbers shows the cost of process boundaries.
///
/// Four sections:
///  1. Rank scaling (both transports): the cache-pressure uniform stream
///     swept over worker counts {1, 2, 4}, consistent-hash routing.
///     Per-shard resources fixed, so sharding scales the aggregate cache
///     as well as the drain parallelism.
///  2. Scenario sweep (both transports): every standard workload scenario
///     through 2 shards with tight admission queues (capacity 32,
///     shed-oldest), arrival-paced, reporting served/shed/rejected and
///     queue depths.
///  3. Elastic resize (both transports — over sockets this grows a live
///     worker fleet: a new serving_rankd process is spawned and
///     handshaken while the survivors keep serving): a Zipf hot-key
///     stream served at N workers, then add_shard() to N+1 and the
///     identical stream replayed — once under the consistent-hash router
///     and once under feature-hash modulo. The table reports how many
///     keys remigrated and how many circuits the replay had to
///     re-simulate: the ring keeps ~(1 - 1/(N+1)) of the StateCaches
///     warm, modulo cold-starts nearly everything. Gate, per router: the
///     cold run simulates each distinct requested key once, and the
///     replay re-simulates exactly the requested keys whose shard
///     changed (counted on the routers themselves); and the ring's
///     replay re-simulates fewer circuits than modulo's. These counts
///     are fixed by the scenario, unlike cache hit-rates, which count
///     in-batch duplicate misses and so move with batch sizes.
///  4. Self-heal (socket only): a worker is SIGKILL'd mid-stream. Every
///     in-flight future must still resolve (served or shed — zero lost),
///     the monitor must respawn the worker, and the respawned process
///     must serve again. Gate: respawn observed + zero lost futures.
///
/// Every served prediction is compared bitwise against the sequential
/// simulate_states + decision_values pipeline; any mismatch — or a
/// failed resize/self-heal gate — makes the process exit 1 (CI runs
/// `serving_ranked --quick` in both transports as parity + elasticity
/// smokes). Emits serving_ranked.json (inproc) /
/// serving_ranked_socket.json (socket).
///
/// Knobs: QKMPS_RANKED_REQUESTS, QKMPS_RANKED_UNIQUE,
/// QKMPS_RANKED_FEATURES, QKMPS_RANKED_LAYERS, QKMPS_RANKED_TRAIN,
/// QKMPS_RANKED_CACHE (per-shard StateCache entries); QKMPS_FULL=1 scales
/// everything up; --quick shrinks to a CI smoke.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernel/gram.hpp"
#include "obs/metrics.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "serve/workload.hpp"
#include "svm/svm.hpp"
#include "util/timer.hpp"

using namespace qkmps;
namespace workload = qkmps::serve::workload;

namespace {

struct Setup {
  std::shared_ptr<const serve::ModelBundle> bundle;
  kernel::RealMatrix pool;
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
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t circuits = 0;
  std::uint64_t max_queue_depth = 0;
  double cache_hit_rate = 0.0;
  double memo_hit_rate = 0.0;
  std::uint64_t parity_mismatches = 0;
  std::uint64_t untraced = 0;         ///< served with trace_id == 0
  std::uint64_t no_worker_spans = 0;  ///< served without a kWorker span
};

/// Every served latency across every scenario run, in the same units the
/// engine observes into serve.latency.total_seconds — the exact-percentile
/// side of the histogram-consistency gate.
std::vector<double> g_served_latencies;

/// Fire-and-join replay of a scenario through a ranked engine, parity-
/// checked per served prediction; `pace_arrivals` submits each request at
/// its scenario arrival time instead of all at once. `prior` subtracts an
/// earlier snapshot so resize rounds report per-round circuit/cache
/// numbers.
RunResult run_scenario(serve::RankShardedEngine& engine,
                       const workload::Scenario& scenario,
                       const std::vector<double>& reference,
                       const serve::RankShardedStats* prior = nullptr,
                       bool pace_arrivals = false) {
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
    if (p.status == serve::ServeStatus::kServed) {
      ++res.served;
      latencies.push_back(p.total_seconds);
      g_served_latencies.push_back(p.total_seconds);
      if (p.trace.trace_id == 0) ++res.untraced;
      bool worker_span = false;
      for (const obs::Span& span : p.trace.spans)
        if (span.origin == obs::SpanOrigin::kWorker) worker_span = true;
      if (!worker_span) ++res.no_worker_spans;
      const idx u = scenario.order[static_cast<std::size_t>(r)];
      if (p.prediction.decision_value !=
          reference[static_cast<std::size_t>(u)])
        ++res.parity_mismatches;
    } else if (p.status == serve::ServeStatus::kShed) {
      ++res.shed;
    } else {
      ++res.rejected;
    }
  }
  res.seconds = total.seconds();
  res.throughput = static_cast<double>(res.served) / res.seconds;
  if (!latencies.empty()) {
    res.p50_ms = 1e3 * quantile(latencies, 0.50);
    res.p99_ms = 1e3 * quantile(latencies, 0.99);
  }

  const serve::RankShardedStats st = engine.stats();
  std::uint64_t hits = 0, lookups = 0, circuits = 0;
  std::uint64_t memo_hits = 0, memo_lookups = 0;
  for (std::size_t i = 0; i < st.shards.size(); ++i) {
    hits += st.shards[i].engine.cache.hits;
    lookups += st.shards[i].engine.cache.hits +
               st.shards[i].engine.cache.misses;
    circuits += st.shards[i].engine.circuits_simulated;
    memo_hits += st.shards[i].engine.memo.hits;
    memo_lookups +=
        st.shards[i].engine.memo.hits + st.shards[i].engine.memo.misses;
    res.max_queue_depth = std::max<std::uint64_t>(
        res.max_queue_depth, st.shards[i].max_queue_depth);
  }
  if (prior != nullptr) {
    std::uint64_t prior_hits = 0, prior_lookups = 0, prior_circuits = 0;
    for (std::size_t i = 0; i < prior->shards.size(); ++i) {
      prior_hits += prior->shards[i].engine.cache.hits;
      prior_lookups += prior->shards[i].engine.cache.hits +
                       prior->shards[i].engine.cache.misses;
      prior_circuits += prior->shards[i].engine.circuits_simulated;
    }
    hits -= prior_hits;
    lookups -= prior_lookups;
    circuits -= prior_circuits;
  }
  res.circuits = circuits;
  if (lookups > 0)
    res.cache_hit_rate =
        static_cast<double>(hits) / static_cast<double>(lookups);
  if (memo_lookups > 0)
    res.memo_hit_rate =
        static_cast<double>(memo_hits) / static_cast<double>(memo_lookups);
  return res;
}

void print_row(const char* label, const RunResult& r) {
  std::printf(
      "%-26s %9.0f req/s %8.2f ms %8.2f ms %6.0f%% %6.0f%% %6llu "
      "%5llu/%llu/%llu\n",
      label, r.throughput, r.p50_ms, r.p99_ms, 100.0 * r.cache_hit_rate,
      100.0 * r.memo_hit_rate, static_cast<unsigned long long>(r.circuits),
      static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.rejected));
}

void print_table_header(const char* first_column) {
  std::printf("%-26s %15s %11s %11s %7s %7s %7s %13s\n", first_column,
              "throughput", "p50", "p99", "cache", "memo", "circ",
              "srv/shed/rej");
}

std::string hex_digest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Which of the scenario's unique keys change shard when the given router
/// grows by one — measured on the actual routers, not estimated.
std::vector<bool> moved_keys(const serve::RouterConfig& cfg,
                             std::size_t shards,
                             const workload::Scenario& scenario) {
  const auto before = serve::make_router(cfg, shards);
  const auto after = serve::make_router(cfg, shards);
  after->add_shard();
  const idx n = scenario.unique_points.rows();
  std::vector<bool> moved(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    const std::vector<double> key(
        scenario.unique_points.row(i),
        scenario.unique_points.row(i) + scenario.unique_points.cols());
    moved[static_cast<std::size_t>(i)] =
        before->shard_for(key) != after->shard_for(key);
  }
  return moved;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool socket_mode = false;
  std::string metrics_out;
  std::string worker_path =
#ifdef QKMPS_RANKD_PATH
      QKMPS_RANKD_PATH;
#else
      "";
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      const std::string kind = argv[i] + 12;
      if (kind == "socket") {
        socket_mode = true;
      } else if (kind != "inproc") {
        std::fprintf(stderr, "unknown --transport=%s (inproc|socket)\n",
                     kind.c_str());
        return 2;
      }
    } else if (std::strncmp(argv[i], "--worker=", 9) == 0) {
      worker_path = argv[i] + 9;
    }
  }
  if (socket_mode && worker_path.empty()) {
    std::fprintf(stderr,
                 "--transport=socket needs --worker=PATH (no serving_rankd "
                 "baked into this build)\n");
    return 2;
  }
  // Socket mode hands the model to the workers through the bundle format;
  // stage it in a per-process temp directory.
  const std::string bundle_dir =
      (std::filesystem::temp_directory_path() /
       ("qkmps_serving_ranked_" + std::to_string(::getpid())))
          .string();
  const auto configure_transport = [&](serve::RankShardedEngineConfig& rcfg) {
    if (!socket_mode) return;
    rcfg.transport = serve::TransportKind::kSocket;
    rcfg.socket.worker_path = worker_path;
    rcfg.socket.bundle_dir = bundle_dir;
  };

  bench::print_header(socket_mode
                          ? "serving_ranked: rank-distributed sharded "
                            "frontend over socket workers (serving_rankd)"
                          : "serving_ranked: rank-distributed sharded "
                            "frontend over in-process worker threads");
  const bool full = full_scale_requested();
  const idx per_class = env_int("QKMPS_RANKED_TRAIN", full ? 100 : 24);
  const idx m = env_int("QKMPS_RANKED_FEATURES", full ? 20 : 10);
  const idx layers = env_int("QKMPS_RANKED_LAYERS", 4);
  const idx n_requests =
      env_int("QKMPS_RANKED_REQUESTS", full ? 4000 : (quick ? 240 : 600));
  const idx n_unique =
      env_int("QKMPS_RANKED_UNIQUE", full ? 512 : (quick ? 48 : 96));
  const idx cache_entries =
      env_int("QKMPS_RANKED_CACHE", std::max<idx>(4, n_unique / 4));
  const std::vector<std::size_t> rank_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4};

  std::printf("workload: %lld requests over %lld unique points, %lld-qubit "
              "r=%lld ansatz, %lld per-shard cache entries\n",
              static_cast<long long>(n_requests),
              static_cast<long long>(n_unique), static_cast<long long>(m),
              static_cast<long long>(layers),
              static_cast<long long>(cache_entries));
  const Setup setup = build_setup(per_class, m, layers);
  std::printf("bundle: %lld support vectors resident (shared across ranks)\n",
              static_cast<long long>(setup.bundle->num_support_vectors()));

  std::uint64_t total_mismatches = 0;
  std::uint64_t total_untraced = 0;
  std::uint64_t total_no_worker_spans = 0;
  const auto count_trace_gate = [&](const RunResult& r) {
    total_untraced += r.untraced;
    total_no_worker_spans += r.no_worker_spans;
  };

  // --- Section 1: rank scaling on the cache-pressure uniform stream. ----
  workload::ScenarioConfig pressure;
  pressure.name = "cache-pressure-uniform";
  pressure.seed = 2024;
  pressure.num_requests = n_requests;
  pressure.num_unique = n_unique;
  const workload::Scenario scaling_stream =
      workload::make_scenario(pressure, setup.pool);
  const std::vector<double> scaling_ref =
      reference_values(*setup.bundle, scaling_stream.unique_points);
  std::printf("\nscenario %s (digest %s), consistent-hash routing, "
              "%s transport\n",
              pressure.name.c_str(),
              hex_digest(workload::scenario_digest(scaling_stream)).c_str(),
              socket_mode ? "socket" : "inproc");
  print_table_header("configuration");

  std::vector<RunResult> scaling;
  for (std::size_t ranks : rank_counts) {
    serve::RankShardedEngineConfig rcfg;
    rcfg.num_shards = ranks;
    // Admit all: this section measures scaling, not admission.
    rcfg.admission_capacity = static_cast<std::size_t>(n_requests);
    rcfg.engine.max_batch = 16;
    rcfg.engine.cache_capacity = static_cast<std::size_t>(cache_entries);
    rcfg.engine.memo_capacity = static_cast<std::size_t>(cache_entries);
    configure_transport(rcfg);
    serve::RankShardedEngine engine(setup.bundle, rcfg);
    scaling.push_back(run_scenario(engine, scaling_stream, scaling_ref));
    char label[64];
    std::snprintf(label, sizeof label, "%zu worker %s%s", ranks,
                  socket_mode ? "proc" : "rank", ranks == 1 ? "" : "s");
    print_row(label, scaling.back());
    total_mismatches += scaling.back().parity_mismatches;
    count_trace_gate(scaling.back());
  }
  const double speedup =
      scaling.back().throughput / scaling.front().throughput;
  std::printf("\n%zu workers vs 1: %.2fx throughput (per-shard resources "
              "fixed; transport: %s)\n",
              rank_counts.back(), speedup,
              socket_mode ? "QKFR frames over unix sockets to processes"
                          : "QKFR frames over socketpairs to threads");

  // --- Section 2: every standard scenario through tight admission. ------
  std::printf("\nstandard scenarios, 2 shards, admission capacity 32, "
              "shed-oldest, arrival-paced:\n");
  print_table_header("scenario");
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
    serve::RankShardedEngineConfig rcfg;
    rcfg.num_shards = 2;
    rcfg.admission_capacity = 32;
    rcfg.policy = serve::AdmissionPolicy::kShedOldest;
    rcfg.engine.max_batch = 16;
    rcfg.engine.cache_capacity = static_cast<std::size_t>(cache_entries);
    rcfg.engine.memo_capacity = static_cast<std::size_t>(cache_entries);
    configure_transport(rcfg);
    serve::RankShardedEngine engine(setup.bundle, rcfg);
    row.result = run_scenario(engine, scenario, ref, nullptr,
                              /*pace_arrivals=*/true);
    print_row(cfg.name.c_str(), row.result);
    total_mismatches += row.result.parity_mismatches;
    count_trace_gate(row.result);
    rows.push_back(std::move(row));
  }

  // --- Section 3: elastic resize, ring vs modulo on a Zipf stream. ------
  // Both transports: over sockets the add_shard() spawns and handshakes a
  // live serving_rankd process while the survivors keep serving.
  const std::size_t resize_from = quick ? 2 : 3;
  workload::ScenarioConfig zipf;
  zipf.name = "zipf-hot-keys";
  zipf.seed = 77;
  zipf.num_requests = quick ? n_requests / 2 : n_requests;
  zipf.num_unique = n_unique;
  zipf.keys = workload::KeyPattern::kZipf;
  const workload::Scenario zipf_stream =
      workload::make_scenario(zipf, setup.pool);
  std::vector<bool> requested(static_cast<std::size_t>(n_unique), false);
  for (idx u : zipf_stream.order) requested[static_cast<std::size_t>(u)] = true;
  const auto distinct_keys = static_cast<std::uint64_t>(
      std::count(requested.begin(), requested.end(), true));

  struct ResizeOutcome {
    const char* router = "";
    double remap = 0.0;
    std::uint64_t expected_replay_circuits = 0;  ///< requested keys moved
    RunResult before, after;
  };
  std::vector<ResizeOutcome> outcomes;
  {
    const std::vector<double> zipf_ref =
        reference_values(*setup.bundle, zipf_stream.unique_points);

    std::printf("\nresize %zu -> %zu %s on %s (digest %s): run, add_shard, "
                "replay\n",
                resize_from, resize_from + 1,
                socket_mode ? "worker processes" : "ranks", zipf.name.c_str(),
                hex_digest(workload::scenario_digest(zipf_stream)).c_str());
    print_table_header("configuration");

    for (const serve::RouterKind kind :
         {serve::RouterKind::kConsistentHash,
          serve::RouterKind::kFeatureHashModulo}) {
      ResizeOutcome oc;
      oc.router = serve::to_string(kind);
      const serve::RouterConfig router_cfg{kind, 128};
      const std::vector<bool> moved =
          moved_keys(router_cfg, resize_from, zipf_stream);
      oc.remap = static_cast<double>(
                     std::count(moved.begin(), moved.end(), true)) /
                 static_cast<double>(moved.size());
      for (std::size_t u = 0; u < moved.size(); ++u)
        if (moved[u] && requested[u]) ++oc.expected_replay_circuits;

      serve::RankShardedEngineConfig rcfg;
      rcfg.num_shards = resize_from;
      rcfg.router = router_cfg;
      rcfg.admission_capacity = static_cast<std::size_t>(zipf.num_requests);
      rcfg.engine.max_batch = 16;
      // Cache sized for the whole working set so the replay measures key
      // remigration, not capacity eviction; memo off so the StateCache is
      // what gets measured.
      rcfg.engine.cache_capacity = static_cast<std::size_t>(n_unique) * 2;
      rcfg.engine.memo_capacity = 0;
      configure_transport(rcfg);
      serve::RankShardedEngine engine(setup.bundle, rcfg);

      oc.before = run_scenario(engine, zipf_stream, zipf_ref);
      const serve::RankShardedStats snapshot = engine.stats();
      engine.add_shard();
      oc.after = run_scenario(engine, zipf_stream, zipf_ref, &snapshot);
      total_mismatches += oc.before.parity_mismatches;
      total_mismatches += oc.after.parity_mismatches;
      count_trace_gate(oc.before);
      count_trace_gate(oc.after);

      char label[64];
      std::snprintf(label, sizeof label, "%s cold", oc.router);
      print_row(label, oc.before);
      std::snprintf(label, sizeof label, "%s replay", oc.router);
      print_row(label, oc.after);
      std::printf("%-26s remapped %.0f%% of unique keys; replay re-simulated "
                  "%llu circuits (%llu requested keys moved)\n",
                  "", 100.0 * oc.remap,
                  static_cast<unsigned long long>(oc.after.circuits),
                  static_cast<unsigned long long>(
                      oc.expected_replay_circuits));
      outcomes.push_back(oc);
    }
  }
  // Gate: the whole point of the ring is that a resize keeps the
  // survivors' StateCaches warm. With the caches holding the whole working
  // set and the memo off, a cold run simulates each distinct key once and
  // a replay re-simulates exactly the keys that moved, whatever the batch
  // sizes were; the ring must move fewer of them than modulo.
  bool resize_gate_ok = outcomes.size() == 2;
  for (const ResizeOutcome& oc : outcomes) {
    if (oc.before.circuits == distinct_keys &&
        oc.after.circuits == oc.expected_replay_circuits)
      continue;
    resize_gate_ok = false;
    std::printf("\nRESIZE GATE FAILURE: %s simulated %llu circuits cold "
                "(expected %llu distinct keys) and %llu on replay (expected "
                "%llu moved keys)\n",
                oc.router, static_cast<unsigned long long>(oc.before.circuits),
                static_cast<unsigned long long>(distinct_keys),
                static_cast<unsigned long long>(oc.after.circuits),
                static_cast<unsigned long long>(oc.expected_replay_circuits));
  }
  if (resize_gate_ok &&
      outcomes[0].after.circuits >= outcomes[1].after.circuits) {
    resize_gate_ok = false;
    std::printf("\nRESIZE GATE FAILURE: consistent-hash replay re-simulated "
                "%llu circuits, not fewer than modulo's %llu\n",
                static_cast<unsigned long long>(outcomes[0].after.circuits),
                static_cast<unsigned long long>(outcomes[1].after.circuits));
  }

  // Observability gate 1: every served request must come back traced, and
  // over sockets the worker-side spans must have survived the wire.
  const bool trace_gate_ok =
      total_untraced == 0 && (!socket_mode || total_no_worker_spans == 0);
  if (!trace_gate_ok)
    std::printf("\nTRACE GATE FAILURE: %llu served requests untraced, %llu "
                "without worker spans\n",
                static_cast<unsigned long long>(total_untraced),
                static_cast<unsigned long long>(total_no_worker_spans));

  // Observability gate 2: the registry's log-bucket latency histogram must
  // agree with the exact percentile over the identical samples (the engine
  // observes the very value RoutedPrediction.total_seconds reports), so
  // the only admissible error is bucket resolution — one growth factor per
  // interpolated rank. Snapshot now, before the self-heal section's extra
  // probe traffic lands in the histogram.
  const obs::Histogram::Snapshot latency_snapshot =
      obs::Registry::global().histogram("serve.latency.total_seconds")
          .snapshot();
  const double hist_p50 = latency_snapshot.quantile(0.50);
  const double exact_p50 = quantile(g_served_latencies, 0.50);
  const double p50_factor = hist_p50 > exact_p50 ? hist_p50 / exact_p50
                                                 : exact_p50 / hist_p50;
  const double p50_tolerance =
      obs::Histogram::growth() * obs::Histogram::growth();
  const bool latency_gate_ok =
      latency_snapshot.count == g_served_latencies.size() &&
      hist_p50 > 0.0 && p50_factor < p50_tolerance;
  std::printf("\nlatency histogram: %llu observed, p50 %.3f ms vs exact "
              "%.3f ms (x%.3f, bucket resolution x%.3f)%s\n",
              static_cast<unsigned long long>(latency_snapshot.count),
              1e3 * hist_p50, 1e3 * exact_p50, p50_factor, p50_tolerance,
              latency_gate_ok ? "" : "  <-- LATENCY GATE FAILURE");

  // --- Section 4: self-heal (socket only): SIGKILL a worker mid-stream. -
  // Gate: every future resolves (zero lost), the monitor respawns the
  // victim, and the respawned process serves again.
  struct SelfHealOutcome {
    bool ran = false;
    bool ok = false;
    long victim_pid = 0;
    long respawned_pid = 0;
    std::uint64_t respawns = 0;
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
    double seconds_to_serve_again = 0.0;
    bool flight_ok = false;
    std::uint64_t flight_events = 0;
    std::uint64_t flight_traces = 0;
  };
  SelfHealOutcome heal;
  const std::string flight_dump = "serving_ranked_flight.json";
  if (socket_mode) {
    heal.ran = true;
    serve::RankShardedEngineConfig rcfg;
    rcfg.num_shards = 2;
    rcfg.admission_capacity = static_cast<std::size_t>(zipf.num_requests);
    rcfg.engine.max_batch = 16;
    rcfg.engine.cache_capacity = static_cast<std::size_t>(cache_entries);
    rcfg.engine.memo_capacity = static_cast<std::size_t>(cache_entries);
    configure_transport(rcfg);
    rcfg.socket.respawn = true;
    rcfg.socket.respawn_backoff = std::chrono::milliseconds(100);
    // The flight recorder's postmortem artifact: written at engine
    // destruction (end of this block), uploaded by CI next to the bench
    // JSON.
    rcfg.flight_dump_path = flight_dump;
    serve::RankShardedEngine engine(setup.bundle, rcfg);

    const std::size_t victim = 0;
    heal.victim_pid = engine.worker_pid(victim);

    // Fire the whole stream, murder the victim with requests in flight,
    // then collect: .get() on every future proves none is lost.
    std::vector<std::future<serve::RoutedPrediction>> futures;
    futures.reserve(static_cast<std::size_t>(zipf_stream.size()));
    for (idx r = 0; r < zipf_stream.size(); ++r)
      futures.push_back(engine.submit(zipf_stream.request(r)));
    ::kill(static_cast<pid_t>(heal.victim_pid), SIGKILL);
    for (auto& f : futures) {
      const serve::RoutedPrediction p = f.get();
      if (p.status == serve::ServeStatus::kServed)
        ++heal.served;
      else
        ++heal.shed;
    }

    // Hammer the victim's shard until the respawned worker serves again.
    Timer recover;
    bool serves_again = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!serves_again && std::chrono::steady_clock::now() < deadline) {
      bool sent_one = false;
      for (idx u = 0; u < zipf_stream.unique_points.rows(); ++u) {
        const std::vector<double> key(
            zipf_stream.unique_points.row(u),
            zipf_stream.unique_points.row(u) +
                zipf_stream.unique_points.cols());
        if (engine.shard_for(key) != static_cast<int>(victim)) continue;
        sent_one = true;
        if (engine.submit(key).get().status == serve::ServeStatus::kServed) {
          serves_again = true;
          break;
        }
      }
      if (!sent_one) break;  // nothing routes to the victim: cannot probe
      if (!serves_again)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    heal.seconds_to_serve_again = recover.seconds();

    const serve::RankShardedStats st = engine.stats();
    heal.respawns = st.shards[victim].respawns;
    heal.respawned_pid = engine.worker_pid(victim);
    heal.ok = serves_again && heal.respawns >= 1 &&
              heal.respawned_pid > 0 && heal.respawned_pid != heal.victim_pid;

    // The flight recorder must tell the incident's story in order: the
    // victim's spawn, its death, then the respawn that healed the slot
    // (seq is monotonic, so ring order is incident order).
    const obs::FlightRecorder& flight = engine.flight_recorder();
    heal.flight_events = flight.events_recorded();
    heal.flight_traces = flight.traces_recorded();
    std::uint64_t spawn_seq = 0, death_seq = 0, respawn_seq = 0;
    bool saw_spawn = false, saw_death = false, saw_respawn = false;
    for (const obs::LifecycleEvent& e : flight.events()) {
      if (e.shard != static_cast<int>(victim)) continue;
      if (e.kind == obs::EventKind::kSpawn && !saw_spawn) {
        saw_spawn = true;
        spawn_seq = e.seq;
      } else if (e.kind == obs::EventKind::kWorkerDeath && !saw_death) {
        saw_death = true;
        death_seq = e.seq;
      } else if (e.kind == obs::EventKind::kRespawn && !saw_respawn) {
        saw_respawn = true;
        respawn_seq = e.seq;
      }
    }
    const bool sequence_ok = saw_spawn && saw_death && saw_respawn &&
                             spawn_seq < death_seq && death_seq < respawn_seq;
    heal.flight_ok = sequence_ok && heal.flight_traces > 0;
    heal.ok = heal.ok && heal.flight_ok;

    std::printf("\nself-heal: SIGKILL'd worker %ld mid-stream; %llu served / "
                "%llu shed / 0 lost; respawned as pid %ld after %llu "
                "attempt(s); serving again in %.2fs%s\n",
                heal.victim_pid,
                static_cast<unsigned long long>(heal.served),
                static_cast<unsigned long long>(heal.shed),
                heal.respawned_pid,
                static_cast<unsigned long long>(heal.respawns),
                heal.seconds_to_serve_again,
                heal.ok ? "" : "  <-- SELF-HEAL GATE FAILURE");
    std::printf("flight recorder: %llu events / %llu traces ringed; "
                "spawn->death->respawn sequence %s; postmortem dump -> %s\n",
                static_cast<unsigned long long>(heal.flight_events),
                static_cast<unsigned long long>(heal.flight_traces),
                sequence_ok ? "verified" : "MISSING",
                flight_dump.c_str());
  }
  const bool self_heal_ok = !heal.ran || heal.ok;

  if (total_mismatches > 0)
    std::printf("\nPARITY FAILURE: %llu served predictions diverged from the "
                "sequential pipeline\n",
                static_cast<unsigned long long>(total_mismatches));
  else
    std::printf("\nparity: every served prediction bitwise-matches the "
                "sequential pipeline\n");

  bench::write_artifact(
      socket_mode ? "serving_ranked_socket.json" : "serving_ranked.json",
      [&](JsonWriter& jw) {
    jw.field("bench", "serving_ranked");
    jw.field("transport", socket_mode ? "socket" : "inproc");
    jw.field("quick", quick);
    jw.field("requests", static_cast<long long>(n_requests));
    jw.field("unique_points", static_cast<long long>(n_unique));
    jw.field("features", static_cast<long long>(m));
    jw.field("per_shard_cache_entries", static_cast<long long>(cache_entries));
    jw.field("support_vectors",
             static_cast<long long>(setup.bundle->num_support_vectors()));
    jw.field("parity_ok", total_mismatches == 0);
    jw.field("trace_gate_ok", trace_gate_ok);
    jw.field("untraced", static_cast<long long>(total_untraced));
    jw.field("served_without_worker_spans",
             static_cast<long long>(total_no_worker_spans));
    jw.begin_object("latency_histogram");
    jw.field("ok", latency_gate_ok);
    jw.field("observed", static_cast<long long>(latency_snapshot.count));
    jw.field("p50_seconds", hist_p50);
    jw.field("exact_p50_seconds", exact_p50);
    jw.field("p50_factor", p50_factor);
    jw.field("bucket_resolution_factor", p50_tolerance);
    jw.end_object();
    jw.begin_array("rank_scaling");
    for (std::size_t i = 0; i < rank_counts.size(); ++i) {
      const RunResult& r = scaling[i];
      jw.begin_array_object();
      jw.field("worker_ranks", static_cast<long long>(rank_counts[i]));
      jw.field("throughput_rps", r.throughput);
      jw.field("p50_ms", r.p50_ms);
      jw.field("p99_ms", r.p99_ms);
      jw.field("cache_hit_rate", r.cache_hit_rate);
      jw.field("circuits", static_cast<long long>(r.circuits));
      jw.field("served", static_cast<long long>(r.served));
      jw.end_object();
    }
    jw.end_array();
    jw.field("scaling_scenario_digest",
             hex_digest(workload::scenario_digest(scaling_stream)));
    jw.field("speedup_max_ranks_vs_1", speedup);
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
    jw.field("resize_from_ranks", static_cast<long long>(resize_from));
    jw.field("resize_scenario_digest",
             hex_digest(workload::scenario_digest(zipf_stream)));
    jw.field("resize_gate_ok", resize_gate_ok);
    jw.begin_array("resize");
    for (const ResizeOutcome& oc : outcomes) {
      jw.begin_array_object();
      jw.field("router", oc.router);
      jw.field("remap_fraction", oc.remap);
      jw.field("cold_circuits", static_cast<long long>(oc.before.circuits));
      jw.field("cold_cache_hit_rate", oc.before.cache_hit_rate);
      jw.field("replay_circuits", static_cast<long long>(oc.after.circuits));
      jw.field("expected_replay_circuits",
               static_cast<long long>(oc.expected_replay_circuits));
      jw.field("replay_cache_hit_rate", oc.after.cache_hit_rate);
      jw.field("replay_throughput_rps", oc.after.throughput);
      jw.end_object();
    }
    jw.end_array();
    if (heal.ran) {
      jw.begin_object("self_heal");
      jw.field("ok", heal.ok);
      jw.field("victim_pid", static_cast<long long>(heal.victim_pid));
      jw.field("respawned_pid", static_cast<long long>(heal.respawned_pid));
      jw.field("respawns", static_cast<long long>(heal.respawns));
      jw.field("served", static_cast<long long>(heal.served));
      jw.field("shed", static_cast<long long>(heal.shed));
      jw.field("lost_futures", 0LL);  // every .get() returned, by control flow
      jw.field("seconds_to_serve_again", heal.seconds_to_serve_again);
      jw.field("flight_ok", heal.flight_ok);
      jw.field("flight_events", static_cast<long long>(heal.flight_events));
      jw.field("flight_traces", static_cast<long long>(heal.flight_traces));
      jw.field("flight_dump", flight_dump);
      jw.end_object();
    }
  });
  // Full registry snapshot — counters and every latency histogram,
  // including the self-heal section's traffic — as its own artifact.
  if (!metrics_out.empty()) {
    std::ofstream mos(metrics_out, std::ios::binary | std::ios::trunc);
    if (mos)
      mos << obs::Registry::global().render_json() << "\n";
    else
      std::fprintf(stderr, "could not write --metrics-out=%s\n",
                   metrics_out.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(bundle_dir, ec);
  std::filesystem::remove_all(bundle_dir + ".tmp", ec);
  return (total_mismatches == 0 && resize_gate_ok && self_heal_ok &&
          trace_gate_ok && latency_gate_ok)
             ? 0
             : 1;
}
