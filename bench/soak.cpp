/// Streaming soak bench: drives the sharded serving frontend
/// (serve::RankShardedEngine, in-process transport) through the src/soak
/// harness — pull-based workload, a bounded in-flight window,
/// priority classes through admission control, an SLO ledger reconciled
/// exactly against engine counters, and coverage-guided metamorphic
/// fuzzing over the relation x engine-state matrix (DESIGN.md §10).
///
/// Sections:
///  1. Steady soak: a duplicate-heavy stream through the engine, in-stream
///     bitwise parity + routing checks.
///     Gates: zero lost futures, zero violations, exact SLO ledger
///     reconciliation.
///  2. Overload soak: a wide in-flight window into a deliberately
///     undersized admission queue under kShedOldest — per-class
///     shed/reject/deadline
///     accounting. Gate: exact reconciliation under load shedding.
///  3. Coverage-guided fuzz: FuzzLab steps planned by the guided mutator
///     vs an unguided baseline on the same seed and step budget.
///     Gates: guided completes the relation x state map, guided coverage
///     >= unguided, zero failed relation checks.
///  4. Long soak (skipped under --quick unless QKMPS_FULL=1): >= 1M
///     requests, duplicate-heavy so the memo absorbs the stream, O(1)
///     resident workload memory by construction (bounded in-flight
///     window). Gates: zero lost, reconciled, sustained throughput
///     reported for the trend history.
///
/// Any gate failure exits 1 (CI runs `soak --quick`). Emits soak.json.
///
/// Knobs: QKMPS_SOAK_REQUESTS, QKMPS_SOAK_UNIQUE, QKMPS_SOAK_LONG_REQUESTS,
/// QKMPS_SOAK_SHARDS; QKMPS_FULL=1 scales everything up.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernel/gram.hpp"
#include "serve/model_bundle.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "soak/coverage.hpp"
#include "soak/fuzz.hpp"
#include "soak/harness.hpp"
#include "soak/slo.hpp"
#include "svm/svm.hpp"
#include "util/timer.hpp"

using namespace qkmps;

namespace {

struct Setup {
  serve::ModelBundle bundle;
  kernel::RealMatrix pool;  ///< raw request rows
  std::vector<double> reference;  ///< sequential oracle per pool row
};

Setup build_setup(idx per_class, idx m, idx layers, idx pool_rows) {
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
  s.bundle = serve::make_bundle(cfg, scaler, model, train_states);

  data::EllipticSyntheticParams req = gen;
  req.num_points = pool_rows;
  req.seed = 777;
  s.pool = data::generate_elliptic_synthetic(req).x;

  const auto scaled = s.bundle.scaler.transform(s.pool);
  const auto states = kernel::simulate_states(s.bundle.config, scaled);
  const auto k = kernel::cross_from_states(states, s.bundle.sv_states,
                                           s.bundle.config.sim.policy);
  s.reference = s.bundle.model.decision_values(k);
  return s;
}

void print_report(const char* what, const soak::SoakReport& r) {
  std::printf(
      "%s: %llu offered in %.2fs (%.0f served rps windowed); gated %llu, "
      "lost %llu, parity breaks %llu, routing breaks %llu, peak in-flight "
      "%llu; ledger %s\n",
      what, static_cast<unsigned long long>(r.attempted), r.elapsed_seconds,
      r.slo.windowed_rps, static_cast<unsigned long long>(r.gated),
      static_cast<unsigned long long>(r.lost),
      static_cast<unsigned long long>(r.parity_violations),
      static_cast<unsigned long long>(r.routing_violations),
      static_cast<unsigned long long>(r.peak_in_flight),
      r.reconciled ? "reconciled exactly" : r.reconcile_detail.c_str());
  for (std::size_t i = 0; i < soak::kNumPriorities; ++i) {
    const soak::ClassLedger& c = r.slo.classes[i];
    std::printf(
        "  %-11s submitted %8llu  served %8llu  rejected %6llu  shed %6llu  "
        "gated %6llu  deadline-miss %6llu  p50 %.3fms  p99 %.3fms  "
        "p99.9 %.3fms\n",
        soak::to_string(static_cast<soak::Priority>(i)),
        static_cast<unsigned long long>(c.submitted),
        static_cast<unsigned long long>(c.served),
        static_cast<unsigned long long>(c.rejected),
        static_cast<unsigned long long>(c.shed),
        static_cast<unsigned long long>(c.gated),
        static_cast<unsigned long long>(c.deadline_missed), c.p50_s * 1e3,
        c.p99_s * 1e3, c.p999_s * 1e3);
  }
}

void write_report(JsonWriter& w, const std::string& key,
                  const soak::SoakReport& r) {
  w.begin_object(key);
  w.field("attempted", static_cast<long long>(r.attempted));
  w.field("gated", static_cast<long long>(r.gated));
  w.field("lost", static_cast<long long>(r.lost));
  w.field("parity_violations", static_cast<long long>(r.parity_violations));
  w.field("routing_violations", static_cast<long long>(r.routing_violations));
  w.field("peak_in_flight", static_cast<long long>(r.peak_in_flight));
  w.field("elapsed_seconds", r.elapsed_seconds);
  w.field("windowed_throughput_rps", r.slo.windowed_rps);
  w.field("reconciled", r.reconciled);
  w.field("zero_lost", r.lost == 0);
  w.begin_array("classes");
  for (std::size_t i = 0; i < soak::kNumPriorities; ++i) {
    const soak::ClassLedger& c = r.slo.classes[i];
    w.begin_array_object();
    w.field("class", soak::to_string(static_cast<soak::Priority>(i)));
    w.field("submitted", static_cast<long long>(c.submitted));
    w.field("gated", static_cast<long long>(c.gated));
    w.field("served", static_cast<long long>(c.served));
    w.field("rejected", static_cast<long long>(c.rejected));
    w.field("shed", static_cast<long long>(c.shed));
    w.field("deadline_missed", static_cast<long long>(c.deadline_missed));
    w.field("p50_seconds", c.p50_s);
    w.field("p99_seconds", c.p99_s);
    w.field("p999_seconds", c.p999_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool long_soak = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--long") == 0) long_soak = true;
  }
  const bool full = full_scale_requested();
  if (full) long_soak = true;

  bench::print_header("streaming soak / coverage-guided fuzz");

  const idx per_class = quick ? 10 : 14;
  const idx features = static_cast<idx>(env_int("QKMPS_SOAK_FEATURES", 6));
  const idx layers = quick ? 1 : 2;
  const idx pool_rows =
      static_cast<idx>(env_int("QKMPS_SOAK_UNIQUE", quick ? 96 : 200));
  const std::uint64_t requests = static_cast<std::uint64_t>(
      env_int("QKMPS_SOAK_REQUESTS", quick ? 3000 : 20000));
  const std::size_t shards =
      static_cast<std::size_t>(env_int("QKMPS_SOAK_SHARDS", 2));

  std::printf("model: %lld/class, %lld features, %lld layers; pool %lld "
              "rows; %llu requests x %zu shards\n",
              static_cast<long long>(per_class),
              static_cast<long long>(features),
              static_cast<long long>(layers),
              static_cast<long long>(pool_rows),
              static_cast<unsigned long long>(requests), shards);

  Timer setup_timer;
  Setup setup = build_setup(per_class, features, layers, pool_rows);
  const auto bundle =
      std::make_shared<const serve::ModelBundle>(setup.bundle);
  std::printf("setup (train + oracle): %.2fs\n", setup_timer.seconds());

  bool all_ok = true;
  const auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what);
      all_ok = false;
    }
  };

  // --- Section 1: steady soak. -------------------------------------------
  soak::SoakReport steady;
  {
    serve::RankShardedEngineConfig rcfg;
    rcfg.num_shards = shards;
    rcfg.engine.num_threads = 0;
    rcfg.router = {serve::RouterKind::kConsistentHash, 64};
    serve::RankShardedEngine engine(bundle, rcfg);

    soak::SoakConfig cfg;
    cfg.seed = 2026;
    cfg.total_requests = requests;
    cfg.max_in_flight = 128;
    cfg.num_unique = pool_rows / 2;  // duplicate-heavy: memo absorbs
    soak::SoakHarness harness(setup.pool, setup.reference, cfg);
    steady = harness.run(engine);
    print_report("steady soak", steady);
    gate(steady.lost == 0, "steady: zero lost futures");
    gate(steady.parity_violations == 0, "steady: bitwise parity in-stream");
    gate(steady.routing_violations == 0, "steady: routing stability");
    gate(steady.reconciled, "steady: exact SLO ledger reconciliation");
  }

  // --- Section 2: overload soak, shedding admission queue. ---------------
  soak::SoakReport overload;
  {
    serve::RankShardedEngineConfig rcfg;
    rcfg.num_shards = shards;
    rcfg.engine.num_threads = 0;
    rcfg.router = {serve::RouterKind::kConsistentHash, 64};
    rcfg.admission_capacity = 8;  // deliberately undersized
    rcfg.policy = serve::AdmissionPolicy::kShedOldest;
    serve::RankShardedEngine engine(bundle, rcfg);

    soak::SoakConfig cfg;
    cfg.seed = 2027;
    cfg.total_requests = requests / 2;
    // The window outruns the queues, so the engine sheds; this section
    // gates ledger reconciliation under shedding. A shed future resolves
    // at once and is harvested before the next gate decision, so the
    // unresolved share stays below the priority gate and it refuses
    // nothing here (SoakHarnessEngine.PriorityGateShedsLowClassesFirst in
    // tests/test_soak.cpp covers that gate).
    cfg.max_in_flight = 512;
    cfg.num_unique = pool_rows;       // duplicate-light: real queue pressure
    soak::SoakHarness harness(setup.pool, setup.reference, cfg);
    overload = harness.run(engine);
    print_report("overload soak", overload);
    gate(overload.lost == 0, "overload: zero lost futures");
    gate(overload.parity_violations == 0, "overload: bitwise parity");
    gate(overload.reconciled,
         "overload: exact SLO ledger reconciliation under shedding");
  }

  // --- Section 3: coverage-guided fuzz vs unguided baseline. -------------
  std::size_t guided_covered = 0, unguided_covered = 0, target_cells = 0;
  std::uint64_t fuzz_failures = 0;
  std::uint64_t guided_steps = 0;
  std::string first_fuzz_failure;
  {
    soak::FuzzLabConfig lab_cfg;
    lab_cfg.seed = 9001;
    lab_cfg.num_shards = shards;
    soak::FuzzLab lab(setup.bundle, setup.pool, setup.reference, lab_cfg);

    soak::RelationCoverageMap guided_map(lab.supports_worker_death());
    target_cells = guided_map.target_count();
    soak::GuidedMutator guided(guided_map, 31337, /*guided=*/true);
    // A full map terminates the loop; the step bound is a backstop only.
    const std::uint64_t max_steps = 4 * target_cells;
    while (!guided_map.complete() && guided_steps < max_steps) {
      const soak::CheckResult res = lab.run(guided.next(), guided_map);
      ++guided_steps;
      if (!res.passed) {
        ++fuzz_failures;
        if (first_fuzz_failure.empty()) first_fuzz_failure = res.detail;
      }
    }
    guided_covered = guided_map.covered_count();

    // Unguided baseline: same lab, same seed, same number of steps.
    soak::RelationCoverageMap unguided_map(lab.supports_worker_death());
    soak::GuidedMutator unguided(unguided_map, 31337, /*guided=*/false);
    for (std::uint64_t s = 0; s < guided_steps; ++s) {
      const soak::CheckResult res = lab.run(unguided.next(), unguided_map);
      if (!res.passed) {
        ++fuzz_failures;
        if (first_fuzz_failure.empty()) first_fuzz_failure = res.detail;
      }
    }
    unguided_covered = unguided_map.covered_count();

    std::printf("\nfuzz: guided covered %zu/%zu cells in %llu steps; "
                "unguided covered %zu/%zu in the same budget; "
                "%llu failed checks\n",
                guided_covered, target_cells,
                static_cast<unsigned long long>(guided_steps),
                unguided_covered, target_cells,
                static_cast<unsigned long long>(fuzz_failures));
    std::printf("%s", guided_map.render_text().c_str());
    if (!first_fuzz_failure.empty())
      std::printf("first fuzz failure: %s\n", first_fuzz_failure.c_str());
    gate(guided_covered == target_cells, "fuzz: guided completes the map");
    gate(guided_covered >= unguided_covered,
         "fuzz: guided coverage >= unguided on the same seed");
    gate(fuzz_failures == 0, "fuzz: all relation checks pass");
  }

  // --- Section 4: long soak (>= 1M requests, O(1) workload memory). ------
  soak::SoakReport long_report;
  bool ran_long = false;
  if (long_soak) {
    ran_long = true;
    const std::uint64_t long_requests = static_cast<std::uint64_t>(
        env_int("QKMPS_SOAK_LONG_REQUESTS", 1'000'000));
    serve::RankShardedEngineConfig rcfg;
    rcfg.num_shards = shards;
    rcfg.engine.num_threads = 0;
    rcfg.router = {serve::RouterKind::kConsistentHash, 64};
    serve::RankShardedEngine engine(bundle, rcfg);

    soak::SoakConfig cfg;
    cfg.seed = 2028;
    cfg.total_requests = long_requests;
    cfg.max_in_flight = 256;
    // Heavily duplicated keys: the memo absorbs the stream, which is what
    // makes a million requests tractable — and is the realistic serving
    // profile (hot keys dominate).
    cfg.num_unique = std::min<idx>(pool_rows, 64);
    cfg.progress_every = long_requests / 10;
    soak::SoakHarness harness(setup.pool, setup.reference, cfg);
    long_report = harness.run(
        engine, nullptr, [](const soak::SoakReport& live) {
          std::printf("  ... %llu harvested, %.0f rps windowed, %llu lost\n",
                      static_cast<unsigned long long>(live.attempted),
                      live.slo.windowed_rps,
                      static_cast<unsigned long long>(live.lost));
        });
    print_report("long soak", long_report);
    gate(long_report.lost == 0, "long: zero lost futures");
    gate(long_report.parity_violations == 0, "long: bitwise parity");
    gate(long_report.reconciled, "long: exact SLO ledger reconciliation");
    gate(long_report.peak_in_flight <= cfg.max_in_flight,
         "long: in-flight window bounded (O(1) workload memory)");
  }

  bench::write_artifact("soak.json", [&](JsonWriter& w) {
    w.field("bench", "soak");
    w.field("quick", quick);
    w.field("requests", static_cast<long long>(requests));
    w.field("unique_points", static_cast<long long>(pool_rows));
    w.field("features", static_cast<long long>(features));
    w.field("shards", static_cast<long long>(shards));
    write_report(w, "steady", steady);
    write_report(w, "overload", overload);
    w.begin_object("fuzz");
    w.field("target_cells", static_cast<long long>(target_cells));
    w.field("guided_covered", static_cast<long long>(guided_covered));
    w.field("unguided_covered", static_cast<long long>(unguided_covered));
    w.field("guided_steps", static_cast<long long>(guided_steps));
    w.field("failed_checks", static_cast<long long>(fuzz_failures));
    w.field("guided_complete", guided_covered == target_cells);
    w.field("guided_beats_unguided", guided_covered >= unguided_covered);
    w.end_object();
    if (ran_long) write_report(w, "long", long_report);
    w.field("all_gates_ok", all_ok);
  });

  std::printf("\nsoak: %s; artifact -> soak.json\n",
              all_ok ? "all gates passed" : "GATES FAILED");
  return all_ok ? 0 : 1;
}
