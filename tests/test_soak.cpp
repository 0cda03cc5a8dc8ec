#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "serve_test_fixture.hpp"
#include "soak/coverage.hpp"
#include "soak/harness.hpp"
#include "soak/slo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace qkmps::soak {
namespace {

// One trained model shared by every engine-driving test in this suite
// (training dominates suite runtime; the engines themselves are cheap).
const testing::TrainedServing& shared_model() {
  static const testing::TrainedServing* model =
      // lint: allow(naked-new) — leaked singleton shared across tests
      new testing::TrainedServing(testing::train_small_serving(7));
  return *model;
}

struct SoakInputs {
  kernel::RealMatrix pool;
  std::vector<double> reference;
};

const SoakInputs& shared_inputs() {
  static const SoakInputs* inputs = [] {
    // lint: allow(naked-new) — leaked singleton shared across tests
    auto* in = new SoakInputs();
    in->pool = testing::serving_request_pool(48);
    in->reference = testing::sequential_reference(shared_model(), in->pool);
    return in;
  }();
  return *inputs;
}

// ---------------------------------------------------------------------------
// SLO accountant

TEST(SoakSlo, QuantilesAgreeWithTypeSevenWithinOneGrowthFactor)
{
  // The accountant's per-class histogram shares the type-7 quantile
  // convention with util/stats; a reported quantile may differ from the
  // exact order statistic by at most one log bucket (factor 2^(1/3)).
  SloAccountant slo;
  Rng rng(99);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform latencies spanning 100us..100ms: every bucket matters.
    const double v = 1e-4 * std::pow(1000.0, rng.uniform());
    samples.push_back(v);
    slo.record(Priority::kStandard, serve::ServeStatus::kServed, v,
               static_cast<double>(i) * 1e-4);
  }
  const SloSnapshot snap = slo.snapshot(2.0);
  const ClassLedger& c =
      snap.classes[static_cast<std::size_t>(Priority::kStandard)];
  const double g = obs::Histogram::growth();
  const std::pair<double, double> checks[] = {
      {0.50, c.p50_s}, {0.99, c.p99_s}, {0.999, c.p999_s}};
  for (const auto& [q, reported] : checks) {
    const double exact = quantile(samples, q);
    EXPECT_LE(reported, exact * g) << "q=" << q;
    EXPECT_GE(reported, exact / g) << "q=" << q;
  }
}

TEST(SoakSlo, LedgerCountsEveryOutcomePerClass) {
  SloTargets targets;
  targets.deadline_s = {0.010, 0.010, 0.010};
  SloAccountant slo(targets);
  // 3 served (one past deadline), 2 rejected, 1 shed, 1 gated.
  slo.record(Priority::kInteractive, serve::ServeStatus::kServed, 0.001, 0.0);
  slo.record(Priority::kInteractive, serve::ServeStatus::kServed, 0.002, 0.1);
  slo.record(Priority::kBatch, serve::ServeStatus::kServed, 0.500, 0.2);
  slo.record(Priority::kStandard, serve::ServeStatus::kRejected, 0.0, 0.3);
  slo.record(Priority::kStandard, serve::ServeStatus::kRejected, 0.0, 0.4);
  slo.record(Priority::kBatch, serve::ServeStatus::kShed, 0.0, 0.5);
  slo.record_gated(Priority::kBatch);

  const SloSnapshot s = slo.snapshot(1.0);
  EXPECT_EQ(s.submitted, 7u);
  EXPECT_EQ(s.served, 3u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.gated, 1u);
  EXPECT_EQ(s.deadline_missed, 1u);  // only the 500ms batch serve
  const auto& batch = s.classes[static_cast<std::size_t>(Priority::kBatch)];
  EXPECT_EQ(batch.submitted, 3u);
  EXPECT_EQ(batch.served, 1u);
  EXPECT_EQ(batch.shed, 1u);
  EXPECT_EQ(batch.gated, 1u);
  EXPECT_EQ(batch.deadline_missed, 1u);

  SloAccountant::EngineTotals engine;
  engine.submitted = 6;  // 7 - 1 gated
  engine.completed = 3;
  engine.rejected = 2;
  engine.shed = 1;
  std::string why;
  EXPECT_TRUE(slo.reconciles(engine, &why)) << why;
  engine.completed = 4;  // engine claims one more serve than the ledger saw
  EXPECT_FALSE(slo.reconciles(engine, &why));
  EXPECT_NE(why.find("completed"), std::string::npos);
}

TEST(SoakSlo, WindowedRateMetersTrailingWindowOnly) {
  obs::WindowedRate rate(0.5, 16);
  for (int i = 0; i < 100; ++i)
    rate.record(static_cast<double>(i) * 0.1);  // 10/s for 10 seconds
  EXPECT_EQ(rate.total(), 100u);
  EXPECT_NEAR(rate.rate(9.9, 5.0), 10.0, 1.5);
  // Long after the burst the trailing window is empty.
  EXPECT_DOUBLE_EQ(rate.rate(1000.0, 5.0), 0.0);
}

TEST(SoakSlo, WindowedRateInsideOneSlotDividesByElapsedTime) {
  // A run shorter than one slot: the rate divides by the 0.01 s that
  // passed, not by the 0.25 s slot width (which would read 20/s).
  obs::WindowedRate rate(0.25, 16);
  for (int i = 0; i < 5; ++i) rate.record(static_cast<double>(i) * 0.0025);
  EXPECT_DOUBLE_EQ(rate.rate(0.01, 10.0), 500.0);
  // Nothing has elapsed at t = 0, so there is no rate to report.
  EXPECT_DOUBLE_EQ(rate.rate(0.0, 1.0), 0.0);
}

// ---------------------------------------------------------------------------
// Coverage map + guided mutator

TEST(SoakCoverage, TargetCellCountsArePinned) {
  // In-process: parity keeps warm x resize (4), routing keeps resize (2),
  // retention and wire torture collapse to one cell each => 8.
  RelationCoverageMap inproc(/*with_worker_death=*/false);
  EXPECT_EQ(inproc.target_count(), 8u);
  // With worker death the death axis doubles the cells of every relation
  // that keeps it: parity 8, routing 4, retention 2, wire 1 => 15.
  RelationCoverageMap socket(/*with_worker_death=*/true);
  EXPECT_EQ(socket.target_count(), 15u);
  for (const Cell& cell : inproc.target_cells())
    EXPECT_EQ(cell.state_bits & 4, 0) << "death cell in an in-process map";
}

TEST(SoakCoverage, RecordProjectsThroughTheAxisMask) {
  RelationCoverageMap map(false);
  // Cache warmth is invisible to routing: both records land in one cell.
  EngineState a;          // cold
  EngineState b;
  b.warm_cache = true;    // warm
  map.record(Relation::kRoutingStability, a);
  map.record(Relation::kRoutingStability, b);
  EXPECT_EQ(map.hits(Relation::kRoutingStability, a), 2u);
  EXPECT_EQ(map.covered_count(), 1u);
  EXPECT_EQ(map.total_pairs(), 2u);
}

TEST(SoakCoverage, GuidedStrictlyGrowsCoverageAndTerminates) {
  // Guided: every step lands in a previously uncovered cell, so coverage
  // grows by exactly one per step and the loop terminates at full map in
  // exactly target_count() steps.
  RelationCoverageMap map(true);
  GuidedMutator mutator(map, 123, /*guided=*/true);
  std::size_t steps = 0;
  while (!map.complete()) {
    const std::size_t before = map.covered_count();
    const FuzzStep step = mutator.next();
    map.record(step.relation, step.state);
    ASSERT_EQ(map.covered_count(), before + 1) << "step " << steps;
    ASSERT_LT(++steps, 100u) << "guided loop failed to terminate";
  }
  EXPECT_EQ(steps, map.target_count());
}

TEST(SoakCoverage, GuidedBeatsUnguidedOnTheSameSeed) {
  // Same seed, same step budget (what the guided run needed): sampling
  // with replacement must cover no more — and in practice strictly fewer
  // — cells than covering without replacement.
  RelationCoverageMap guided_map(true);
  GuidedMutator guided(guided_map, 31337, /*guided=*/true);
  while (!guided_map.complete()) {
    const FuzzStep step = guided.next();
    guided_map.record(step.relation, step.state);
  }
  RelationCoverageMap unguided_map(true);
  GuidedMutator unguided(unguided_map, 31337, /*guided=*/false);
  for (std::size_t s = 0; s < guided_map.target_count(); ++s) {
    const FuzzStep step = unguided.next();
    unguided_map.record(step.relation, step.state);
  }
  EXPECT_EQ(guided_map.covered_count(), guided_map.target_count());
  EXPECT_LE(unguided_map.covered_count(), guided_map.covered_count());
  // 15 cells, 15 uniform draws with replacement: P(all distinct) ~ 3e-6,
  // so on this pinned seed the inequality is strict.
  EXPECT_LT(unguided_map.covered_count(), guided_map.covered_count());
}

TEST(SoakCoverage, MutatorStepsStayInsideTheTargetSet) {
  RelationCoverageMap map(false);
  std::set<Cell> targets(map.target_cells().begin(), map.target_cells().end());
  GuidedMutator mutator(map, 7, /*guided=*/true);
  for (int i = 0; i < 50; ++i) {
    const FuzzStep step = mutator.next();
    const Cell cell{step.relation,
                    static_cast<std::uint8_t>(step.state.bits() &
                                              axis_mask(step.relation))};
    EXPECT_TRUE(targets.count(cell)) << to_string(cell);
    map.record(step.relation, step.state);
  }
}

// ---------------------------------------------------------------------------
// Harness x engine: exact ledger reconciliation under both admission
// policies, zero lost futures, in-stream parity.

SoakConfig small_soak(std::uint64_t seed) {
  SoakConfig cfg;
  cfg.seed = seed;
  cfg.total_requests = 600;
  cfg.max_in_flight = 64;
  return cfg;
}

TEST(SoakHarnessEngine, ReconcilesExactlyUnderRejectNew) {
  const auto& model = shared_model();
  const auto& inputs = shared_inputs();
  serve::RankShardedEngineConfig rcfg;
  rcfg.num_shards = 2;
  rcfg.engine.num_threads = 1;
  // Undersized: rejections guaranteed. Small batches keep each shard's
  // in-flight window (2 x max_batch) far below the harness's, so the
  // pending queues really fill.
  rcfg.engine.max_batch = 2;
  rcfg.admission_capacity = 2;
  rcfg.policy = serve::AdmissionPolicy::kRejectNew;
  serve::RankShardedEngine engine(model.bundle, rcfg);

  SoakHarness harness(inputs.pool, inputs.reference, small_soak(11));
  const SoakReport r = harness.run(engine);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.parity_violations, 0u);
  EXPECT_EQ(r.routing_violations, 0u);
  EXPECT_TRUE(r.reconciled) << r.reconcile_detail;
  EXPECT_GT(r.slo.rejected, 0u);  // the policy actually fired
  EXPECT_EQ(r.slo.submitted,
            r.slo.gated + r.slo.served + r.slo.rejected + r.slo.shed);
}

TEST(SoakHarnessEngine, ReconcilesExactlyUnderShedOldest) {
  const auto& model = shared_model();
  const auto& inputs = shared_inputs();
  serve::RankShardedEngineConfig rcfg;
  rcfg.num_shards = 2;
  rcfg.engine.num_threads = 1;
  rcfg.engine.max_batch = 2;
  rcfg.admission_capacity = 2;
  rcfg.policy = serve::AdmissionPolicy::kShedOldest;
  serve::RankShardedEngine engine(model.bundle, rcfg);

  SoakHarness harness(inputs.pool, inputs.reference, small_soak(12));
  const SoakReport r = harness.run(engine);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.parity_violations, 0u);
  EXPECT_TRUE(r.reconciled) << r.reconcile_detail;
  EXPECT_GT(r.slo.shed, 0u);  // eviction actually fired
}

TEST(SoakHarnessEngine, DeadlineMissesCountServedLateExactly) {
  const auto& model = shared_model();
  const auto& inputs = shared_inputs();
  serve::RankShardedEngineConfig rcfg;
  rcfg.num_shards = 2;
  rcfg.engine.num_threads = 1;
  serve::RankShardedEngine engine(model.bundle, rcfg);

  SoakConfig cfg = small_soak(14);
  cfg.total_requests = 200;
  // Impossible deadlines: every served request misses, none are guessed.
  cfg.slo.deadline_s = {0.0, 0.0, 0.0};
  SoakHarness harness(inputs.pool, inputs.reference, cfg);
  const SoakReport r = harness.run(engine);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_TRUE(r.reconciled) << r.reconcile_detail;
  EXPECT_EQ(r.slo.deadline_missed, r.slo.served);
}

TEST(SoakHarnessEngine, PriorityGateShedsLowClassesFirst) {
  const auto& model = shared_model();
  const auto& inputs = shared_inputs();
  serve::RankShardedEngineConfig rcfg;
  rcfg.num_shards = 2;
  rcfg.engine.num_threads = 1;
  serve::RankShardedEngine engine(model.bundle, rcfg);

  SoakConfig cfg = small_soak(15);
  cfg.batch_gate_fraction = 0.25;
  cfg.standard_gate_fraction = 0.60;
  SoakHarness harness(inputs.pool, inputs.reference, cfg);
  const SoakReport r = harness.run(engine);
  EXPECT_TRUE(r.reconciled) << r.reconcile_detail;
  const auto& cls = r.slo.classes;
  // Interactive is never gated; the lower gate must refuse at least as
  // large a fraction of batch as of standard.
  EXPECT_EQ(cls[0].gated, 0u);
  if (cls[1].submitted > 0 && cls[2].submitted > 0 && r.gated > 0) {
    const double std_frac = static_cast<double>(cls[1].gated) /
                            static_cast<double>(cls[1].submitted);
    const double batch_frac = static_cast<double>(cls[2].gated) /
                              static_cast<double>(cls[2].submitted);
    EXPECT_GE(batch_frac + 1e-12, std_frac);
  }
}

TEST(SoakHarnessEngine, CoverageRecordsWarmAndColdParityCells) {
  const auto& model = shared_model();
  const auto& inputs = shared_inputs();
  serve::RankShardedEngineConfig rcfg;
  rcfg.num_shards = 2;
  rcfg.engine.num_threads = 1;
  serve::RankShardedEngine engine(model.bundle, rcfg);

  SoakConfig cfg = small_soak(16);
  cfg.num_unique = 8;  // duplicate-heavy: warm cells guaranteed
  RelationCoverageMap map(false);
  SoakHarness harness(inputs.pool, inputs.reference, cfg);
  const SoakReport r = harness.run(engine, &map);
  EXPECT_TRUE(r.reconciled) << r.reconcile_detail;
  EngineState cold;
  EngineState warm;
  warm.warm_cache = true;
  EXPECT_GT(map.hits(Relation::kBitwiseParity, cold), 0u);
  EXPECT_GT(map.hits(Relation::kBitwiseParity, warm), 0u);
  EXPECT_GT(map.hits(Relation::kRoutingStability, warm), 0u);
}

TEST(SoakHarnessEngine, RejectsMisconfiguredGates) {
  const auto& inputs = shared_inputs();
  SoakConfig cfg = small_soak(17);
  cfg.batch_gate_fraction = 0.9;
  cfg.standard_gate_fraction = 0.5;  // batch must gate first
  EXPECT_THROW(SoakHarness(inputs.pool, inputs.reference, cfg), Error);
}

}  // namespace
}  // namespace qkmps::soak
