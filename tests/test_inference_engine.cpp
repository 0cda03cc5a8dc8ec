#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <vector>

#include "kernel/gram.hpp"
#include "linalg/policy.hpp"
#include "obs/metrics.hpp"
#include "serve/inference_engine.hpp"
#include "serve_test_fixture.hpp"
#include "svm/svm.hpp"
#include "test_helpers.hpp"

namespace qkmps::serve {
namespace {

using Serving = qkmps::testing::TrainedServing;

/// One small trained bundle plus its raw held-out queries, and the full
/// (uncompacted) training artifacts for the strongest parity check —
/// engine vs. the naive full-training-set pipeline.
Serving make_serving(std::uint64_t seed) {
  return qkmps::testing::train_small_serving(seed);
}

std::vector<double> raw_row(const kernel::RealMatrix& x, idx i) {
  return std::vector<double>(x.row(i), x.row(i) + x.cols());
}

std::vector<std::vector<double>> raw_rows(const kernel::RealMatrix& x) {
  std::vector<std::vector<double>> rows;
  for (idx i = 0; i < x.rows(); ++i) rows.push_back(raw_row(x, i));
  return rows;
}

/// The sequential reference pipeline on the *full* training artifacts:
/// scale -> simulate_states -> cross kernel against every training state
/// -> full-model decision values. The engine must reproduce this bitwise
/// even though it batches, caches, and only ever touches the SV subset.
std::vector<double> sequential_decision_values(const Serving& s) {
  const auto x_test = s.bundle.scaler.transform(s.x_test_raw);
  const auto test_states = kernel::simulate_states(s.bundle.config, x_test);
  const auto k_test = kernel::cross_from_states(test_states, s.train_states,
                                                s.bundle.config.sim.policy);
  return s.full_model.decision_values(k_test);
}

TEST(InferenceEngine, MetamorphicParityBatchedVsSequential) {
  const Serving s = make_serving(1);
  const std::vector<double> f_seq = sequential_decision_values(s);
  const std::vector<int> pred_seq = [&] {
    std::vector<int> p(f_seq.size());
    for (std::size_t i = 0; i < f_seq.size(); ++i) p[i] = f_seq[i] >= 0 ? 1 : -1;
    return p;
  }();

  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_deadline = std::chrono::microseconds(3000);
  cfg.num_threads = 3;
  InferenceEngine engine(s.bundle, cfg);

  std::vector<std::future<Prediction>> futures;
  for (idx i = 0; i < s.x_test_raw.rows(); ++i)
    futures.push_back(engine.submit(raw_row(s.x_test_raw, i)));

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction p = futures[i].get();
    // Bitwise: same scaling, same simulations, same zipper contractions,
    // same decision-value accumulation order as the sequential pipeline.
    EXPECT_EQ(p.decision_value, f_seq[i]) << "request " << i;
    EXPECT_EQ(p.label, pred_seq[i]) << "request " << i;
    EXPECT_GE(p.latency_seconds, 0.0);
  }

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.requests, futures.size());
  EXPECT_GE(st.batches, 1u);
  EXPECT_LE(st.max_batch_seen, cfg.max_batch);
}

TEST(InferenceEngine, RepeatedQueriesHitCacheAndScoreIdentically) {
  const Serving s = make_serving(2);
  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.num_threads = 2;
  cfg.cache_capacity = 4096;  // the StateCache is opt-in
  cfg.memo_capacity = 0;  // isolate the StateCache path from the memo
  InferenceEngine engine(s.bundle, cfg);

  const idx n = s.x_test_raw.rows();
  std::vector<std::future<Prediction>> first, second;
  for (idx i = 0; i < n; ++i)
    first.push_back(engine.submit(raw_row(s.x_test_raw, i)));
  std::vector<Prediction> round1;
  for (auto& f : first) round1.push_back(f.get());

  for (idx i = 0; i < n; ++i)
    second.push_back(engine.submit(raw_row(s.x_test_raw, i)));
  for (idx i = 0; i < n; ++i) {
    const Prediction p = second[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(p.cache_hit) << "request " << i;
    EXPECT_EQ(p.decision_value,
              round1[static_cast<std::size_t>(i)].decision_value);
    EXPECT_EQ(p.label, round1[static_cast<std::size_t>(i)].label);
  }

  const EngineStats st = engine.stats();
  // Second round re-simulated nothing.
  EXPECT_EQ(st.circuits_simulated, static_cast<std::uint64_t>(n));
  EXPECT_GE(st.cache.hits, static_cast<std::uint64_t>(n));
}

TEST(InferenceEngine, DuplicatesWithinOneBatchSimulateOnce) {
  const Serving s = make_serving(3);
  EngineConfig cfg;
  cfg.num_threads = 2;
  cfg.cache_capacity = 0;  // isolate the in-batch dedup from the cache
  InferenceEngine engine(s.bundle, cfg);

  // Three distinct points, each duplicated.
  kernel::RealMatrix x(6, s.x_test_raw.cols());
  for (idx i = 0; i < 6; ++i)
    for (idx j = 0; j < x.cols(); ++j) x(i, j) = s.x_test_raw(i / 2, j);
  const auto preds = engine.predict_batch(raw_rows(x));
  ASSERT_EQ(preds.size(), 6u);
  for (idx i = 0; i < 6; i += 2) {
    EXPECT_EQ(preds[static_cast<std::size_t>(i)].decision_value,
              preds[static_cast<std::size_t>(i + 1)].decision_value);
  }
  EXPECT_EQ(engine.stats().circuits_simulated, 3u);
}

TEST(InferenceEngine, LateMemoCheckAnswersARowScoredWhileItWasQueued) {
  // The order is forced. A lone submit() waits in the queue for a second
  // request (max_batch 2, a window far longer than the test); meanwhile
  // predict_batch scores the same row, which misses the memo at
  // admission because the queued copy has not run. When a second submit
  // fills the batch, the queued copy asks the memo again and replays
  // those bits: with the StateCache off, its key costs one circuit.
  const Serving s = make_serving(15);
  EngineConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_deadline = std::chrono::seconds(60);
  cfg.num_threads = 2;
  cfg.cache_capacity = 0;
  InferenceEngine engine(s.bundle, cfg);
  obs::Counter& late_hits =
      obs::Registry::global().counter("serve.memo.late_hits");
  const std::uint64_t late0 = late_hits.value();

  std::future<Prediction> queued = engine.submit(raw_row(s.x_test_raw, 0));
  const std::vector<Prediction> scored =
      engine.predict_batch({raw_row(s.x_test_raw, 0)});
  std::future<Prediction> partner = engine.submit(raw_row(s.x_test_raw, 1));
  const Prediction p = queued.get();
  EXPECT_FALSE(partner.get().memo_hit);

  EXPECT_TRUE(p.memo_hit);
  EXPECT_FALSE(p.cache_hit);
  EXPECT_EQ(p.decision_value, scored[0].decision_value);
  EXPECT_EQ(p.label, scored[0].label);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.circuits_simulated, 2u);  // row 0 once, row 1 once
  // The late lookup is not an admission lookup: all three missed there.
  EXPECT_EQ(st.memo.hits, 0u);
  EXPECT_EQ(st.memo.misses, 3u);
  EXPECT_EQ(late_hits.value() - late0, 1u);
}

TEST(InferenceEngine, DuplicateOfARunningRequestSimulatesOnce) {
  // One request per batch, so the duplicate cannot join its original's
  // batch. It is submitted right after the original, almost always while
  // that batch still runs; then it misses at admission and hits on the
  // late lookup. If the original has already finished, the duplicate
  // hits at admission instead. Both orders replay the same bits and
  // simulate the key once, with the StateCache off.
  const Serving s = make_serving(16);
  EngineConfig cfg;
  cfg.max_batch = 1;
  cfg.num_threads = 2;
  cfg.cache_capacity = 0;
  InferenceEngine engine(s.bundle, cfg);
  obs::Counter& late_hits =
      obs::Registry::global().counter("serve.memo.late_hits");
  const std::uint64_t late0 = late_hits.value();

  std::future<Prediction> first = engine.submit(raw_row(s.x_test_raw, 0));
  std::future<Prediction> duplicate = engine.submit(raw_row(s.x_test_raw, 0));
  const Prediction a = first.get();
  const Prediction b = duplicate.get();
  EXPECT_FALSE(a.memo_hit);
  EXPECT_TRUE(b.memo_hit);
  EXPECT_EQ(b.decision_value, a.decision_value);
  EXPECT_EQ(b.label, a.label);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.circuits_simulated, 1u);
  EXPECT_EQ(st.memo.hits + (late_hits.value() - late0), 1u);
}

TEST(InferenceEngine, DefaultConfigRetainsNoState) {
  // The memo is the default cross-request cache; the StateCache is
  // opt-in, so serving N distinct rows keeps no simulated MPS.
  const Serving s = make_serving(17);
  InferenceEngine engine(s.bundle, {.num_threads = 2});
  constexpr std::size_t kRows = 8;
  for (std::size_t r = 0; r < kRows; ++r) {
    std::vector<double> x =
        raw_row(s.x_test_raw, static_cast<idx>(r) % s.x_test_raw.rows());
    x[0] += 0.01 * static_cast<double>(r);  // distinct rows
    (void)engine.submit(std::move(x)).get();
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.circuits_simulated, kRows);
  EXPECT_EQ(st.cache.insertions, 0u);
  EXPECT_EQ(st.memo.insertions, kRows);
}

TEST(InferenceEngine, PredictBatchMatchesSubmit) {
  const Serving s = make_serving(4);
  EngineConfig cfg;
  cfg.num_threads = 2;
  InferenceEngine engine(s.bundle, cfg);

  const auto batch = engine.predict_batch(raw_rows(s.x_test_raw));
  for (idx i = 0; i < s.x_test_raw.rows(); ++i) {
    const Prediction p = engine.submit(raw_row(s.x_test_raw, i)).get();
    EXPECT_EQ(p.decision_value,
              batch[static_cast<std::size_t>(i)].decision_value);
    // predict_batch warmed the serving caches; with the memo enabled the
    // repeat short-circuits before it can touch the StateCache.
    EXPECT_TRUE(p.memo_hit || p.cache_hit);
  }
}

TEST(InferenceEngine, MemoizedRepeatSkipsSimulationAndStateCache) {
  const Serving s = make_serving(9);
  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.num_threads = 2;
  cfg.memo_capacity = 64;
  InferenceEngine engine(s.bundle, cfg);

  const idx n = s.x_test_raw.rows();
  std::vector<Prediction> round1;
  for (idx i = 0; i < n; ++i)
    round1.push_back(engine.submit(raw_row(s.x_test_raw, i)).get());
  const EngineStats after1 = engine.stats();

  for (idx i = 0; i < n; ++i) {
    const Prediction p = engine.submit(raw_row(s.x_test_raw, i)).get();
    EXPECT_TRUE(p.memo_hit) << "request " << i;
    EXPECT_FALSE(p.cache_hit) << "request " << i;  // memo answered first
    // Replay is bitwise: the memo stores the final decision-value bits.
    EXPECT_EQ(p.decision_value,
              round1[static_cast<std::size_t>(i)].decision_value);
    EXPECT_EQ(p.label, round1[static_cast<std::size_t>(i)].label);
  }

  const EngineStats after2 = engine.stats();
  // Exact repeats simulated nothing and never consulted the StateCache.
  EXPECT_EQ(after2.circuits_simulated, after1.circuits_simulated);
  EXPECT_EQ(after2.cache.hits, after1.cache.hits);
  EXPECT_EQ(after2.cache.misses, after1.cache.misses);
  EXPECT_GE(after2.memo.hits, static_cast<std::uint64_t>(n));
  EXPECT_EQ(after2.memo.insertions, after1.memo.insertions);
}

TEST(InferenceEngine, MemoHitResolvesInsideSubmit) {
  // A memo hit is answered at admission. With a batch window far longer
  // than the test, every repeat must already be resolved when submit()
  // returns, and no batch may run for it.
  const Serving s = make_serving(13);
  EngineConfig cfg;
  cfg.num_threads = 2;
  cfg.batch_deadline = std::chrono::seconds(60);
  InferenceEngine engine(s.bundle, cfg);

  const auto batch = engine.predict_batch(raw_rows(s.x_test_raw));
  const EngineStats before = engine.stats();
  const idx n = s.x_test_raw.rows();
  for (idx i = 0; i < n; ++i) {
    std::future<Prediction> fut = engine.submit(raw_row(s.x_test_raw, i));
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    const Prediction p = fut.get();
    const Prediction& first = batch[static_cast<std::size_t>(i)];
    EXPECT_TRUE(p.memo_hit) << "request " << i;
    EXPECT_FALSE(p.cache_hit) << "request " << i;
    EXPECT_EQ(p.decision_value, first.decision_value) << "request " << i;
    EXPECT_EQ(p.label, first.label) << "request " << i;
    EXPECT_GE(p.latency_seconds, 0.0);
  }

  const EngineStats after = engine.stats();
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.max_batch_seen, before.max_batch_seen);
  EXPECT_EQ(after.circuits_simulated, before.circuits_simulated);
  EXPECT_EQ(after.requests, before.requests + static_cast<std::uint64_t>(n));
  EXPECT_EQ(after.memo.hits, before.memo.hits + static_cast<std::uint64_t>(n));
}

TEST(InferenceEngine, EveryRequestCountsOnceInTheMemoStatistics) {
  // New rows and repeats of already answered rows, interleaved: each
  // request is one memo lookup, a repeat is a hit wherever it is
  // answered, and the registry counters agree with EngineStats.
  const Serving s = make_serving(14);
  EngineConfig cfg;
  cfg.max_batch = 3;
  cfg.num_threads = 2;
  InferenceEngine engine(s.bundle, cfg);
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& reg_hits = reg.counter("serve.memo.hits");
  obs::Counter& reg_misses = reg.counter("serve.memo.misses");
  obs::Counter& reg_requests = reg.counter("serve.engine.requests");
  const std::uint64_t hits0 = reg_hits.value();
  const std::uint64_t misses0 = reg_misses.value();
  const std::uint64_t requests0 = reg_requests.value();

  // Eight distinct rows: the held-out queries, shifted a little apart.
  std::vector<std::vector<double>> rows;
  for (idx r = 0; r < 8; ++r) {
    std::vector<double> x = raw_row(s.x_test_raw, r % s.x_test_raw.rows());
    x[0] += 0.01 * static_cast<double>(r);
    rows.push_back(std::move(x));
  }
  std::vector<std::future<Prediction>> first;
  for (std::size_t r = 0; r < 4; ++r) first.push_back(engine.submit(rows[r]));
  std::vector<double> answered;
  for (auto& f : first) answered.push_back(f.get().decision_value);

  std::vector<std::future<Prediction>> repeats, fresh;
  for (std::size_t r = 0; r < 4; ++r) {
    repeats.push_back(engine.submit(rows[r]));
    fresh.push_back(engine.submit(rows[4 + r]));
  }
  for (std::size_t r = 0; r < 4; ++r) {
    const Prediction p = repeats[r].get();
    EXPECT_TRUE(p.memo_hit) << "row " << r;
    EXPECT_EQ(p.decision_value, answered[r]) << "row " << r;
    EXPECT_FALSE(fresh[r].get().memo_hit) << "row " << 4 + r;
  }

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.requests, 12u);
  EXPECT_EQ(st.memo.hits + st.memo.misses, st.requests);
  EXPECT_EQ(st.memo.hits, 4u);
  EXPECT_EQ(st.circuits_simulated, 8u);
  EXPECT_LE(st.max_batch_seen, cfg.max_batch);
  EXPECT_EQ(reg_hits.value() - hits0, 4u);
  EXPECT_EQ(reg_misses.value() - misses0, 8u);
  EXPECT_EQ(reg_requests.value() - requests0, 12u);
}

TEST(InferenceEngine, MemoEvictionStaysCorrectUnderTinyCapacity) {
  const Serving s = make_serving(10);
  EngineConfig cfg;
  cfg.num_threads = 2;
  cfg.memo_capacity = 2;  // smaller than the query working set
  InferenceEngine engine(s.bundle, cfg);

  const auto reference = engine.predict_batch(raw_rows(s.x_test_raw));
  const auto again = engine.predict_batch(raw_rows(s.x_test_raw));
  ASSERT_EQ(again.size(), reference.size());
  for (std::size_t i = 0; i < again.size(); ++i)
    EXPECT_EQ(again[i].decision_value, reference[i].decision_value);
  const EngineStats st = engine.stats();
  EXPECT_GT(st.memo.evictions, 0u);
  EXPECT_LE(st.memo.insertions - st.memo.evictions, 2u);
}

TEST(InferenceEngine, CacheDisabledStillScoresIdentically) {
  // With the StateCache and the memo both off, every request really
  // simulates on a pool lane, and the engine must still reproduce the
  // sequential reference bitwise.
  const Serving s = make_serving(5);
  const std::vector<double> f_seq = sequential_decision_values(s);

  EngineConfig cfg;
  cfg.num_threads = 3;
  cfg.cache_capacity = 0;
  cfg.memo_capacity = 0;
  InferenceEngine engine(s.bundle, cfg);
  const auto preds = engine.predict_batch(raw_rows(s.x_test_raw));
  ASSERT_EQ(preds.size(), f_seq.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    EXPECT_EQ(preds[i].decision_value, f_seq[i]) << "request " << i;
    EXPECT_FALSE(preds[i].cache_hit);
  }
}

TEST(InferenceEngine, KernelConcurrencyStaysWithinPoolBudget) {
  // Thread-budget contract: the dense-kernel concurrency observed during
  // a batch never exceeds the engine's pool width — every lane pins its
  // kernels serial, so lanes x OMP cannot multiply. Accelerated kernels
  // run inside the probe, so the peak is at least 1 and the check is
  // live; it covers a full batch and a one-request batch.
  Serving s = make_serving(12);
  s.bundle.config.sim.policy = linalg::ExecPolicy::Accelerated;
  EngineConfig cfg;
  cfg.num_threads = 2;
  cfg.cache_capacity = 0;
  cfg.memo_capacity = 0;
  InferenceEngine engine(s.bundle, cfg);

  linalg::kernel_probe_reset();
  (void)engine.predict_batch(raw_rows(s.x_test_raw));
  EXPECT_GE(linalg::kernel_probe_peak(), 1);
  EXPECT_LE(linalg::kernel_probe_peak(), 2);

  linalg::kernel_probe_reset();
  (void)engine.predict_batch(
      std::vector<std::vector<double>>{raw_row(s.x_test_raw, 0)});
  EXPECT_GE(linalg::kernel_probe_peak(), 1);
  EXPECT_LE(linalg::kernel_probe_peak(), 2);
}

TEST(InferenceEngine, SubmitRejectsMalformedRequests) {
  const Serving s = make_serving(6);
  InferenceEngine engine(s.bundle, {.num_threads = 2});
  EXPECT_THROW(engine.submit({0.1, 0.2}), Error);  // wrong feature count
  // Non-finite features must fail the caller, not score as a confident
  // label (NaN decision values would all map to -1).
  std::vector<double> bad(6, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(engine.submit(bad), Error);
  bad.assign(6, std::numeric_limits<double>::infinity());
  EXPECT_THROW(engine.submit(bad), Error);
}

TEST(InferenceEngine, RejectsBundleWithoutSupportVectors) {
  const Serving s = make_serving(7);
  ModelBundle empty = s.bundle;
  empty.sv_states.clear();
  empty.model.alpha.clear();
  empty.model.y.clear();
  empty.sv_indices.clear();
  EXPECT_THROW(InferenceEngine(std::move(empty), {.num_threads = 2}), Error);
}

TEST(InferenceEngine, DestructionDrainsPendingRequests) {
  const Serving s = make_serving(8);
  std::vector<std::future<Prediction>> futures;
  {
    EngineConfig cfg;
    cfg.max_batch = 2;
    cfg.num_threads = 2;
    cfg.batch_deadline = std::chrono::microseconds(50);
    InferenceEngine engine(s.bundle, cfg);
    for (idx i = 0; i < s.x_test_raw.rows(); ++i)
      futures.push_back(engine.submit(raw_row(s.x_test_raw, i)));
    // Engine goes out of scope with (likely) work still queued.
  }
  for (auto& f : futures) {
    const Prediction p = f.get();  // every promise was fulfilled
    EXPECT_TRUE(p.label == 1 || p.label == -1);
  }
}

}  // namespace
}  // namespace qkmps::serve
