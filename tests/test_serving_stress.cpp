/// Concurrency torture for the sharded serving frontend: many producers
/// slamming the admission queues while shards drain, plus shutdown and
/// resizes under load. Carries the `stress` CTest label (and `serve`),
/// and is excluded from the `smoke` subset — it trades a few seconds of
/// wall clock for interleavings the deterministic suites cannot reach.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/elliptic_synthetic.hpp"
#include "kernel/gram.hpp"
#include "obs/metrics.hpp"
#include "serve/feature_key.hpp"
#include "serve/lru_map.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "serve/workload.hpp"
#include "serve_test_fixture.hpp"
#include "test_helpers.hpp"
#include "util/atomics.hpp"

namespace qkmps::serve {
namespace {

using Serving = qkmps::testing::TrainedServing;

// Shared with the deterministic suite via serve_test_fixture.hpp.
kernel::RealMatrix request_pool() {
  return qkmps::testing::serving_request_pool(128);
}

std::vector<double> reference_values(const Serving& s,
                                     const kernel::RealMatrix& points) {
  return qkmps::testing::sequential_reference(s, points);
}

/// Many producers, tight queues, shed-oldest: every single future must
/// resolve, statuses must partition the traffic, and every *served*
/// prediction must still be bitwise-identical to the sequential pipeline
/// — parity under contention, not just in quiet single-threaded runs.
TEST(ServingStress, ManyProducersNoFutureIsDroppedAndParityHolds) {
  const Serving s = qkmps::testing::train_small_serving(41);
  const auto pool = request_pool();
  const idx n_points = 16;
  kernel::RealMatrix points(n_points, pool.cols());
  for (idx i = 0; i < n_points; ++i)
    for (idx j = 0; j < pool.cols(); ++j) points(i, j) = pool(i, j);
  const std::vector<double> ref = reference_values(s, points);

  RankShardedEngineConfig rcfg;
  rcfg.num_shards = 2;
  rcfg.admission_capacity = 8;  // tight: shedding will fire under load
  rcfg.policy = AdmissionPolicy::kShedOldest;
  rcfg.engine.max_batch = 8;
  RankShardedEngine engine(s.bundle, rcfg);

  constexpr int kProducers = 8;
  constexpr idx kPerProducer = 40;
  std::vector<std::vector<std::pair<idx, std::future<RoutedPrediction>>>>
      per_producer(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      auto& mine = per_producer[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(kPerProducer));
      for (idx r = 0; r < kPerProducer; ++r) {
        const idx u = static_cast<idx>(
            rng.uniform_int(static_cast<std::uint64_t>(n_points)));
        mine.emplace_back(u, engine.submit(std::vector<double>(
                                 points.row(u), points.row(u) + points.cols())));
      }
    });
  }
  for (auto& t : producers) t.join();

  std::uint64_t served = 0, shed = 0, rejected = 0;
  for (auto& mine : per_producer) {
    for (auto& [u, fut] : mine) {
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "future dropped under contention";
      const RoutedPrediction p = fut.get();
      switch (p.status) {
        case ServeStatus::kServed:
          ++served;
          EXPECT_EQ(p.prediction.decision_value,
                    ref[static_cast<std::size_t>(u)]);
          break;
        case ServeStatus::kShed:
          ++shed;
          break;
        case ServeStatus::kRejected:
          ++rejected;
          break;
      }
    }
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(served + shed + rejected, total);
  EXPECT_EQ(rejected, 0u);  // shed-oldest never refuses the new request
  EXPECT_GT(served, 0u);

  const RankShardedStats st = engine.stats();
  EXPECT_EQ(st.submitted, total);
  EXPECT_EQ(st.submitted, st.admitted + st.rejected);
  EXPECT_EQ(st.shed, shed);
  EXPECT_EQ(st.completed, served);
  for (const RankShardStats& shard : st.shards)
    EXPECT_EQ(shard.queue_depth, 0u);
}

/// Shutdown races the drain, not just an idle engine: producers flood the
/// queues, are cut off mid-stream, and the engine is destroyed while its
/// queues are still loaded and its shards mid-batch. Every obtained
/// future must resolve — served or shed, never a broken promise, never a
/// deadlocked join. Three rounds vary how much work is in flight.
TEST(ServingStress, ShutdownUnderLoadNeverDeadlocksOrDropsFutures) {
  const Serving s = qkmps::testing::train_small_serving(43);
  const auto pool = request_pool();

  for (int round = 0; round < 3; ++round) {
    constexpr int kProducers = 4;
    std::vector<std::vector<std::future<RoutedPrediction>>> futures(
        kProducers);
    std::uint64_t resolved_served = 0, resolved_shed = 0;
    {
      RankShardedEngineConfig rcfg;
      rcfg.num_shards = 2;
      rcfg.admission_capacity = 16;
      rcfg.policy = AdmissionPolicy::kShedOldest;
      RankShardedEngine engine(s.bundle, rcfg);

      std::atomic<bool> cut_off{false};
      std::vector<std::thread> producers;
      for (int t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
          Rng rng(static_cast<std::uint64_t>(round * 10 + t));
          // First few submissions ignore the cut-off so every round has
          // real work in flight at destruction time (round 0 cuts off
          // immediately).
          for (idx r = 0; r < 60 && (r < 5 || !cut_off.load()); ++r) {
            const idx u = static_cast<idx>(
                rng.uniform_int(static_cast<std::uint64_t>(pool.rows())));
            futures[static_cast<std::size_t>(t)].push_back(
                engine.submit(std::vector<double>(
                    pool.row(u), pool.row(u) + pool.cols())));
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * round));
      cut_off.store(true);
      for (auto& t : producers) t.join();
      // Engine destroyed here: queues very likely non-empty, shards
      // mid-batch. The destructor must finish every admitted request.
    }
    for (auto& mine : futures) {
      for (auto& fut : mine) {
        ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "future dropped across shutdown";
        const RoutedPrediction p = fut.get();
        if (p.status == ServeStatus::kServed)
          ++resolved_served;
        else if (p.status == ServeStatus::kShed)
          ++resolved_shed;
      }
    }
    EXPECT_GT(resolved_served, 0u);
    (void)resolved_shed;  // may be zero on an unlucky schedule; that's fine
  }
}

// ---------------------------------------------------------------------
// TSan-targeted scenarios (DESIGN.md §11). These run in the normal
// stress suite too, but their assertions are deliberately loose — their
// real job is to drive every cross-thread edge of the serving API at
// once under -DQKMPS_SANITIZE=thread, where the *sanitizer* is the
// oracle: any unsuppressed report fails the CI job.

/// Drives the three public surfaces of RankShardedEngine from separate
/// threads simultaneously: producers in submit(), a poller in stats(),
/// and the caller thread resizing the topology. Every obtained future
/// must resolve and the counters must stay coherent — while TSan watches
/// the lifecycle_mu_/topology_mu_/mu_ discipline do its job.
template <typename MakeEngine>
void resize_races_submit_and_stats(const kernel::RealMatrix& pool,
                                   MakeEngine make_engine) {
  RankShardedEngine engine = make_engine();

  std::atomic<bool> stop_polling{false};
  constexpr int kProducers = 2;
  constexpr idx kPerProducer = 15;
  std::vector<std::vector<std::future<RoutedPrediction>>> futures(kProducers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kProducers; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(200 + t));
      for (idx r = 0; r < kPerProducer; ++r) {
        const idx u = static_cast<idx>(
            rng.uniform_int(static_cast<std::uint64_t>(pool.rows())));
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(std::vector<double>(pool.row(u),
                                              pool.row(u) + pool.cols())));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  workers.emplace_back([&] {
    while (!stop_polling.load()) {
      const RankShardedStats st = engine.stats();
      // Monotone counters can only be read mid-flight as inequalities.
      EXPECT_LE(st.admitted + st.rejected, st.submitted + 1);
      for (std::size_t i = 0; i < st.shards.size(); ++i)
        (void)engine.worker_pid(i);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Three grow/shrink rounds against live traffic. Slot ids are never
  // reused, so round r removes original shard r while two stay live:
  // {0,1} -> {1,2} -> {2,3} -> {3,4}.
  for (std::size_t round = 0; round < 3; ++round) {
    engine.add_shard(1.0);
    engine.remove_shard(round);
  }

  for (int t = 0; t < kProducers; ++t) workers[static_cast<std::size_t>(t)].join();
  stop_polling.store(true);
  workers.back().join();

  std::uint64_t resolved = 0;
  for (auto& mine : futures) {
    for (auto& fut : mine) {
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "future dropped across a resize";
      const RoutedPrediction p = fut.get();
      EXPECT_TRUE(p.status == ServeStatus::kServed ||
                  p.status == ServeStatus::kShed ||
                  p.status == ServeStatus::kRejected);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, static_cast<std::uint64_t>(kProducers) * kPerProducer);

  const RankShardedStats st = engine.stats();
  EXPECT_EQ(st.submitted, resolved);
  EXPECT_EQ(st.submitted, st.admitted + st.rejected);
  EXPECT_EQ(st.resizes, 6u);
}

TEST(ServingStress, RankShardedResizeRacesSubmitAndStatsInProcess) {
  const Serving s = qkmps::testing::train_small_serving(44);
  const auto pool = request_pool();
  resize_races_submit_and_stats(pool, [&] {
    RankShardedEngineConfig rcfg;
    rcfg.num_shards = 2;
    rcfg.engine.max_batch = 8;
    return RankShardedEngine(s.bundle, rcfg);
  });
}

#ifdef QKMPS_RANKD_PATH
/// Socket-mode twin: the resize requests travel through the router
/// thread's execute_add/execute_remove, so this is the scenario that
/// races the router's topology_mu_ pointer-grab reads against external
/// stats()/worker_pid() readers and the resize caller.
TEST(ServingStress, RankShardedResizeRacesSubmitAndStatsSocket) {
  const Serving s = qkmps::testing::train_small_serving(45);
  const auto pool = request_pool();
  const std::string bundle_dir = ::testing::TempDir() +
                                 "/qkmps_stress_bundle_" +
                                 std::to_string(::getpid());
  resize_races_submit_and_stats(pool, [&] {
    RankShardedEngineConfig rcfg;
    rcfg.num_shards = 2;
    rcfg.engine.max_batch = 8;
    rcfg.transport = TransportKind::kSocket;
    rcfg.socket.worker_path = QKMPS_RANKD_PATH;
    rcfg.socket.bundle_dir = bundle_dir;
    return RankShardedEngine(s.bundle, rcfg);
  });
  std::filesystem::remove_all(bundle_dir);
  std::filesystem::remove_all(bundle_dir + ".tmp");
}
#endif  // QKMPS_RANKD_PATH

/// Pins the relaxed-atomic registry snapshot path: writers hammer the
/// instruments while a reader renders. The counters are per-instrument
/// atomics, so the final values are exact even though a mid-flight
/// render sees a torn-across-instruments (but per-instrument valid)
/// view — which is the documented contract.
TEST(ServingStress, RegistrySnapshotRacesObservers) {
  obs::Registry registry;
  obs::Counter& hits = registry.counter("stress.hits");
  obs::Histogram& lat = registry.histogram("stress.latency");

  constexpr int kWriters = 3;
  constexpr std::uint64_t kPerWriter = 2000;
  std::atomic<bool> stop_reading{false};
  std::thread reader([&] {
    while (!stop_reading.load()) {
      const std::string json = registry.render_json();
      EXPECT_NE(json.find("stress.hits"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        hits.add(1);
        lat.observe(1e-4 * static_cast<double>((i % 100) + 1));
        // Late names race the registry map against the render walk.
        registry.counter("stress.late." + std::to_string(t)).add(1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_reading.store(true);
  reader.join();

  EXPECT_EQ(hits.value(), kWriters * kPerWriter);
  EXPECT_EQ(lat.snapshot().count, kWriters * kPerWriter);
  const std::string final_json = registry.render_json();
  EXPECT_NE(final_json.find("stress.late.0"), std::string::npos);
}

/// Pins the LruMap contract that stats() is a lock-free snapshot safe
/// against concurrent lookup traffic, and that the counters add up once
/// the traffic stops.
TEST(ServingStress, LruMapStatsSnapshotRacesLookups) {
  LruMap<int> map(8);
  constexpr int kMutators = 2;
  constexpr std::uint64_t kOpsPerMutator = 3000;

  std::vector<std::vector<double>> keys;
  std::vector<std::uint64_t> hashes;
  for (int k = 0; k < 32; ++k) {
    keys.push_back({static_cast<double>(k), 0.5 * k});
    hashes.push_back(feature_hash(keys.back()));
  }

  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    while (!stop_polling.load()) {
      const LruStats st = map.stats();
      EXPECT_GE(st.insertions, st.evictions);
      EXPECT_LE(map.size(), map.capacity());
    }
  });
  std::vector<std::thread> mutators;
  std::vector<std::uint64_t> finds(kMutators, 0);
  for (int t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(300 + t));
      for (std::uint64_t i = 0; i < kOpsPerMutator; ++i) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::uint64_t>(keys.size())));
        if (!map.find(keys[k], hashes[k]).has_value())
          map.insert(keys[k], hashes[k], static_cast<int>(k));
        ++finds[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& m : mutators) m.join();
  stop_polling.store(true);
  poller.join();

  const LruStats st = map.stats();
  std::uint64_t total_finds = 0;
  for (const std::uint64_t f : finds) total_finds += f;
  EXPECT_EQ(st.hits + st.misses, total_finds);
  EXPECT_EQ(st.insertions - st.evictions, map.size());
}

/// fetch_max under contention: the high-water mark must converge to the
/// true maximum (no lost update despite the relaxed CAS loop), and it
/// must never move backwards as observed by a concurrent reader.
TEST(ServingStress, FetchMaxConvergesUnderContention) {
  std::atomic<std::uint64_t> high_water{0};
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;

  std::atomic<bool> stop_watching{false};
  std::thread watcher([&] {
    std::uint64_t last = 0;
    while (!stop_watching.load()) {
      const std::uint64_t now = high_water.load(std::memory_order_relaxed);
      EXPECT_GE(now, last) << "high-water mark moved backwards";
      last = now;
    }
  });
  std::vector<std::thread> bumpers;
  for (int t = 0; t < kThreads; ++t) {
    bumpers.emplace_back([&, t] {
      // Interleaved ranges: every thread repeatedly loses the CAS race
      // to later values from its peers.
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        fetch_max(high_water, i * kThreads + static_cast<std::uint64_t>(t));
    });
  }
  for (auto& b : bumpers) b.join();
  stop_watching.store(true);
  watcher.join();

  EXPECT_EQ(high_water.load(),
            (kPerThread - 1) * kThreads + (kThreads - 1));
}

}  // namespace
}  // namespace qkmps::serve
