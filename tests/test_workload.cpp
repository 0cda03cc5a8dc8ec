#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/elliptic_synthetic.hpp"
#include "serve/workload.hpp"

namespace qkmps::serve::workload {
namespace {

kernel::RealMatrix small_pool(idx rows = 64, idx cols = 5) {
  data::EllipticSyntheticParams gen;
  gen.num_points = rows;
  gen.num_features = cols;
  return data::generate_elliptic_synthetic(gen).x;
}

std::vector<idx> counts(const Scenario& s) {
  std::vector<idx> c(static_cast<std::size_t>(s.config.num_unique), 0);
  for (idx row : s.order) ++c[static_cast<std::size_t>(row)];
  return c;
}

TEST(Workload, SameSeedReplaysByteForByte) {
  const auto pool = small_pool();
  for (const ScenarioConfig& cfg : standard_scenarios(200, 24, 11)) {
    const Scenario a = make_scenario(cfg, pool);
    const Scenario b = make_scenario(cfg, pool);
    ASSERT_EQ(a.order, b.order) << cfg.name;
    ASSERT_EQ(a.arrival_us, b.arrival_us) << cfg.name;
    for (idx i = 0; i < a.unique_points.rows(); ++i)
      for (idx j = 0; j < a.unique_points.cols(); ++j)
        ASSERT_EQ(a.unique_points(i, j), b.unique_points(i, j)) << cfg.name;
    EXPECT_EQ(scenario_digest(a), scenario_digest(b)) << cfg.name;
  }
}

TEST(Workload, DifferentSeedsDiverge) {
  const auto pool = small_pool();
  ScenarioConfig cfg;
  cfg.num_requests = 100;
  cfg.num_unique = 16;
  cfg.seed = 1;
  const Scenario a = make_scenario(cfg, pool);
  cfg.seed = 2;
  const Scenario b = make_scenario(cfg, pool);
  EXPECT_NE(scenario_digest(a), scenario_digest(b));
}

TEST(Workload, DigestIsSensitiveToOrder) {
  const auto pool = small_pool();
  ScenarioConfig cfg;
  cfg.num_requests = 50;
  cfg.num_unique = 8;
  Scenario s = make_scenario(cfg, pool);
  const std::uint64_t before = scenario_digest(s);
  std::swap(s.order.front(), s.order.back());
  if (s.order.front() != s.order.back())
    EXPECT_NE(scenario_digest(s), before);
}

TEST(Workload, UniquePointsAreDistinctPoolRows) {
  const auto pool = small_pool(32, 4);
  ScenarioConfig cfg;
  cfg.num_unique = 16;
  cfg.num_requests = 64;
  const Scenario s = make_scenario(cfg, pool);
  ASSERT_EQ(s.unique_points.rows(), 16);
  std::set<std::vector<double>> seen;
  for (idx i = 0; i < s.unique_points.rows(); ++i)
    seen.insert(std::vector<double>(s.unique_points.row(i),
                                    s.unique_points.row(i) + 4));
  EXPECT_EQ(seen.size(), 16u);  // sampled without replacement
  for (idx row : s.order) {
    EXPECT_GE(row, 0);
    EXPECT_LT(row, 16);
  }
}

TEST(Workload, ZipfConcentratesOnHotKeys) {
  const auto pool = small_pool();
  ScenarioConfig cfg;
  cfg.num_requests = 2000;
  cfg.num_unique = 32;
  cfg.keys = KeyPattern::kZipf;
  cfg.zipf_exponent = 1.2;
  const Scenario s = make_scenario(cfg, pool);
  auto c = counts(s);
  const idx hottest = *std::max_element(c.begin(), c.end());
  // Uniform expectation is ~62 per key; a Zipf(1.2) head is several times
  // hotter. Rank 0 must be the (deterministic) mode of the stream.
  EXPECT_GT(hottest, 3 * (cfg.num_requests / cfg.num_unique));
  EXPECT_EQ(c[0], hottest);
}

TEST(Workload, DuplicateHeavyProducesRuns) {
  const auto pool = small_pool();
  ScenarioConfig cfg;
  cfg.num_requests = 1000;
  cfg.num_unique = 32;
  cfg.keys = KeyPattern::kDuplicateHeavy;
  cfg.repeat_fraction = 0.6;
  const Scenario s = make_scenario(cfg, pool);
  idx repeats = 0;
  for (idx r = 1; r < s.size(); ++r)
    if (s.order[static_cast<std::size_t>(r)] ==
        s.order[static_cast<std::size_t>(r - 1)])
      ++repeats;
  // ~60% of arrivals repeat the previous key (plus accidental uniform
  // repeats); well above anything a uniform stream produces.
  EXPECT_GT(repeats, s.size() / 2);
}

TEST(Workload, BurstArrivalsGroupAndAreMonotone) {
  const auto pool = small_pool();
  ScenarioConfig cfg;
  cfg.num_requests = 64;
  cfg.num_unique = 8;
  cfg.arrival = ArrivalPattern::kBurst;
  cfg.burst_size = 16;
  cfg.burst_gap_us = 500;
  const Scenario s = make_scenario(cfg, pool);
  for (idx r = 1; r < s.size(); ++r)
    EXPECT_LE(s.arrival_us[static_cast<std::size_t>(r - 1)],
              s.arrival_us[static_cast<std::size_t>(r)]);
  // All 16 requests of a burst share one arrival offset.
  EXPECT_EQ(s.arrival_us[0], s.arrival_us[15]);
  EXPECT_EQ(s.arrival_us[16], 500.0);
  EXPECT_EQ(s.arrival_us[63], 3 * 500.0);
}

TEST(Workload, RampShrinksInterArrivalGaps) {
  const auto pool = small_pool();
  ScenarioConfig cfg;
  cfg.num_requests = 100;
  cfg.num_unique = 8;
  cfg.arrival = ArrivalPattern::kRamp;
  cfg.mean_gap_us = 100;
  cfg.ramp_factor = 4.0;
  const Scenario s = make_scenario(cfg, pool);
  const double first_gap = s.arrival_us[1] - s.arrival_us[0];
  const double last_gap = s.arrival_us[99] - s.arrival_us[98];
  EXPECT_NEAR(first_gap, 100.0, 2.0);
  EXPECT_LT(last_gap, first_gap / 2.0);  // ramped up well past 2x the rate
  for (idx r = 2; r < s.size(); ++r) {
    const double prev = s.arrival_us[static_cast<std::size_t>(r - 1)] -
                        s.arrival_us[static_cast<std::size_t>(r - 2)];
    const double cur = s.arrival_us[static_cast<std::size_t>(r)] -
                       s.arrival_us[static_cast<std::size_t>(r - 1)];
    EXPECT_LE(cur, prev + 1e-9);
  }
}

TEST(Workload, StandardScenariosAreDistinct) {
  const auto pool = small_pool();
  const auto suite = standard_scenarios(128, 16, 3);
  ASSERT_EQ(suite.size(), 5u);
  std::set<std::string> names;
  std::set<std::uint64_t> digests;
  for (const ScenarioConfig& cfg : suite) {
    names.insert(cfg.name);
    digests.insert(scenario_digest(make_scenario(cfg, pool)));
  }
  EXPECT_EQ(names.size(), suite.size());
  EXPECT_EQ(digests.size(), suite.size());
}

TEST(Workload, StandardScenarioDigestsArePinned) {
  // Any change to the Rng draw order, a key rule or an arrival expression
  // moves these, and would otherwise surface only when a bench artifact's
  // scenario digests are compared against bench/baselines/.
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"uniform-steady", 0x10480e33b7b331c9ull},
      {"zipf-hotkey", 0x6f1357e4d0cbf0c9ull},
      {"duplicate-heavy", 0x42bfa14f6817a749ull},
      {"uniform-burst", 0xdc3d2edbd960ed21ull},
      {"zipf-ramp", 0x0acaafa50c9ecc4bull},
  };
  const auto pool = small_pool();
  const auto suite = standard_scenarios(200, 24, 11);
  ASSERT_EQ(suite.size(), pinned.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, pinned[i].first);
    EXPECT_EQ(scenario_digest(make_scenario(suite[i], pool)), pinned[i].second)
        << suite[i].name;
  }
}

TEST(Workload, RejectsImpossibleConfigs) {
  const auto pool = small_pool(8, 3);
  ScenarioConfig cfg;
  cfg.num_unique = 16;  // more uniques than pool rows
  EXPECT_THROW(make_scenario(cfg, pool), Error);
  cfg.num_unique = 4;
  cfg.num_requests = 0;
  EXPECT_THROW(make_scenario(cfg, pool), Error);
}

}  // namespace
}  // namespace qkmps::serve::workload
