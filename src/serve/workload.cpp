#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>

#include "serve/feature_key.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qkmps::serve::workload {

const char* to_string(KeyPattern pattern) {
  switch (pattern) {
    case KeyPattern::kUniform:
      return "uniform";
    case KeyPattern::kZipf:
      return "zipf";
    case KeyPattern::kDuplicateHeavy:
      return "duplicate-heavy";
  }
  return "unknown";
}

const char* to_string(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kSteady:
      return "steady";
    case ArrivalPattern::kBurst:
      return "burst";
    case ArrivalPattern::kRamp:
      return "ramp";
  }
  return "unknown";
}

std::vector<double> Scenario::request(idx r) const {
  QKMPS_CHECK(r >= 0 && r < size());
  const idx row = order[static_cast<std::size_t>(r)];
  return std::vector<double>(unique_points.row(row),
                             unique_points.row(row) + unique_points.cols());
}

namespace {

/// Inverse-CDF sampling over ranks 1..n with P(k) ~ k^-s. The table is
/// built once per scenario; lookups binary-search the cumulative weights.
std::vector<double> zipf_cdf(idx n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0.0;
  for (idx k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// FNV-1a byte fold.
void fnv_mix(std::uint64_t& h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

/// The arrival offset of request r, advanced one request at a time.
/// Arrivals are a pure function of the config (no randomness). The
/// per-pattern arithmetic is what the scenario digests pinned in
/// tests/test_workload.cpp and bench/baselines/ were recorded with:
/// change an expression and every digest moves.
double arrival_at(const ScenarioConfig& cfg, idx r, double& ramp_t) {
  switch (cfg.arrival) {
    case ArrivalPattern::kSteady:
      return cfg.mean_gap_us * static_cast<double>(r);
    case ArrivalPattern::kBurst:
      return cfg.burst_gap_us * static_cast<double>(r / cfg.burst_size);
    case ArrivalPattern::kRamp: {
      // Gap shrinks linearly from mean_gap_us down to
      // mean_gap_us / ramp_factor by the final request.
      const double at = ramp_t;
      const double n1 = static_cast<double>(
          std::max<idx>(1, cfg.num_requests - 1));
      const double frac = static_cast<double>(r) / n1;
      const double gap =
          cfg.mean_gap_us * (1.0 - frac * (1.0 - 1.0 / cfg.ramp_factor));
      ramp_t += gap;
      return at;
    }
  }
  return 0.0;
}

}  // namespace

Scenario make_scenario(const ScenarioConfig& cfg,
                       const kernel::RealMatrix& pool) {
  QKMPS_CHECK(cfg.num_requests >= 1);
  QKMPS_CHECK(cfg.num_unique >= 1);
  QKMPS_CHECK_MSG(pool.rows() >= cfg.num_unique,
                  "pool has " << pool.rows() << " rows, scenario needs "
                              << cfg.num_unique << " unique points");
  QKMPS_CHECK(cfg.burst_size >= 1);
  QKMPS_CHECK(cfg.ramp_factor >= 1.0);
  Rng rng(cfg.seed);

  // Unique points: a deterministic sample of distinct pool rows
  // (partial Fisher-Yates over the row indices). These are the first Rng
  // draws; the key draws below follow them.
  std::vector<idx> rows(static_cast<std::size_t>(pool.rows()));
  for (idx i = 0; i < pool.rows(); ++i) rows[static_cast<std::size_t>(i)] = i;
  for (idx i = 0; i < cfg.num_unique; ++i) {
    const idx j = i + static_cast<idx>(rng.uniform_int(
                          static_cast<std::uint64_t>(pool.rows() - i)));
    std::swap(rows[static_cast<std::size_t>(i)],
              rows[static_cast<std::size_t>(j)]);
  }
  Scenario s;
  s.config = cfg;
  s.unique_points = kernel::RealMatrix(cfg.num_unique, pool.cols());
  for (idx i = 0; i < cfg.num_unique; ++i)
    std::copy(pool.row(rows[static_cast<std::size_t>(i)]),
              pool.row(rows[static_cast<std::size_t>(i)]) + pool.cols(),
              s.unique_points.row(i));

  const std::vector<double> cdf = cfg.keys == KeyPattern::kZipf
                                      ? zipf_cdf(cfg.num_unique,
                                                 cfg.zipf_exponent)
                                      : std::vector<double>{};
  const auto uniform_key = [&] {
    return static_cast<idx>(
        rng.uniform_int(static_cast<std::uint64_t>(cfg.num_unique)));
  };
  s.order.reserve(static_cast<std::size_t>(cfg.num_requests));
  s.arrival_us.reserve(static_cast<std::size_t>(cfg.num_requests));
  double ramp_t = 0.0;
  for (idx r = 0; r < cfg.num_requests; ++r) {
    idx key = 0;
    switch (cfg.keys) {
      case KeyPattern::kUniform:
        key = uniform_key();
        break;
      case KeyPattern::kZipf: {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
        key = static_cast<idx>(std::min<std::ptrdiff_t>(
            it - cdf.begin(), cfg.num_unique - 1));
        break;
      }
      case KeyPattern::kDuplicateHeavy:
        // Request 0 has no previous key, so it draws no repeat uniform.
        key = r > 0 && rng.uniform() < cfg.repeat_fraction ? s.order.back()
                                                           : uniform_key();
        break;
    }
    s.order.push_back(key);
    s.arrival_us.push_back(arrival_at(cfg, r, ramp_t));
  }
  return s;
}

std::uint64_t scenario_digest(const Scenario& scenario) {
  // FNV-1a, seeded by the unique-point bits, then folded over order and
  // arrival bits — any byte-level divergence changes the digest.
  std::uint64_t h = feature_hash(
      scenario.unique_points.data(),
      static_cast<std::size_t>(scenario.unique_points.rows() *
                               scenario.unique_points.cols()));
  for (idx row : scenario.order) {
    const std::uint64_t v = static_cast<std::uint64_t>(row);
    fnv_mix(h, &v, sizeof v);
  }
  for (double t : scenario.arrival_us) fnv_mix(h, &t, sizeof t);
  return h;
}

std::vector<ScenarioConfig> standard_scenarios(idx num_requests,
                                               idx num_unique,
                                               std::uint64_t seed) {
  std::vector<ScenarioConfig> suite;

  ScenarioConfig uniform;
  uniform.name = "uniform-steady";
  uniform.seed = seed;
  uniform.num_requests = num_requests;
  uniform.num_unique = num_unique;
  suite.push_back(uniform);

  ScenarioConfig zipf = uniform;
  zipf.name = "zipf-hotkey";
  zipf.seed = seed + 1;
  zipf.keys = KeyPattern::kZipf;
  zipf.zipf_exponent = 1.2;
  suite.push_back(zipf);

  ScenarioConfig dup = uniform;
  dup.name = "duplicate-heavy";
  dup.seed = seed + 2;
  dup.keys = KeyPattern::kDuplicateHeavy;
  dup.repeat_fraction = 0.6;
  suite.push_back(dup);

  ScenarioConfig burst = uniform;
  burst.name = "uniform-burst";
  burst.seed = seed + 3;
  burst.arrival = ArrivalPattern::kBurst;
  burst.burst_size = std::max<idx>(1, num_requests / 8);
  burst.burst_gap_us = 400;
  suite.push_back(burst);

  ScenarioConfig ramp = zipf;
  ramp.name = "zipf-ramp";
  ramp.seed = seed + 4;
  ramp.arrival = ArrivalPattern::kRamp;
  ramp.mean_gap_us = 200;
  ramp.ramp_factor = 8.0;
  suite.push_back(ramp);

  return suite;
}

}  // namespace qkmps::serve::workload
