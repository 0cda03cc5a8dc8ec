/// Distributed Gram-matrix computation — Fig. 4's two strategies, live.
///
/// Runs the same kernel computation under the no-messaging strategy
/// (Fig. 4a: zero communication, duplicated simulations) and the
/// round-robin strategy (Fig. 4b: each circuit simulated once, states ride
/// a ring), verifies they agree entry-for-entry with the sequential
/// reference, and prints the cost profile of each — the trade-off the
/// paper discusses in Sec. II-D.

#include <cstdio>

#include "qkmps.hpp"

using namespace qkmps;

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const idx n = 48, m = 16;

  data::EllipticSyntheticParams gen;
  gen.num_points = 1000;
  gen.num_features = m;
  const data::Dataset pool = data::generate_elliptic_synthetic(gen);
  Rng rng(11);
  std::vector<idx> rows;
  for (idx i = 0; i < n; ++i)
    rows.push_back(static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(pool.size()))));
  const data::Dataset sample = pool.select(rows);
  const data::FeatureScaler scaler = data::FeatureScaler::fit(sample.x);
  const auto x = scaler.transform(sample.x);

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 2, .distance = 1, .gamma = 0.5};

  std::printf("Gram matrix on %lld points, %lld features, %d thread-backed ranks\n\n",
              static_cast<long long>(n), static_cast<long long>(m), ranks);

  // Sequential reference.
  kernel::GramStats seq_stats;
  Timer t_seq;
  const auto k_seq = kernel::gram_matrix(cfg, x, &seq_stats);
  const double seq_secs = t_seq.seconds();

  struct Outcome {
    const char* name;
    kernel::RealMatrix k;
    kernel::GramStats stats;
    double wall = 0.0;
  };
  std::vector<Outcome> outcomes;
  for (auto [name, strategy] :
       {std::pair{"no-messaging", kernel::DistributionStrategy::NoMessaging},
        std::pair{"round-robin", kernel::DistributionStrategy::RoundRobin}}) {
    Outcome o{name, {}, {}, 0.0};
    Timer t;
    o.k = kernel::distributed_gram_matrix(cfg, x, ranks, strategy, &o.stats);
    o.wall = t.seconds();
    outcomes.push_back(std::move(o));
  }

  std::printf("%14s %10s %12s %12s %12s %12s\n", "strategy", "wall (s)",
              "circuits", "overlaps", "comm (s)", "max|diff|");
  std::printf("%14s %10.3f %12lld %12lld %12s %12s\n", "sequential", seq_secs,
              static_cast<long long>(seq_stats.circuits_simulated),
              static_cast<long long>(seq_stats.inner_products), "-", "-");
  for (const auto& o : outcomes) {
    std::printf("%14s %10.3f %12lld %12lld %12.4f %12.2e\n", o.name, o.wall,
                static_cast<long long>(o.stats.circuits_simulated),
                static_cast<long long>(o.stats.inner_products),
                o.stats.communication_seconds,
                kernel::max_abs_diff(o.k, k_seq));
  }

  std::printf("\nwhat to notice (Sec. II-D):\n"
              " - no-messaging simulates %lld circuits for %lld data points "
              "(duplication across tiles);\n"
              " - round-robin simulates each circuit exactly once and pays a "
              "small communication cost instead;\n"
              " - both reproduce the sequential Gram matrix exactly.\n",
              static_cast<long long>(outcomes[0].stats.circuits_simulated),
              static_cast<long long>(n));
  return 0;
}
