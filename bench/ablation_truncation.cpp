/// Ablation — truncation aggressiveness (the paper's conclusion: "if future
/// work shows that using more complex circuit ansatze is beneficial, more
/// aggressive truncation may be deemed necessary ... analysis of the noise
/// induced by truncation would be necessary"). This bench performs exactly
/// that analysis: sweep a hard bond-dimension cap chi_max, and report
///   - simulation speedup vs the exact (1e-16 weight budget) baseline,
///   - kernel error ||K_capped - K_exact||_max,
///   - accumulated discarded weight (the Eq. 8 fidelity bound),
///   - test AUC of the resulting model.
/// Times are medians of three rounds; each round runs the uncapped
/// baseline and then every cap, and a cap's speedup is the median of its
/// three same-round ratios, printed with their range. The closing reading
/// is derived from the table.
///
/// Knobs: QKMPS_FULL=1, QKMPS_FEATURES, QKMPS_PER_CLASS, QKMPS_DIST.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "kernel/gram.hpp"
#include "svm/model_selection.hpp"
#include "util/timer.hpp"

using namespace qkmps;

int main() {
  bench::print_header("Ablation: SVD truncation aggressiveness (chi cap)");
  const bool full = full_scale_requested();
  const idx features = static_cast<idx>(env_int("QKMPS_FEATURES", full ? 24 : 12));
  const idx per_class = static_cast<idx>(env_int("QKMPS_PER_CLASS", full ? 100 : 30));
  const idx d = static_cast<idx>(env_int("QKMPS_DIST", 3));

  const bench::LabelledSample s = bench::labelled_sample(per_class, features, 77);

  struct CapRun {
    kernel::RealMatrix k_train;
    double seconds, weight, auc, chi;
  };
  auto run_with_cap = [&](idx cap) {
    kernel::QuantumKernelConfig cfg;
    cfg.ansatz = {.num_features = features, .layers = 2, .distance = d,
                  .gamma = 0.35};
    cfg.sim.truncation.max_bond = cap;
    kernel::GramStats stats;
    Timer t;
    const auto train_states = kernel::simulate_states(cfg, s.x_train, &stats);
    const auto test_states = kernel::simulate_states(cfg, s.x_test, &stats);
    auto k_train = kernel::gram_from_states(train_states, cfg.sim.policy, &stats);
    const auto k_test = kernel::cross_from_states(test_states, train_states,
                                                  cfg.sim.policy, &stats);
    const double secs = t.seconds();
    const auto sweep = svm::sweep_regularization(k_train, s.y_train, k_test,
                                                 s.y_test, svm::default_c_grid());
    return CapRun{std::move(k_train), secs, stats.total_discarded_weight,
                  svm::best_by_test_auc(sweep).test.auc, stats.avg_max_bond()};
  };

  // Cap 0 is the uncapped baseline. Every round runs it and then each cap,
  // so a drift in the host's speed reaches the baseline and the caps alike.
  // Everything but the time is deterministic: the first round's is kept.
  // An untimed warm-up run takes the first run's cold caches and page
  // faults out of round one.
  constexpr int kRounds = 3;
  const std::vector<idx> caps = {0, 64, 32, 16, 8, 4, 2};
  run_with_cap(0);
  std::vector<CapRun> runs;
  std::vector<std::vector<double>> secs(caps.size());
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t c = 0; c < caps.size(); ++c) {
      CapRun r = run_with_cap(caps[c]);
      secs[c].push_back(r.seconds);
      if (round == 0) runs.push_back(std::move(r));
    }

  const CapRun& exact = runs[0];
  std::printf("baseline (weight budget 1e-16 only): %.2fs median of %d, "
              "avg chi %.1f, AUC %.3f\n\n",
              quantile(secs[0], 0.5), kRounds, exact.chi, exact.auc);
  std::printf("%8s %10s %10s %15s %14s %16s %8s\n", "chi cap", "time (s)",
              "speedup", "speedup range", "max|K err|", "disc. weight", "AUC");

  struct Row {
    idx cap;
    double speedup, lo, hi, k_err;
  };
  std::vector<Row> rows;
  for (std::size_t c = 1; c < caps.size(); ++c) {
    std::vector<double> ratios;
    for (int round = 0; round < kRounds; ++round)
      ratios.push_back(secs[0][round] / secs[c][round]);
    const Summary r = summarize(ratios);
    const CapRun& run = runs[c];
    rows.push_back({caps[c], r.median, r.min, r.max,
                    kernel::max_abs_diff(run.k_train, exact.k_train)});
    std::printf("%8lld %10.2f %9.2fx %7.2f-%5.2fx %14.2e %16.2e %8.3f\n",
                static_cast<long long>(caps[c]), quantile(secs[c], 0.5),
                r.median, r.min, r.max, rows.back().k_err, run.weight, run.auc);
  }

  // The reading, from the table: which caps change nothing, what the
  // first and the tightest binding caps buy, and whether any cap moves the
  // AUC.
  const auto verdict = [](const Row& r) {
    return r.lo > 1.0   ? "faster in every round"
           : r.hi < 1.0 ? "slower in every round"
                        : "within the timing noise";
  };
  std::printf("\nreading:\n");
  for (const Row& r : rows)
    if (r.k_err == 0.0)
      std::printf("  cap %lld leaves the kernel bit-identical, so it runs the "
                  "uncapped sweep: its %.2f-%.2fx is the timing noise.\n",
                  static_cast<long long>(r.cap), r.lo, r.hi);
  const auto first = std::find_if(rows.begin(), rows.end(),
                                  [](const Row& r) { return r.k_err > 0.0; });
  for (const auto it : {first, rows.end() - 1})
    if (it != rows.end())
      std::printf("  cap %lld%s: max|K err| %.2e at %.2fx (%.2f-%.2fx), %s.\n",
                  static_cast<long long>(it->cap),
                  it == first ? ", the first to change the kernel" : ", the tightest",
                  it->k_err, it->speedup, it->lo, it->hi, verdict(*it));
  const auto moved = std::find_if(runs.begin() + 1, runs.end(), [&](const CapRun& r) {
    return r.auc != exact.auc;
  });
  if (moved == runs.end())
    std::printf("  AUC reads %.3f at every cap, the baseline included: no cap "
                "in this sweep moves the model.\n",
                exact.auc);
  else
    std::printf("  AUC first moves at cap %lld: %.3f -> %.3f.\n",
                static_cast<long long>(caps[static_cast<std::size_t>(moved - runs.begin())]),
                exact.auc, moved->auc);
  return 0;
}
