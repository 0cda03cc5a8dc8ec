#include "soak/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qkmps::soak {

namespace {

bool bitwise_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

struct InFlight {
  std::future<serve::RoutedPrediction> future;
  Priority priority = Priority::kStandard;
  idx row = 0;
};

}  // namespace

SoakHarness::SoakHarness(kernel::RealMatrix pool,
                         std::vector<double> reference, SoakConfig config)
    : pool_(std::move(pool)),
      reference_(std::move(reference)),
      config_(config) {
  QKMPS_CHECK_MSG(pool_.rows() > 0, "soak needs a non-empty request pool");
  QKMPS_CHECK_MSG(
      reference_.empty() ||
          static_cast<idx>(reference_.size()) == pool_.rows(),
      "reference must be empty or one value per pool row");
  QKMPS_CHECK(config_.max_in_flight > 0);
  QKMPS_CHECK(config_.num_unique >= 0 && config_.num_unique <= pool_.rows());
  QKMPS_CHECK(config_.interactive_fraction >= 0.0 &&
              config_.standard_fraction >= 0.0 &&
              config_.interactive_fraction + config_.standard_fraction <= 1.0);
  QKMPS_CHECK_MSG(
      config_.batch_gate_fraction <= config_.standard_gate_fraction,
      "batch must gate at or below standard (strict priority order)");
}

SoakReport SoakHarness::run(
    serve::RankShardedEngine& engine, RelationCoverageMap* coverage,
    const std::function<void(const SoakReport&)>& progress) {
  const SloAccountant::EngineTotals before =
      SloAccountant::totals(engine.stats());
  const idx num_unique =
      config_.num_unique == 0 ? pool_.rows() : config_.num_unique;
  Rng rng(config_.seed);
  SloAccountant slo(config_.slo);
  Timer timer;

  SoakReport report;
  std::deque<InFlight> window;

  // First-seen bookkeeping per unique key: the in-stream metamorphic
  // oracles. O(num_unique), independent of total_requests.
  std::vector<char> seen(static_cast<std::size_t>(num_unique), 0);
  std::vector<double> first_value(static_cast<std::size_t>(num_unique), 0.0);
  std::vector<int> first_shard(static_cast<std::size_t>(num_unique), -1);

  std::uint64_t harvested = 0;

  const EngineState base_state{false, config_.post_resize,
                               config_.post_death};

  const auto harvest = [&](InFlight item) {
    const std::size_t key = static_cast<std::size_t>(item.row);
    serve::RoutedPrediction r;
    try {
      r = item.future.get();
    } catch (const std::exception&) {
      ++report.lost;
      ++harvested;
      return;
    }
    const double now_s = timer.seconds();
    slo.record(item.priority, r.status, r.total_seconds, now_s);
    if (r.status == serve::ServeStatus::kServed) {
      const bool warm = seen[key] != 0;
      // In-stream bitwise parity: against the reference oracle when we
      // have one, against the key's first serve always.
      bool parity_ok = true;
      if (!reference_.empty() &&
          !bitwise_equal(r.prediction.decision_value, reference_[key]))
        parity_ok = false;
      if (warm &&
          !bitwise_equal(r.prediction.decision_value, first_value[key]))
        parity_ok = false;
      if (!parity_ok) ++report.parity_violations;
      // Routing stability: a key must keep its shard (topology is
      // whatever history the config flags describe, fixed during a run).
      bool routing_ok = true;
      if (warm && r.shard != first_shard[key]) routing_ok = false;
      if (!routing_ok) ++report.routing_violations;
      if (coverage != nullptr) {
        EngineState state = base_state;
        state.warm_cache = warm;
        // Cold parity needs the oracle; without it the first serve only
        // establishes the warm baseline.
        if (warm || !reference_.empty())
          coverage->record(Relation::kBitwiseParity, state);
        if (warm) coverage->record(Relation::kRoutingStability, state);
      }
      if (!warm) {
        seen[key] = 1;
        first_value[key] = r.prediction.decision_value;
        first_shard[key] = r.shard;
      }
    }
    ++harvested;
    if (progress && config_.progress_every != 0 &&
        harvested % config_.progress_every == 0) {
      SoakReport live = report;
      live.attempted = harvested + report.gated;
      live.elapsed_seconds = timer.seconds();
      live.peak_in_flight =
          std::max<std::uint64_t>(live.peak_in_flight, window.size());
      live.slo = slo.snapshot(timer.seconds(), config_.report_window_s);
      progress(live);
    }
  };

  for (std::uint64_t r = 0; r < config_.total_requests; ++r) {
    ++report.attempted;

    // Priority draw, then the soak-level gate: lower classes yield while
    // the in-flight window is congested.
    const double u = rng.uniform();
    Priority priority = Priority::kBatch;
    if (u < config_.interactive_fraction) {
      priority = Priority::kInteractive;
    } else if (u < config_.interactive_fraction + config_.standard_fraction) {
      priority = Priority::kStandard;
    }
    // Harvest whatever has already resolved, so `fullness` is the share
    // of the window still unresolved: the gate measures congestion, not
    // how long ago the full window was last drained.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (window[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        harvest(std::move(window[i]));
      } else {
        if (kept != i) window[kept] = std::move(window[i]);
        ++kept;
      }
    }
    window.resize(kept);
    const double fullness = static_cast<double>(window.size()) /
                            static_cast<double>(config_.max_in_flight);
    const bool gate =
        (priority == Priority::kBatch &&
         fullness >= config_.batch_gate_fraction) ||
        (priority == Priority::kStandard &&
         fullness >= config_.standard_gate_fraction);
    if (gate) {
      slo.record_gated(priority);
      ++report.gated;
      continue;
    }

    while (window.size() >= config_.max_in_flight) {
      InFlight oldest = std::move(window.front());
      window.pop_front();
      harvest(std::move(oldest));
    }

    const idx row = static_cast<idx>(
        rng.uniform_int(static_cast<std::uint64_t>(num_unique)));
    InFlight item;
    item.priority = priority;
    item.row = row;
    item.future = engine.submit(std::vector<double>(
        pool_.row(row), pool_.row(row) + pool_.cols()));
    window.push_back(std::move(item));
    report.peak_in_flight =
        std::max<std::uint64_t>(report.peak_in_flight, window.size());
  }

  while (!window.empty()) {
    InFlight oldest = std::move(window.front());
    window.pop_front();
    harvest(std::move(oldest));
  }

  report.elapsed_seconds = timer.seconds();
  report.slo = slo.snapshot(report.elapsed_seconds, config_.report_window_s);
  // The ledger only saw this run's traffic; reconcile against the
  // engine's deltas, not its lifetime totals.
  SloAccountant::EngineTotals delta = SloAccountant::totals(engine.stats());
  delta.submitted -= before.submitted;
  delta.completed -= before.completed;
  delta.rejected -= before.rejected;
  delta.shed -= before.shed;
  report.reconciled = slo.reconciles(delta, &report.reconcile_detail);
  return report;
}

}  // namespace qkmps::soak
