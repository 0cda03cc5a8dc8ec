#include "pipeline.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <utility>

#include "alloc_counter.hpp"
#include "circuit/ansatz.hpp"
#include "data/elliptic_synthetic.hpp"
#include "data/preprocess.hpp"
#include "data/splits.hpp"
#include "host.hpp"
#include "kernel/gram.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "obs/metrics.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_bundle.hpp"
#include "svm/metrics.hpp"
#include "svm/model_selection.hpp"
#include "svm/svm.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace data = qkmps::data;
namespace kernel = qkmps::kernel;
namespace mps = qkmps::mps;
namespace serve = qkmps::serve;
namespace svm = qkmps::svm;
using qkmps::idx;
using Matrix = qkmps::kernel::RealMatrix;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupReps = 3;
/// Depth of the saturated closed loop (2 x the default max_batch). It is
/// also the minimum distance, in requests, between a re-query and the
/// first time its row was sent, so a repeated row has always been scored.
constexpr std::size_t kWindow = 64;
/// The engine's default max_batch. A closed loop of kWindow = 2 x kBatch
/// keeps every batch full, so each run of kBatch completions is one batch
/// and closes one throughput window.
constexpr std::size_t kBatch = 32;
/// Batches per saturated block. The block's first window starts from an
/// idle engine and fills the loop, so only the later ones are measured.
constexpr std::size_t kBlockBatches = 5;
constexpr std::size_t kWarmupRows = 6;
constexpr auto kFutureTimeout = std::chrono::seconds(60);
constexpr std::size_t kMaxFailureNotes = 8;

const std::vector<WorkloadSpec> kWorkloads = {
    // The paper's ansatz at 165 qubits: chi = 2, so each circuit is cheap
    // and the O(N^2) inner products carry ~2/3 of train + score at 240
    // training rows (their share falls below 60% under ~200 rows).
    {"paper", 165, 1, 0.1, 240, 8, 320, 4, 16, 32, 64},
    // Interaction distance 3 on the first 10 columns: chi ~ 29 of at most
    // 32, so the SVD-truncating gate sweep carries training and every
    // served request. Ten qubits, not sixteen: at sixteen a circuit's cost
    // varies from row to row with a coefficient of variation near 0.6, so
    // at the sizes a run affords training time moved ~13% from seed to seed.
    {"entangled", 10, 3, 1.0, 48, 10, 240, 4, 8, 16, 64},
};

/// Tallies correctness checks into the outcome's attempted/failed counts.
class Gate {
 public:
  explicit Gate(RunOutcome* out) : out_(out) {}

  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& note) {
    out_->attempted += attempted;
    out_->failed += failed;
    if (failed > 0 && out_->failures.size() < kMaxFailureNotes)
      out_->failures.push_back(note);
  }
  void check(bool ok, const std::string& note) { tally(1, ok ? 0 : 1, note); }

 private:
  RunOutcome* out_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<double> row_of(const Matrix& x, idx i) {
  return std::vector<double>(x.row(i), x.row(i) + x.cols());
}

/// Which distinct held-out row each request sends. Three of four requests
/// send a row never sent before; every fourth (from the first window on)
/// re-queries a row first sent at least kWindow requests earlier.
struct TrafficPlan {
  std::vector<std::size_t> row_of_request;
  std::vector<bool> repeat;  ///< the request re-queries an earlier row
  std::size_t distinct = 0;
};

TrafficPlan plan_traffic(std::size_t requests, qkmps::Rng& rng) {
  TrafficPlan plan;
  plan.row_of_request.reserve(requests);
  plan.repeat.reserve(requests);
  std::vector<std::size_t> first_sent;
  std::size_t eligible = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (i >= kWindow && i % 4 == 3) {
      while (eligible < first_sent.size() &&
             first_sent[eligible] + kWindow <= i)
        ++eligible;
      plan.row_of_request.push_back(
          static_cast<std::size_t>(rng.uniform_int(eligible)));
      plan.repeat.push_back(true);
      continue;
    }
    plan.row_of_request.push_back(first_sent.size());
    plan.repeat.push_back(false);
    first_sent.push_back(i);
  }
  plan.distinct = first_sent.size();
  return plan;
}

/// Everything set-up hands to the measured phases. The pool itself is
/// dropped once its rows are drawn.
struct Prepared {
  Matrix x_train;  ///< scaled into (0, 2)
  Matrix x_test;
  std::vector<int> y_train;
  std::vector<int> y_test;
  data::FeatureScaler scaler;
  Matrix traffic;     ///< distinct held-out rows, unscaled
  Matrix warmup;      ///< training rows, unscaled
};

/// Generates the full synthetic pool, keeps the workload's feature
/// columns, reserves the held-out traffic rows, draws the balanced sample
/// from the remaining rows, splits it 80/20 and fits the scaler.
Prepared prepare(const WorkloadSpec& w, std::uint64_t seed,
                 std::size_t traffic_rows, double* pool_s, double* prep_s) {
  auto t0 = Clock::now();
  data::Dataset pool =
      data::generate_elliptic_synthetic(data::EllipticSyntheticParams{});
  *pool_s = seconds_since(t0);

  t0 = Clock::now();
  if (w.features < pool.num_features()) pool = pool.with_features(w.features);
  qkmps::Rng rng(seed);
  std::vector<idx> order(static_cast<std::size_t>(pool.size()));
  std::iota(order.begin(), order.end(), idx{0});
  for (std::size_t i = 0; i < traffic_rows; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(order.size() - i));
    std::swap(order[i], order[j]);
  }
  const auto split_at = order.begin() + static_cast<std::ptrdiff_t>(traffic_rows);
  const data::Dataset held_out = pool.select(std::vector<idx>(order.begin(), split_at));
  const data::Dataset rest = pool.select(std::vector<idx>(split_at, order.end()));
  const data::Dataset sample =
      data::balanced_subsample(rest, w.train_rows * 5 / 8, rng);
  const data::TrainTestSplit split = data::train_test_split(sample, 0.2, rng);

  Prepared p;
  p.scaler = data::FeatureScaler::fit(split.train.x);
  p.x_train = p.scaler.transform(split.train.x);
  p.x_test = p.scaler.transform(split.test.x);
  p.y_train = split.train.y;
  p.y_test = split.test.y;
  p.traffic = held_out.x;
  const idx warm = std::min<idx>(static_cast<idx>(kWarmupRows), split.train.size());
  p.warmup = Matrix(warm, split.train.num_features());
  for (idx i = 0; i < warm; ++i)
    std::copy(split.train.x.row(i), split.train.x.row(i) + p.warmup.cols(),
              p.warmup.row(i));
  *prep_s = seconds_since(t0);
  return p;
}

bool same_matrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::size_t n = static_cast<std::size_t>(a.rows() * a.cols());
  for (std::size_t i = 0; i < n; ++i)
    if (!same_bits(a.data()[i], b.data()[i])) return false;
  return true;
}

/// Gram entries must be finite, in [0, 1], symmetric, with a unit diagonal.
void check_gram(const Matrix& k, Gate& gate) {
  std::uint64_t bad = 0;
  for (idx i = 0; i < k.rows(); ++i)
    for (idx j = 0; j < k.cols(); ++j) {
      const double v = k(i, j);
      const bool ok = std::isfinite(v) && v >= 0.0 && v <= 1.0 &&
                      (i == j ? v == 1.0 : same_bits(v, k(j, i)));
      bad += ok ? 0 : 1;
    }
  gate.tally(static_cast<std::uint64_t>(k.rows() * k.cols()), bad,
             std::to_string(bad) + " invalid Gram entries");
}

/// Cross-kernel entries must be finite and in [0, 1].
void check_cross(const Matrix& k, Gate& gate) {
  std::uint64_t bad = 0;
  for (idx i = 0; i < k.rows(); ++i)
    for (idx j = 0; j < k.cols(); ++j) {
      const double v = k(i, j);
      bad += (std::isfinite(v) && v >= 0.0 && v <= 1.0) ? 0 : 1;
    }
  gate.tally(static_cast<std::uint64_t>(k.rows() * k.cols()), bad,
             std::to_string(bad) + " invalid cross-kernel entries");
}

/// Layer times of one train + score repetition, timed around the public
/// entry points, plus the heap allocations each layer made.
struct Rep {
  double sim_train = 0.0, gram = 0.0, fit = 0.0, train = 0.0;
  double sim_test = 0.0, cross = 0.0, decide = 0.0, score = 0.0;
  std::uint64_t sim_allocs = 0, kernel_allocs = 0;
  bool traced = false;

  double total() const { return train + score; }
  double unattributed() const {
    return total() - (sim_train + gram + fit + sim_test + cross + decide);
  }
};

struct Trained {
  std::vector<mps::Mps> train_states;
  std::vector<mps::Mps> test_states;
  Matrix gram;
  Matrix cross;
  std::vector<svm::SvcModel> models;
  std::size_t best = 0;
  double best_auc = -1.0;
};

/// Training (scaled rows -> states -> Gram -> one SVC per C) then scoring
/// (held-out rows -> states -> cross kernel -> decision values -> AUC).
Rep train_and_score(const kernel::QuantumKernelConfig& cfg, const Prepared& p,
                    Trained* out) {
  *out = Trained{};
  const std::vector<double> grid = svm::default_c_grid();
  out->models.reserve(grid.size());
  Rep r;

  const auto train_start = Clock::now();
  auto t = Clock::now();
  const std::uint64_t a0 = alloc_count();
  out->train_states = kernel::simulate_states(cfg, p.x_train);
  r.sim_train = seconds_since(t);
  const std::uint64_t a1 = alloc_count();
  t = Clock::now();
  out->gram = kernel::gram_from_states(out->train_states, cfg.sim.policy);
  r.gram = seconds_since(t);
  const std::uint64_t a2 = alloc_count();
  t = Clock::now();
  for (double c : grid) {
    svm::SvcParams params;
    params.c = c;
    out->models.push_back(svm::train_svc(out->gram, p.y_train, params));
  }
  r.fit = seconds_since(t);
  r.train = seconds_since(train_start);

  const auto score_start = Clock::now();
  t = Clock::now();
  const std::uint64_t a3 = alloc_count();
  out->test_states = kernel::simulate_states(cfg, p.x_test);
  r.sim_test = seconds_since(t);
  const std::uint64_t a4 = alloc_count();
  t = Clock::now();
  out->cross = kernel::cross_from_states(out->test_states, out->train_states,
                                         cfg.sim.policy);
  r.cross = seconds_since(t);
  const std::uint64_t a5 = alloc_count();
  t = Clock::now();
  for (std::size_t i = 0; i < out->models.size(); ++i) {
    const double auc = svm::roc_auc(p.y_test, out->models[i].decision_values(out->cross));
    if (auc > out->best_auc) {
      out->best_auc = auc;
      out->best = i;
    }
  }
  r.decide = seconds_since(t);
  r.score = seconds_since(score_start);

  r.sim_allocs = (a1 - a0) + (a4 - a3);
  r.kernel_allocs = (a2 - a1) + (a5 - a4);
  return r;
}

/// Per-unit costs from calling the layers one circuit / one pair at a
/// time on a sample of the workload's own rows (traced run only).
void probe_layers(const WorkloadSpec& w, const kernel::QuantumKernelConfig& cfg,
                  const Prepared& p, const Trained& t, MetricSet& m) {
  const mps::MpsSimulator sim(cfg.sim);
  std::vector<double> build_ms, circuit_ms, gates, discarded;
  const idx n = std::min<idx>(static_cast<idx>(w.probe_circuits), p.x_train.rows());
  for (idx i = 0; i < n; ++i) {
    const std::vector<double> x = row_of(p.x_train, i);
    auto t0 = Clock::now();
    const qkmps::circuit::Circuit c = qkmps::circuit::feature_map_circuit(cfg.ansatz, x);
    build_ms.push_back(1e3 * seconds_since(t0));
    t0 = Clock::now();
    const mps::SimulationResult r = sim.simulate(c);
    circuit_ms.push_back(1e3 * seconds_since(t0));
    gates.push_back(static_cast<double>(r.gates_applied));
    discarded.push_back(r.truncation.total_discarded_weight);
  }
  std::vector<double> overlap_us;
  const std::size_t states = t.train_states.size();
  for (std::size_t k = 0; k < w.probe_overlaps && states > 1; ++k) {
    const std::size_t i = k % states;
    const std::size_t j = (i + 1 + k / states) % states;
    const auto t0 = Clock::now();
    const double v = mps::overlap_squared(t.train_states[i], t.train_states[j],
                                          cfg.sim.policy);
    overlap_us.push_back(1e6 * seconds_since(t0));
    if (!std::isfinite(v)) overlap_us.back() = std::nan("");
  }
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  m.set("circuit.build_ms", "ms", median(build_ms));
  m.set("mps.circuit_ms", "ms", median(circuit_ms));
  m.set("mps.gates_per_circuit", "count", mean(gates));
  m.set("mps.discarded_weight", "weight", mean(discarded));
  m.set("mps.overlap_us", "us", median(overlap_us));
}

/// Serving counters a block of requests moves: the registry's stage-time
/// sums, EngineStats, and the allocation counter. A phase's figures are
/// the summed differences of snapshots taken around its blocks.
struct ServeCounters {
  double stages_s = 0.0;  ///< all six serve.stage.*_seconds sums
  double simulate_s = 0.0;
  double kernel_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  std::uint64_t simulated = 0;
  std::uint64_t kernel_rows = 0;  ///< requests that missed the memo
  std::uint64_t memo_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t allocs = 0;

  static ServeCounters take(const serve::InferenceEngine& engine) {
    qkmps::obs::Registry& reg = qkmps::obs::Registry::global();
    const auto stage = [&reg](const char* name) {
      return reg.histogram(std::string("serve.stage.") + name + "_seconds")
          .snapshot()
          .sum_seconds;
    };
    ServeCounters c;
    c.simulate_s = stage("simulate");
    c.kernel_s = stage("kernel");
    c.stages_s = stage("scale") + stage("memo") + stage("cache") +
                 c.simulate_s + c.kernel_s + stage("score");
    const serve::EngineStats s = engine.stats();
    c.batches = s.batches;
    c.requests = s.requests;
    c.simulated = s.circuits_simulated;
    c.kernel_rows = s.memo.misses;
    c.memo_hits = s.memo.hits;
    c.cache_hits = s.cache.hits;
    c.allocs = alloc_count();
    return c;
  }

  /// Adds the change from `before` to `after`.
  void add(const ServeCounters& before, const ServeCounters& after) {
    stages_s += after.stages_s - before.stages_s;
    simulate_s += after.simulate_s - before.simulate_s;
    kernel_s += after.kernel_s - before.kernel_s;
    batches += after.batches - before.batches;
    requests += after.requests - before.requests;
    simulated += after.simulated - before.simulated;
    kernel_rows += after.kernel_rows - before.kernel_rows;
    memo_hits += after.memo_hits - before.memo_hits;
    cache_hits += after.cache_hits - before.cache_hits;
    allocs += after.allocs - before.allocs;
  }
};

double per_unit_ms(double seconds, std::uint64_t units) {
  return units == 0 ? 0.0 : 1e3 * seconds / static_cast<double>(units);
}

/// The serving half of a workload: a bundle of the trained model behind an
/// InferenceEngine, driven from the calling thread in blocks that walk the
/// traffic plan in order. Lone and saturated blocks alternate with the
/// training repetitions, so every phase samples the whole run.
class Server {
 public:
  Server(const kernel::QuantumKernelConfig& cfg, const Prepared& p,
         const Trained& t, const TrafficPlan& plan, Gate& gate)
      : p_(p), plan_(plan), gate_(gate),
        served_(plan.row_of_request.size(), std::nan("")) {
    const auto start = Clock::now();
    serve::EngineConfig config;
    config.num_threads = 2;
    engine_ = std::make_unique<serve::InferenceEngine>(
        serve::make_bundle(cfg, p.scaler, t.models[t.best], t.train_states),
        config);
    // Warm-up on training rows (never part of the traffic): two lone
    // requests, then one burst, so the batcher thread, the pool lanes and
    // the kernel team exist before anything is timed.
    std::vector<std::future<serve::Prediction>> warm;
    for (idx i = 0; i < p.warmup.rows(); ++i) {
      warm.push_back(engine_->submit(row_of(p.warmup, i)));
      if (i < 2) await(warm.back());
    }
    for (std::size_t i = 2; i < warm.size(); ++i) await(warm[i]);
    setup_s_ = seconds_since(start);
  }

  double setup_seconds() const { return setup_s_; }

  /// One client: each request is sent after the previous one resolved.
  void lone(std::size_t count) {
    const ServeCounters before = ServeCounters::take(*engine_);
    for (std::size_t n = 0; n < count; ++n, ++next_) {
      std::vector<double> x = request(next_);
      const auto t0 = Clock::now();
      std::future<serve::Prediction> fut = engine_->submit(std::move(x));
      served_[next_] = await(fut);
      latency_.push_back(seconds_since(t0));
      if (plan_.repeat[next_]) repeat_latency_.push_back(latency_.back());
    }
    lone_.add(before, ServeCounters::take(*engine_));
  }

  /// One block of kBlockBatches full batches, sent as a closed loop that
  /// refills to kWindow outstanding after every completion. Completions
  /// are FIFO, so waiting on the oldest is exact; every 32 completions (one
  /// full batch) close a throughput window, and all but the first are kept.
  void saturated() {
    const ServeCounters before = ServeCounters::take(*engine_);
    std::deque<std::pair<std::size_t, std::future<serve::Prediction>>> inflight;
    const std::size_t count = kBlockBatches * kBatch;
    const std::size_t end = next_ + count;
    std::size_t done = 0;
    const auto start = Clock::now();
    auto window_start = start;
    while (done < count) {
      while (inflight.size() < kWindow && next_ < end) {
        inflight.emplace_back(next_, engine_->submit(request(next_)));
        ++next_;
      }
      served_[inflight.front().first] = await(inflight.front().second);
      inflight.pop_front();
      if (++done % kBatch == 0) {
        const auto now = Clock::now();
        if (done > kBatch)
          batch_rps_.push_back(static_cast<double>(kBatch) /
                               std::chrono::duration<double>(now - window_start).count());
        window_start = now;
      }
    }
    sat_s_ += seconds_since(start);
    sat_.add(before, ServeCounters::take(*engine_));
  }

  /// Serving metrics, then the correctness checks on every served value.
  void report(const WorkloadSpec& w, bool trace, RunOutcome& out) {
    MetricSet& m = out.metrics;
    // The host alternates every few seconds between a fast state and one
    // ~1.5x slower, and the share of slow time drifts from run to run.
    // Latencies that simulate a circuit and the throughput move with that
    // share; a repeat, answered from the memo once the batch deadline has
    // passed, does not, so it is the bounded latency (see README.md).
    // serve.p99_ms follows the ten-samples-beyond rule.
    const double tail = tail_level(latency_.size());
    m.set("repeat_p50_ms", "ms",
          repeat_latency_.empty() ? std::nan("") : 1e3 * quantile(repeat_latency_, 0.5));
    m.set("serve.p50_ms", "ms", 1e3 * quantile(latency_, 0.5));
    m.set("serve.p99_ms", "ms", 1e3 * quantile(latency_, tail));
    m.set("serve.throughput_rps", "1/s", median(batch_rps_));
    const double lone_latency_s =
        std::accumulate(latency_.begin(), latency_.end(), 0.0);
    m.set("serve.lone.queue_ms", "ms",
          1e3 * (lone_latency_s - lone_.stages_s) /
              static_cast<double>(latency_.size()));
    m.set("serve.lone.simulate_ms", "ms", per_unit_ms(lone_.simulate_s, lone_.simulated));
    m.set("serve.lone.kernel_ms", "ms", per_unit_ms(lone_.kernel_s, lone_.kernel_rows));
    m.set("serve.sat.simulate_ms", "ms", per_unit_ms(sat_.simulate_s, sat_.simulated));
    m.set("serve.sat.kernel_ms", "ms", per_unit_ms(sat_.kernel_s, sat_.kernel_rows));
    m.set("serve.sat.batch_mean", "requests",
          sat_.batches == 0 ? 0.0
                            : static_cast<double>(sat_.requests) /
                                  static_cast<double>(sat_.batches));
    m.set("serve.circuits", "count", static_cast<double>(lone_.simulated));
    m.set("serve.memo_hits", "count", static_cast<double>(lone_.memo_hits));
    m.set("serve.cache_hits", "count", static_cast<double>(lone_.cache_hits));
    if (trace)
      m.set("serve.allocs_per_request", "count",
            static_cast<double>(lone_.allocs) / static_cast<double>(latency_.size()));

    // Every repeat of a row must replay the first answer's bits.
    const std::size_t total = next_;
    std::vector<double> first(plan_.distinct, std::nan(""));
    std::vector<bool> seen(plan_.distinct, false);
    std::uint64_t repeats = 0, mismatched = 0;
    for (std::size_t i = 0; i < total; ++i) {
      const std::size_t r = plan_.row_of_request[i];
      if (!seen[r]) {
        seen[r] = true;
        first[r] = served_[i];
        continue;
      }
      ++repeats;
      mismatched += same_bits(first[r], served_[i]) ? 0 : 1;
    }
    gate_.tally(repeats, mismatched,
                std::to_string(mismatched) + " repeated rows served different values");

    // Parity: re-score a sample of served rows offline through the bundle
    // (transform -> simulate_states -> cross_from_states(SVs) ->
    // decision_values); the served values must match bit for bit.
    const serve::ModelBundle& bundle = engine_->bundle();
    const std::size_t k = std::min(w.parity_rows, plan_.distinct);
    Matrix raw(static_cast<idx>(k), p_.traffic.cols());
    std::vector<std::size_t> rows(k);
    for (std::size_t s = 0; s < k; ++s) {
      rows[s] = s * plan_.distinct / k;
      const double* src = p_.traffic.row(static_cast<idx>(rows[s]));
      std::copy(src, src + raw.cols(), raw.row(static_cast<idx>(s)));
    }
    const std::vector<mps::Mps> states =
        kernel::simulate_states(bundle.config, bundle.scaler.transform(raw));
    const Matrix kx = kernel::cross_from_states(states, bundle.sv_states,
                                                bundle.config.sim.policy);
    check_cross(kx, gate_);
    const std::vector<double> offline = bundle.model.decision_values(kx);
    for (std::size_t s = 0; s < k; ++s)
      gate_.check(same_bits(offline[s], first[rows[s]]),
                  "served value differs from the offline path for row " +
                      std::to_string(rows[s]));

    const serve::EngineStats end = engine_->stats();
    out.detail.raw("serve", JsonObject()
        .num("support_vectors", static_cast<double>(bundle.num_support_vectors()))
        .num("lone_requests", static_cast<double>(latency_.size()))
        .num("lone_repeats", static_cast<double>(repeat_latency_.size()))
        .num("tail_quantile", tail)
        .num("sat_requests", static_cast<double>(sat_.requests))
        .num("sat_seconds", sat_s_)
        .nums("sat_batch_rps", batch_rps_)
        .num("distinct_rows", static_cast<double>(plan_.distinct))
        .num("parity_rows", static_cast<double>(k))
        .num("engine_requests", static_cast<double>(end.requests))
        .num("engine_batches", static_cast<double>(end.batches))
        .num("engine_max_batch", static_cast<double>(end.max_batch_seen))
        .num("engine_circuits", static_cast<double>(end.circuits_simulated))
        .num("memo_hits", static_cast<double>(end.memo.hits))
        .num("cache_hits", static_cast<double>(end.cache.hits))
        .dump());
  }

 private:
  std::vector<double> request(std::size_t i) const {
    return row_of(p_.traffic, static_cast<idx>(plan_.row_of_request[i]));
  }

  /// Waits for one served prediction. A future that threw counts as a
  /// failure; one that never resolves ends the process, because its
  /// engine could not be shut down.
  double await(std::future<serve::Prediction>& fut) {
    if (fut.wait_for(kFutureTimeout) != std::future_status::ready) {
      std::fprintf(stderr, "perfbench: a served future did not resolve within 60 s\n");
      std::_Exit(2);
    }
    try {
      const double v = fut.get().decision_value;
      gate_.check(std::isfinite(v), "non-finite served decision value");
      return v;
    } catch (const std::exception& e) {
      gate_.check(false, std::string("served future threw: ") + e.what());
    }
    return std::nan("");
  }

  const Prepared& p_;
  const TrafficPlan& plan_;
  Gate& gate_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  double setup_s_ = 0.0;
  std::size_t next_ = 0;  ///< next request of the plan to send
  std::vector<double> served_;
  std::vector<double> latency_;
  std::vector<double> repeat_latency_;  ///< lone re-queries
  std::vector<double> batch_rps_;
  double sat_s_ = 0.0;
  ServeCounters lone_;
  ServeCounters sat_;
};

/// Splits `n` into `parts` near-equal shares; returns share `i`.
std::size_t share(std::size_t n, std::size_t i, std::size_t parts) {
  return n * (i + 1) / parts - n * i / parts;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

RunOutcome run_workload(const WorkloadSpec& w, const RunOptions& options) {
  RunOutcome out;
  Gate gate(&out);
  MetricSet& m = out.metrics;
  const double scale = options.seconds / kRefSeconds;
  // At least two rounds, so the traced run has an uncounted repetition to
  // price the allocation counter against.
  const std::size_t reps = static_cast<std::size_t>(
      std::max(2L, std::lround(w.train_reps * scale)));
  const std::size_t lone = std::max<std::size_t>(
      20, static_cast<std::size_t>(std::lround(static_cast<double>(w.lone_requests) * scale)));
  const std::size_t sat_blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(static_cast<double>(w.sat_blocks) * scale)));

  std::vector<double> probes{host_probe_seconds()};

  // Set-up, repeated; every repetition must produce the same rows.
  qkmps::Rng traffic_rng(options.seed ^ 0x5EEDull);
  const TrafficPlan plan =
      plan_traffic(lone + sat_blocks * kBlockBatches * kBatch, traffic_rng);
  std::vector<double> pool_s, prep_s, setup_s;
  Prepared p;
  for (int r = 0; r < kSetupReps; ++r) {
    double pool = 0.0, prep = 0.0;
    Prepared next = prepare(w, options.seed, plan.distinct, &pool, &prep);
    pool_s.push_back(pool);
    prep_s.push_back(prep);
    setup_s.push_back(pool + prep);
    if (r > 0)
      gate.check(same_matrix(next.x_train, p.x_train) && same_matrix(next.traffic, p.traffic),
                 "set-up produced different rows on repetition");
    p = std::move(next);
  }
  malloc_trim(0);
  const bool rss_reset = reset_peak_rss();

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = w.features, .layers = 2, .distance = w.distance,
                .gamma = w.gamma};

  // Rounds: one train + score repetition, then a lone block and, after
  // some rounds, a saturated block of serving. The first round's model is
  // served. In the traced run every second repetition counts heap
  // allocations: layer times come from the others, which also price the
  // counter. Serving counts allocations in its lone blocks only.
  std::vector<Rep> runs;
  Trained t;
  Matrix gram0, cross0;
  std::unique_ptr<Server> server;
  for (std::size_t r = 0; r < reps; ++r) {
    const bool traced = options.trace && r % 2 == 1;
    set_alloc_counting(traced);
    Rep rep = train_and_score(cfg, p, &t);
    set_alloc_counting(false);
    rep.traced = traced;
    runs.push_back(rep);
    check_gram(t.gram, gate);
    check_cross(t.cross, gate);
    if (r == 0) {
      gram0 = t.gram;
      cross0 = t.cross;
      server = std::make_unique<Server>(cfg, p, t, plan, gate);
    } else {
      gate.check(same_matrix(t.gram, gram0) && same_matrix(t.cross, cross0),
                 "kernel matrices changed between repetitions");
    }
    set_alloc_counting(options.trace);
    server->lone(share(lone, r, reps));
    set_alloc_counting(false);
    for (std::size_t b = share(sat_blocks, r, reps); b > 0; --b) server->saturated();
    probes.push_back(host_probe_seconds());
  }
  m.set("peak_rss_mb", "MB", peak_rss_mb());
  server->report(w, options.trace, out);

  // Layer times: median over the repetitions that did not count
  // allocations (all of them in the untraced run).
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const Rep& r : runs)
      if (!r.traced) v.push_back(field(r));
    return median(v);
  };
  const double gram_s = med([](const Rep& r) { return r.gram; });
  const double cross_s = med([](const Rep& r) { return r.cross; });
  const std::size_t n_train = t.train_states.size();
  const std::size_t n_test = t.test_states.size();
  const double entries = static_cast<double>(n_train * (n_train - 1) / 2 + n_test * n_train);
  const double circuits = static_cast<double>(n_train + n_test);

  m.set("setup_s", "s", median(setup_s) + server->setup_seconds());
  m.set("pipeline.train_s", "s", med([](const Rep& r) { return r.train; }));
  m.set("pipeline.score_s", "s", med([](const Rep& r) { return r.score; }));
  m.set("data.pool_s", "s", median(pool_s));
  m.set("data.prep_s", "s", median(prep_s));
  m.set("mps.simulate_s", "s", med([](const Rep& r) { return r.sim_train + r.sim_test; }));
  m.set("mps.circuits", "count", circuits);
  double chi_sum = 0.0, chi_max = 0.0, bytes = 0.0;
  for (const auto* states : {&t.train_states, &t.test_states})
    for (const mps::Mps& s : *states) {
      chi_sum += static_cast<double>(s.max_bond());
      chi_max = std::max(chi_max, static_cast<double>(s.max_bond()));
      bytes += static_cast<double>(s.memory_bytes());
    }
  m.set("mps.chi_mean", "bond", chi_sum / circuits);
  m.set("mps.chi_max", "bond", chi_max);
  m.set("mps.state_kb", "KiB", bytes / circuits / 1024.0);
  m.set("kernel.gram_s", "s", gram_s);
  m.set("kernel.cross_s", "s", cross_s);
  m.set("kernel.entries", "count", entries);
  m.set("kernel.entries_per_s", "1/s", entries / (gram_s + cross_s));
  m.set("svm.fit_s", "s", med([](const Rep& r) { return r.fit; }));
  m.set("svm.decide_s", "s", med([](const Rep& r) { return r.decide; }));
  double iterations = 0.0;
  for (const svm::SvcModel& model : t.models) iterations += static_cast<double>(model.iterations);
  m.set("svm.smo_iterations", "count", iterations);
  m.set("svm.support_vectors", "count",
        static_cast<double>(t.models[t.best].support_vector_count()));
  m.set("svm.test_auc", "auc", t.best_auc);
  m.set("pipeline.unattributed_ms", "ms",
        1e3 * med([](const Rep& r) { return r.unattributed(); }));
  m.set("host.probe_s", "s", median(probes));

  if (options.trace) {
    std::vector<double> on, off;
    const Rep* counted = nullptr;
    for (const Rep& r : runs) {
      (r.traced ? on : off).push_back(r.total());
      if (r.traced && counted == nullptr) counted = &r;
    }
    m.set("mps.allocs_per_circuit", "count",
          static_cast<double>(counted->sim_allocs) / circuits);
    m.set("kernel.allocs_per_entry", "count",
          static_cast<double>(counted->kernel_allocs) / entries);
    m.set("trace.overhead_pct", "%", 100.0 * (median(on) / median(off) - 1.0));
    probe_layers(w, cfg, p, t, m);
  }

  std::vector<double> train_reps, score_reps;
  for (const Rep& r : runs) {
    train_reps.push_back(r.train);
    score_reps.push_back(r.score);
  }
  out.detail.raw("sizes", JsonObject()
      .str("name", w.name)
      .num("qubits", static_cast<double>(w.features))
      .num("distance", static_cast<double>(w.distance))
      .num("gamma", w.gamma)
      .num("train_rows", static_cast<double>(n_train))
      .num("test_rows", static_cast<double>(n_test))
      .num("rounds", static_cast<double>(reps))
      .dump());
  out.detail.raw("raw", JsonObject()
      .nums("setup_s", setup_s)
      .num("serve_setup_s", server->setup_seconds())
      .nums("train_s", train_reps)
      .nums("score_s", score_reps)
      .nums("host_probe_s", probes)
      .boolean("peak_rss_reset", rss_reset)
      .dump());
  return out;
}

}  // namespace perfbench
