#include "serve/inference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "circuit/ansatz.hpp"
#include "linalg/policy.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "obs/metrics.hpp"
#include "serve/feature_key.hpp"
#include "util/atomics.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::serve {

namespace {

std::size_t default_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

/// Per-batch stage breakdown into the process-wide registry. Handles
/// resolve once (function-local statics); per batch this is six relaxed
/// histogram observes — noise next to one MPS simulation.
void observe_stage_timings(const StageTimings& t) {
  obs::Registry& reg = obs::Registry::global();
  static obs::Histogram& scale = reg.histogram("serve.stage.scale_seconds");
  static obs::Histogram& memo = reg.histogram("serve.stage.memo_seconds");
  static obs::Histogram& cache = reg.histogram("serve.stage.cache_seconds");
  static obs::Histogram& simulate =
      reg.histogram("serve.stage.simulate_seconds");
  static obs::Histogram& kernel = reg.histogram("serve.stage.kernel_seconds");
  static obs::Histogram& score = reg.histogram("serve.stage.score_seconds");
  static obs::Counter& batches = reg.counter("serve.engine.batches");
  static obs::Counter& simulated = reg.counter("serve.engine.simulated");
  scale.observe(t.scale_seconds);
  memo.observe(t.memo_seconds);
  cache.observe(t.cache_seconds);
  simulate.observe(t.simulate_seconds);
  kernel.observe(t.kernel_seconds);
  score.observe(t.score_seconds);
  batches.add();
  simulated.add(t.simulated);
}

Prediction replay(const MemoizedPrediction& m) {
  Prediction p;
  p.label = m.label;
  p.decision_value = m.decision_value;
  p.memo_hit = true;
  return p;
}

}  // namespace

void check_request_features(const std::vector<double>& features,
                            idx expected) {
  QKMPS_CHECK_MSG(static_cast<idx>(features.size()) == expected,
                  "request has " << features.size()
                                 << " features, bundle expects " << expected);
  for (double v : features)
    QKMPS_CHECK_MSG(std::isfinite(v), "non-finite feature in request");
}

InferenceEngine::InferenceEngine(ModelBundle bundle, EngineConfig config)
    : InferenceEngine(
          std::make_shared<const ModelBundle>(std::move(bundle)), config) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const ModelBundle> bundle,
                                 EngineConfig config)
    : bundle_(std::move(bundle)),
      config_(config),
      cache_(config.cache_capacity),
      memo_(config.memo_capacity),
      pool_(default_threads(config.num_threads)) {
  QKMPS_CHECK(bundle_ != nullptr);
  QKMPS_CHECK_MSG(!bundle_->sv_states.empty(), "bundle has no support vectors");
  QKMPS_CHECK(bundle_->model.alpha.size() == bundle_->sv_states.size());
  QKMPS_CHECK(config_.max_batch >= 1);
  // The batcher thread starts lazily on the first submit(): callers that
  // only ever use the synchronous predict_batch() path — notably the
  // shard engines of a RankShardedEngine, whose shard workers batch for
  // them — never pay for a permanently idle thread.
}

InferenceEngine::~InferenceEngine() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable())
    batcher_.join();  // drains whatever was queued before stop
}

std::future<Prediction> InferenceEngine::submit(std::vector<double> features) {
  check_request_features(features, bundle_->num_features());
  Request r;
  r.submitted = std::chrono::steady_clock::now();
  {
    util::MutexLock lock(mu_);
    QKMPS_CHECK_MSG(!stop_, "submit on a stopped engine");
  }
  r.admission = admit(std::move(features));
  std::future<Prediction> fut = r.promise.get_future();
  if (r.admission.memoized) {
    // Answered here: a hit never queues, never wakes the batcher and never
    // waits out the batch window.
    Prediction p = replay(*r.admission.memoized);
    count_requests(1);
    p.latency_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - r.submitted).count();
    r.promise.set_value(p);
    return fut;
  }
  {
    util::MutexLock lock(mu_);
    // Checked again: the batcher exits once stop_ is set and the queue is
    // empty, so a request queued after that would never resolve.
    QKMPS_CHECK_MSG(!stop_, "submit on a stopped engine");
    if (!batcher_.joinable())
      batcher_ = std::thread([this] { batcher_loop(); });
    queue_.push_back(std::move(r));
  }
  cv_.notify_all();
  return fut;
}

void InferenceEngine::batcher_loop() {
  util::UniqueLock lock(mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) cv_.wait(lock);
    if (queue_.empty()) {
      if (stop_) return;
      continue;  // spurious wake
    }
    // Batch window: admit arrivals until the batch is full or the oldest
    // pending request has waited batch_deadline since it was submitted —
    // a request that queued while the previous batch executed is not held
    // a second window. A full queue skips the wait entirely, so a
    // saturated engine batches back-to-back.
    const auto deadline = queue_.front().submitted + config_.batch_deadline;
    while (!stop_ && queue_.size() < config_.max_batch) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    std::vector<Request> batch;
    const std::size_t take = std::min(queue_.size(), config_.max_batch);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    execute(batch);
    lock.lock();
  }
}

void InferenceEngine::execute(std::vector<Request>& batch) {
  try {
    // Admissions are moved out (Request only needs promise/submitted from
    // here on); anything that throws — including this loop under memory
    // pressure — must land in the catch so the batch fails its futures
    // instead of escaping the batcher thread.
    std::vector<Admission> rows;
    rows.reserve(batch.size());
    for (Request& r : batch) rows.push_back(std::move(r.admission));
    std::vector<Prediction> out = score(rows);
    // Counters are bumped before the promises resolve so a caller that
    // has joined on its futures always observes them accounted for.
    record_batch(batch.size());
    const auto done = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i].latency_seconds =
          std::chrono::duration<double>(done - batch[i].submitted).count();
      batch[i].promise.set_value(out[i]);
    }
  } catch (...) {
    record_batch(batch.size());
    const std::exception_ptr err = std::current_exception();
    for (Request& r : batch) r.promise.set_exception(err);
  }
}

void InferenceEngine::count_requests(std::size_t n) {
  static obs::Counter& requests =
      obs::Registry::global().counter("serve.engine.requests");
  requests_.fetch_add(n, std::memory_order_relaxed);
  requests.add(n);
}

void InferenceEngine::record_batch(std::size_t n_requests) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  fetch_max(max_batch_seen_, static_cast<std::uint64_t>(n_requests));
  count_requests(n_requests);
}

InferenceEngine::Admission InferenceEngine::admit(
    std::vector<double> features) {
  const idx m = bundle_->num_features();
  QKMPS_CHECK(static_cast<idx>(features.size()) == m);
  Admission a;
  Timer stage;

  // Scale through the bundle's fitted scaler; transform is
  // row-independent, so a one-row transform matches the sequential
  // whole-matrix transform bit for bit.
  kernel::RealMatrix raw(1, m);
  std::copy(features.begin(), features.end(), raw.row(0));
  const kernel::RealMatrix scaled = bundle_->scaler.transform(raw);
  a.key = std::move(features);
  std::copy(scaled.row(0), scaled.row(0) + m, a.key.begin());
  a.scale_seconds = stage.seconds();
  stage.reset();

  // An exact repeat of a previously scored request replays its decision
  // value without touching the StateCache or the pool.
  static obs::Counter& memo_hits =
      obs::Registry::global().counter("serve.memo.hits");
  static obs::Counter& memo_misses =
      obs::Registry::global().counter("serve.memo.misses");
  a.hash = feature_hash(a.key);  // hashed once, reused throughout
  a.memoized = memo_.find(a.key, a.hash);
  (a.memoized ? memo_hits : memo_misses).add();
  a.memo_seconds = stage.seconds();
  return a;
}

std::vector<Prediction> InferenceEngine::score(
    const std::vector<Admission>& rows, StageTimings* timings) {
  const idx b = static_cast<idx>(rows.size());
  const idx n_sv = bundle_->num_support_vectors();

  StageTimings local;
  StageTimings& t = timings != nullptr ? *timings : local;
  t = StageTimings{};
  t.batch_size = static_cast<std::size_t>(b);
  Timer stage;

  // Hits replay their memoized bits; misses stay "active" through the
  // rest of the pipeline. A row that missed at admission asks the memo
  // again, inside the cache stage: a duplicate admitted while its first
  // occurrence was still queued or running finds that answer now. The
  // late lookup leaves EngineStats::memo alone (one lookup per request).
  static obs::Counter& late_hits =
      obs::Registry::global().counter("serve.memo.late_hits");
  std::vector<Prediction> out(static_cast<std::size_t>(b));
  std::vector<std::size_t> active;
  active.reserve(static_cast<std::size_t>(b));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.scale_seconds += rows[i].scale_seconds;
    t.memo_seconds += rows[i].memo_seconds;
    std::optional<MemoizedPrediction> memoized = rows[i].memoized;
    if (!memoized) {
      memoized = memo_.find_uncounted(rows[i].key, rows[i].hash);
      if (memoized) late_hits.add();
    }
    if (memoized)
      out[i] = replay(*memoized);
    else
      active.push_back(i);
  }

  // Cache pass over the active rows: resident states are reused, misses
  // are deduplicated within the batch (two identical uncached requests
  // cost one simulation).
  std::vector<std::shared_ptr<const mps::Mps>> states(
      static_cast<std::size_t>(b));
  std::vector<std::size_t> unique_miss;  // first occurrence of each key
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> miss_by_hash;
  std::vector<std::size_t> alias_of(static_cast<std::size_t>(b), 0);
  for (std::size_t i : active) {
    states[i] = cache_.find(rows[i].key, rows[i].hash);
    if (states[i] != nullptr) {
      out[i].cache_hit = true;
      continue;
    }
    auto& bucket = miss_by_hash[rows[i].hash];
    std::size_t rep = i;
    for (std::size_t earlier : bucket) {
      if (feature_bits_equal(rows[earlier].key, rows[i].key)) {
        rep = earlier;
        break;
      }
    }
    alias_of[i] = rep;
    if (rep == i) {
      bucket.push_back(i);
      unique_miss.push_back(i);
    }
  }
  t.cache_seconds = stage.seconds();
  stage.reset();

  // Simulate uncached circuits, one per pool lane. Each lane pins its
  // kernels to one thread: lane parallelism and kernel OpenMP must not
  // multiply (the thread-budget contract, DESIGN.md §9). simulate() is the
  // call the sequential pipeline makes, so results are deterministic and
  // independent of batch composition.
  std::vector<std::shared_ptr<const mps::Mps>> fresh(unique_miss.size());
  const mps::MpsSimulator sim(bundle_->config.sim);
  pool_.parallel_for(unique_miss.size(), [&](std::size_t u) {
    linalg::KernelThreadScope kernel_scope(1);
    const std::size_t i = unique_miss[u];
    const circuit::Circuit c =
        circuit::feature_map_circuit(bundle_->config.ansatz, rows[i].key);
    fresh[u] = std::make_shared<const mps::Mps>(sim.simulate(c).state);
  });
  for (std::size_t u = 0; u < unique_miss.size(); ++u) {
    const std::size_t i = unique_miss[u];
    states[i] = cache_.insert(rows[i].key, rows[i].hash, fresh[u]);
  }
  for (std::size_t i : active)
    if (states[i] == nullptr) states[i] = states[alias_of[i]];
  t.simulate_seconds = stage.seconds();
  stage.reset();

  // Rectangular kernel of the active rows against the support vectors
  // only, then the SVC — entrywise the same overlap_squared /
  // decision_values calls as kernel::cross_from_states +
  // SvcModel::decision_values (decision values are row-independent, so
  // scoring the active subset matches scoring the full batch). Flattened
  // over (request, SV) pairs so even a single-request batch spreads its
  // #SV contractions across the pool.
  const idx n_active = static_cast<idx>(active.size());
  kernel::RealMatrix k_active(n_active, n_sv);
  pool_.parallel_for(static_cast<std::size_t>(n_active * n_sv),
                     [&](std::size_t t) {
    linalg::KernelThreadScope kernel_scope(1);
    const idx a = static_cast<idx>(t) / n_sv;
    const idx j = static_cast<idx>(t) % n_sv;
    k_active(a, j) = mps::overlap_squared(
        *states[active[static_cast<std::size_t>(a)]],
        bundle_->sv_states[static_cast<std::size_t>(j)],
        bundle_->config.sim.policy);
  });
  const std::vector<double> f = bundle_->model.decision_values(k_active);
  t.kernel_seconds = stage.seconds();
  stage.reset();

  for (idx a = 0; a < n_active; ++a) {
    const std::size_t i = active[static_cast<std::size_t>(a)];
    out[i].decision_value = f[static_cast<std::size_t>(a)];
    out[i].label = f[static_cast<std::size_t>(a)] >= 0.0 ? 1 : -1;
    memo_.insert(rows[i].key, rows[i].hash,
                 {out[i].label, out[i].decision_value});
  }
  circuits_simulated_.fetch_add(unique_miss.size(),
                                std::memory_order_relaxed);
  t.score_seconds = stage.seconds();
  t.simulated = unique_miss.size();
  observe_stage_timings(t);
  return out;
}

std::vector<Prediction> InferenceEngine::predict_batch(
    std::vector<std::vector<double>> features, StageTimings* timings) {
  for (const std::vector<double>& f : features)
    check_request_features(f, bundle_->num_features());
  Timer timer;
  std::vector<Admission> rows;
  rows.reserve(features.size());
  for (std::vector<double>& f : features) rows.push_back(admit(std::move(f)));
  std::vector<Prediction> out = score(rows, timings);
  const double seconds = timer.seconds();
  for (Prediction& p : out) p.latency_seconds = seconds;
  record_batch(out.size());
  return out;
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.circuits_simulated = circuits_simulated_.load(std::memory_order_relaxed);
  s.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  s.memo = memo_.stats();
  return s;
}

}  // namespace qkmps::serve
