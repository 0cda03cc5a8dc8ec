#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

#include "parallel/thread_pool.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_memo.hpp"
#include "serve/state_cache.hpp"

namespace qkmps::serve {

/// Knobs of the micro-batching engine. The defaults target the latency /
/// throughput trade-off of an online scoring service: small deadline so a
/// lone request is not held hostage, batch cap sized to keep the pool busy.
struct EngineConfig {
  std::size_t max_batch = 32;  ///< drain at most this many requests per batch
  std::chrono::microseconds batch_deadline{2000};  ///< max wait for a batch
  /// Pool lanes; 0 = hardware. Uncached circuits simulate one per lane,
  /// each lane's kernels on one thread; kernel rows spread over the lanes.
  std::size_t num_threads = 0;
  /// StateCache entries; 0 (the default) disables it. A resident state
  /// costs ~30 KiB of heap at 165 qubits and chi~2, ~43 KiB at chi~29,
  /// and saves one simulation only for a key the memo no longer holds.
  std::size_t cache_capacity = 0;
  /// Decision-value memo entries (~1.5 KB each at 165 features); 0
  /// disables. The memo is the engine's cross-request cache. It is asked
  /// at admission: an exact-repeat request (identical scaled feature
  /// bits) replays the identical prediction bits with no simulation, no
  /// kernel row and no SVC pass, and a submit() hit resolves before
  /// submit() returns, without waiting out batch_deadline. A row that
  /// missed asks again when its batch is scored, so a duplicate admitted
  /// while its first occurrence was still queued or running replays that
  /// answer too.
  std::size_t memo_capacity = 4096;
};

/// One scored request.
struct Prediction {
  int label = 0;                 ///< sign(f) in {-1, +1}
  double decision_value = 0.0;   ///< f = sum_j alpha_j y_j K(x, sv_j) + b
  /// State came from the StateCache. In-batch duplicates of an uncached
  /// point also skip simulation (they alias the first occurrence) but
  /// report false; EngineStats::circuits_simulated is the exact count.
  bool cache_hit = false;
  /// Whole prediction came from the decision-value memo, at admission or
  /// on the late lookup when its batch was scored: the request skipped
  /// simulation, the StateCache, and the kernel entirely (so cache_hit is
  /// false for a memo hit — the StateCache was never asked).
  bool memo_hit = false;
  /// submit() -> promise fulfilment for async requests (for a memo hit,
  /// the time spent inside submit()); the batch's wall time for every row
  /// of a synchronous predict_batch() call.
  double latency_seconds = 0.0;
};

/// Per-batch wall-clock breakdown of the engine's stages, filled by
/// predict_batch for callers that pass a sink (the shard worker ships it
/// to the router, which lays it out as worker-side trace spans). There the
/// stages partition the batch's compute wall time in order: any
/// queue/gather wait happened before the engine saw the batch. Every
/// batch also feeds the process-wide obs::Registry histograms
/// (serve.stage.*_seconds) whether or not a sink was passed; a memo hit
/// answered inside submit() belongs to no batch and feeds none.
struct StageTimings {
  /// Admission of the batch's rows: scaler transform, then key hashing
  /// and the memo lookup. An async batch's requests were admitted inside
  /// submit(), so for it these are the sums of their admission times.
  double scale_seconds = 0.0;
  double memo_seconds = 0.0;
  /// Late memo lookup of admission misses, StateCache pass, in-batch
  /// dedup.
  double cache_seconds = 0.0;
  double simulate_seconds = 0.0;  ///< parallel MPS simulation of misses
  double kernel_seconds = 0.0;    ///< SV kernel rows + decision values
  double score_seconds = 0.0;     ///< label assignment + memo insert
  std::size_t batch_size = 0;
  std::size_t simulated = 0;  ///< circuits actually simulated (post-dedup)
};

/// Aggregate serving counters (monotonic since construction). A snapshot:
/// the engine keeps every counter atomic, so stats() never touches the
/// request-queue lock and can be polled from any thread during traffic.
struct EngineStats {
  std::uint64_t requests = 0;  ///< every answered request, hit or scored
  /// Batches run: async batches of queued memo misses and predict_batch
  /// calls. A memo hit answered inside submit() belongs to no batch.
  std::uint64_t batches = 0;
  /// After the late memo lookup, the StateCache and in-batch dedup.
  std::uint64_t circuits_simulated = 0;
  std::uint64_t max_batch_seen = 0;  ///< largest batch run
  /// Asked only by rows that missed the memo twice; off by default.
  CacheStats cache;
  /// One lookup per request, at admission. The late lookup at scoring is
  /// counted only on the registry's serve.memo.late_hits.
  MemoStats memo;
};

/// Asynchronous micro-batched inference over a ModelBundle. Every request
/// goes through two steps:
///  - admission: scale through the bundle scaler, key the scaled bits,
///    hash the key and ask the PredictionMemo;
///  - scoring (admission misses only): a second memo lookup, which
///    answers a duplicate of a request that was still queued or running
///    at its admission; then the opt-in StateCache and in-batch dedup,
///    parallel simulation of uncached feature-map circuits on a
///    parallel::ThreadPool, the rectangular kernel against the bundle's
///    support-vector states only, the compacted SVC, the memo insert.
/// submit() admits on the caller's thread. A memo hit resolves its future
/// before submit() returns and never reaches the queue, the batcher or
/// the pool; a miss is queued with its key, and a dedicated batcher
/// thread drains up to max_batch of them (or whatever arrived within
/// batch_deadline of the first) and scores them. predict_batch admits
/// its whole batch, then scores it.
///
/// Determinism contract: batching is a scheduling choice, not a numeric
/// one. Every stage (scaling, circuit simulation, zipper inner products,
/// decision values) runs the same code the sequential pipeline
/// (kernel::simulate_states + kernel::cross_from_states +
/// SvcModel::decision_values) runs, on the same per-request inputs, so
/// predictions are bitwise-identical regardless of batch composition,
/// arrival order, cache hits, or memo hits — the metamorphic relation
/// tests/test_inference_engine.cpp pins down. Completion order is not
/// submission order: a memo hit resolves ahead of misses queued before
/// it.
///
/// The bundle is held through shared_ptr<const ModelBundle>, so N engines
/// (e.g. the in-process shards of a RankShardedEngine) keep one copy of
/// the resident support-vector states between them.

class InferenceEngine {
 public:
  explicit InferenceEngine(ModelBundle bundle, EngineConfig config = {});
  InferenceEngine(std::shared_ptr<const ModelBundle> bundle,
                  EngineConfig config);
  ~InferenceEngine();  ///< drains pending requests, then stops

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Admits one request. Throws immediately on a feature-count mismatch or
  /// a non-finite feature. A memo hit returns a ready future; a miss is
  /// queued for the batcher, and its future carries the prediction (or
  /// the error that killed its batch).
  std::future<Prediction> submit(std::vector<double> features);

  /// Synchronous entry point: validates every row like submit(), then
  /// admits and scores them through the same two steps as the async path
  /// (bypassing the queue and deadline), as one batch. The batch's stage
  /// wall times land in `timings` when non-null.
  std::vector<Prediction> predict_batch(
      std::vector<std::vector<double>> features,
      StageTimings* timings = nullptr);

  /// Lock-free counter snapshot; safe to poll during traffic.
  EngineStats stats() const;
  const ModelBundle& bundle() const { return *bundle_; }
  const EngineConfig& config() const { return config_; }

 private:
  /// A request past admission. `key` is its scaled features, the bit
  /// pattern the memo and the StateCache are keyed by; `hash` is
  /// feature_hash(key); `memoized` is the memo's answer on a hit.
  struct Admission {
    std::vector<double> key;
    std::uint64_t hash = 0;
    std::optional<MemoizedPrediction> memoized;
    double scale_seconds = 0.0;  ///< admission's stage times
    double memo_seconds = 0.0;
  };

  /// A submitted request; only memo misses reach the queue.
  struct Request {
    Admission admission;
    std::promise<Prediction> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  /// Admission: scales one request (its buffer becomes the key), hashes
  /// the key and asks the memo. The counted memo lookup: EngineStats::memo
  /// and serve.memo.hits/misses see this one only.
  Admission admit(std::vector<double> features);
  /// Scoring: one Prediction per admitted row, in order. Admission hits
  /// replay their memoized bits; each miss asks the memo once more
  /// (uncounted but for serve.memo.late_hits) and replays a late hit the
  /// same way. The rest go through the StateCache (with in-batch dedup),
  /// simulation, SV kernels and the SVC, and are memoized. Stage
  /// wall times land in `timings` when non-null and in the global
  /// registry histograms always.
  std::vector<Prediction> score(const std::vector<Admission>& rows,
                                StageTimings* timings = nullptr);

  void batcher_loop();
  void execute(std::vector<Request>& batch);
  void count_requests(std::size_t n);
  void record_batch(std::size_t n_requests);

  const std::shared_ptr<const ModelBundle> bundle_;
  const EngineConfig config_;
  StateCache cache_;
  PredictionMemo memo_;
  parallel::ThreadPool pool_;

  mutable util::Mutex mu_;  ///< guards queue_ and stop_ only
  util::CondVar cv_;
  std::deque<Request> queue_ QKMPS_GUARDED_BY(mu_);
  bool stop_ QKMPS_GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> circuits_simulated_{0};
  std::atomic<std::uint64_t> max_batch_seen_{0};

  /// Started lazily by the first submit() (predict_batch-only callers,
  /// like the shard workers' engines, never start it). Last member:
  /// joins before the pool dies.
  std::thread batcher_;
};

/// Request validation shared by every serving entry point (engine submit,
/// sharded-frontend admission): a malformed feature vector must fail the
/// caller immediately, not score as a confident label (NaN decision values
/// compare false against 0 and would all map to -1). Throws qkmps::Error.
void check_request_features(const std::vector<double>& features,
                            idx expected);

}  // namespace qkmps::serve
