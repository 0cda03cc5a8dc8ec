#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "parallel/socket_transport.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_bundle.hpp"
#include "serve/router.hpp"
#include "serve/shard_wire.hpp"
#include "serve/shard_worker.hpp"

namespace qkmps::serve {

/// What admission does when a request arrives and the routed shard's
/// pending queue is already at capacity.
enum class AdmissionPolicy {
  /// The *new* request is refused immediately: its future resolves with
  /// ServeStatus::kRejected (no exception — rejection is an expected
  /// overload outcome, not an error).
  kRejectNew,
  /// The *oldest* pending request is evicted (its future resolves
  /// ServeStatus::kShed) and the new one is admitted — freshest-first
  /// semantics for feeds where stale scores lose their value (a fraud
  /// decision after the transaction cleared helps nobody).
  kShedOldest,
};

/// Outcome of a routed request. Exactly one of the three states; every
/// future issued by RankShardedEngine::submit resolves with one of them
/// (or with the exception that killed its shard batch) — futures are
/// never dropped, including on shutdown with queued work.
enum class ServeStatus {
  kServed = 0,  ///< admitted, forwarded, scored; `prediction` is valid
  kRejected,    ///< refused at admission (kRejectNew)
  kShed,        ///< admitted, then evicted by kShedOldest or lost to a
                ///< dead shard worker before it was scored
};

const char* to_string(ServeStatus status);

/// Per-shard simulation/kernel lane counts. requested == 0 partitions the
/// hardware threads across the shards via parallel::split_sizes (N shards
/// each draining through a full-width pool would just contend with each
/// other; a plain total/N would drop the remainder lanes). Every shard
/// gets at least one lane.
std::vector<std::size_t> shard_thread_lanes(std::size_t requested,
                                            std::size_t num_shards);

/// Latency-measurement primitive of the serving frontend.
inline double seconds_between(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct RoutedPrediction {
  ServeStatus status = ServeStatus::kServed;
  int shard = -1;           ///< which shard the feature-key hash routed to
  Prediction prediction;    ///< valid only when status == kServed
  double queue_seconds = 0.0;  ///< admission -> forward (0 if rejected)
  double total_seconds = 0.0;  ///< admission -> future fulfilment
  /// Why a request was shed without being scored when a shard worker
  /// died; empty for load-shedding and every other status.
  std::string error;
  /// The request's stitched trace (obs/trace.hpp): router-side spans
  /// plus the worker-side spans shipped back in the reply, re-based onto
  /// the router timeline.
  /// trace.trace_id == 0 for rejected requests (never admitted).
  obs::TraceSummary trace;
};

/// Where a shard worker runs. Either way it runs serve::run_shard_worker
/// over a parallel::SocketTransport link carrying the ShardEnvelope/
/// ShardReply protocol (see shard_wire.hpp for the messages and DESIGN.md
/// §1 for the substitution story), and the router drives both kinds
/// through one lifecycle.
enum class TransportKind : std::uint8_t {
  /// A thread this process starts, owning its InferenceEngine, on one
  /// end of a SocketTransport::pair (an AF_UNIX socketpair). No spawn,
  /// no handshake. It can only die through a bug.
  kInProcess,
  /// A spawned serving_rankd process (tools/), which loads the bundle
  /// from disk, connects back to the engine's listener over TCP or a
  /// Unix-domain socket, and handshakes in. It can die (crash, kill):
  /// see the shed-on-death semantics below.
  kSocket,
};

const char* to_string(TransportKind kind);

/// Socket-mode deployment knobs; the self-healing ones (respawn ...
/// respawn_backoff_max) govern in-process workers too.
struct SocketTransportConfig {
  /// The shard worker executable (tools/serving_rankd.cpp). Required.
  std::string worker_path;
  /// Directory the engine saves its bundle to and workers load it from
  /// (save_bundle is atomic, so a half-written handoff cannot be
  /// observed). Required.
  std::string bundle_dir;
  /// "unix:<path>" or "tcp:<ip>:<port>"; empty picks a fresh Unix-domain
  /// socket under /tmp.
  std::string listen_address;
  /// Bound on spawn -> connect -> handshake per worker; a worker that
  /// cannot connect and handshake in time fails construction loudly.
  std::chrono::milliseconds connect_timeout{15000};
  /// Extra argv entries appended to every worker spawn — the test hook
  /// that lets the suites simulate crashing workers (--die-after=N).
  std::vector<std::string> worker_extra_args;
  /// Self-healing: when a worker's link dies mid-serve, the router
  /// starts a replacement (next generation of the same shard slot,
  /// same ring weight, so routing is undisturbed and the handshake can
  /// refuse stragglers from the dead generation). In-flight and
  /// interim requests still shed — the respawn restores capacity, it
  /// never silently retries work.
  bool respawn = true;
  /// Consecutive failed respawn attempts before the slot is permanently
  /// demoted (it keeps shedding, stats report it `demoted`).
  std::size_t max_respawn_attempts = 3;
  /// First retry delay after a death; doubles per failed attempt.
  std::chrono::milliseconds respawn_backoff{200};
  /// Ceiling on the doubling.
  std::chrono::milliseconds respawn_backoff_max{5000};
};

struct RankShardedEngineConfig {
  /// Shard workers started at construction: num_shards threads
  /// (in-process) or spawned worker processes (socket), plus the
  /// engine's one router thread either way.
  std::size_t num_shards = 2;
  /// Per-shard engine knobs; num_threads == 0 divides hardware threads
  /// across the shards (shard_thread_lanes) — including socket workers,
  /// which are handed their lane count on the command line (the
  /// processes share this host, so full-width pools would oversubscribe
  /// it N-fold).
  EngineConfig engine;
  /// Key->shard assignment. Defaults to the consistent-hash ring because
  /// this engine supports add_shard(): growth only remigrates ~1/(N+1) of
  /// keys, so the per-shard StateCaches stay warm across a resize.
  RouterConfig router{RouterKind::kConsistentHash, 64};
  /// Bound on each shard's pending queue (admission control): requests
  /// admitted by submit() but not yet forwarded to the shard.
  std::size_t admission_capacity = 256;
  /// What submit() does when the routed shard's pending queue is full.
  AdmissionPolicy policy = AdmissionPolicy::kRejectNew;
  /// Per shard-drain batch bound; 0 = engine.max_batch. The router keeps
  /// at most two such batches in flight per shard (one scoring, one
  /// gathered behind it); the rest wait in the pending queue.
  std::size_t drain_max_batch = 0;
  /// Where the shard workers run, plus socket-mode and self-heal knobs.
  TransportKind transport = TransportKind::kInProcess;
  SocketTransportConfig socket;
  /// Ring weights of the initial fleet (heterogeneous shards: a worker
  /// with twice the --threads budget can carry twice the ring share).
  /// Empty = uniform 1.0. Otherwise must have num_shards entries, all
  /// positive; non-uniform weights require the consistent-hash router.
  std::vector<double> shard_weights;
  /// When non-empty, the recorder dumps its JSON here on every worker
  /// demotion and again at destruction (the rings are cumulative, so the
  /// later dump supersedes the earlier one — but the demotion-time dump
  /// survives even if the process never reaches a clean shutdown).
  std::string flight_dump_path;
};

/// Per-shard snapshot: router-side routing counters plus the shard
/// engine's own counters (cache, memo, circuits). The engine counters
/// are fetched over the worker's link (kStats flow) in both transports
/// and are zeros for a dead or removed worker.
struct RankShardStats {
  std::uint64_t routed = 0;  ///< envelopes the router sent this shard
  std::uint64_t served = 0;  ///< predictions this shard replied
  bool alive = true;         ///< false once the worker's link died
  bool removed = false;      ///< drained out of the topology by remove_shard
  bool demoted = false;      ///< respawn budget exhausted; permanently dead
  std::uint64_t respawns = 0;    ///< successful self-heals of this slot
  std::uint64_t generation = 0;  ///< current spawn generation (0 = initial)
  double weight = 1.0;           ///< consistent-hash ring weight
  std::size_t queue_depth = 0;   ///< pending (admitted, not yet forwarded)
  std::size_t max_queue_depth = 0;  ///< high-water mark of queue_depth
  EngineStats engine;
};

/// Aggregate snapshot. Invariant (once traffic settles): submitted ==
/// admitted + rejected and admitted == completed + shed — shed counts
/// kShedOldest evictions plus requests lost to a dead worker (a killed
/// process, or a thread worker that failed through a bug). stats()
/// loads `admitted` before `completed` and `shed`, so admitted -
/// completed - shed never overstates the requests still unresolved.
struct RankShardedStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t resizes = 0;  ///< add_shard() + remove_shard() calls served
  std::vector<RankShardStats> shards;
};

/// Sharded serving frontend: N InferenceEngine shard workers behind
/// per-shard bounded admission queues, each worker at the far end of a
/// parallel::SocketTransport link.
///
///   submit(x) ─ Router(feature_hash(x)) ─► [pending queue s] ─ full? policy
///                                                  │ router: re-route, forward
///                                                  ▼ while s owes < 2 batches
///    worker 0 ◄─ ShardEnvelope ─ SocketTransport ─ ShardEnvelope ─► worker N-1
///   InferenceEngine                   ▲                    InferenceEngine
///      └────────── ShardReply ────────┴──────── ShardReply ─────────┘
///   (thread over a socketpair, or serving_rankd over TCP/Unix socket)
///
/// Admission happens in submit(): the request is routed by feature-bit
/// hash through the configured Router and admitted into that shard's
/// pending queue, bounded by admission_capacity; on a full queue the
/// AdmissionPolicy rejects the newcomer or sheds the shard's oldest
/// pending request, and either verdict resolves before submit() returns.
/// The router thread does flow control: it forwards to a shard only
/// while that shard owes fewer than two drain batches, so the queue
/// bound holds in both transports and admitted-but-unresolved requests
/// stay below num_shards x (admission_capacity + 2 x batch bound). It
/// assigns ids, routes each request again from its stored hash by the
/// topology in force when it is forwarded (a request admitted during a
/// resize never reaches a removed shard), and multiplexes the workers'
/// reply links with try_recv. Each worker owns an InferenceEngine (with
/// its StateCache and memo) and runs the shared gather->predict->reply
/// loop (serve::run_shard_worker): block on the first envelope,
/// opportunistically try_recv more up to the drain batch bound, score
/// through the engine, reply per request. The only state crossing the
/// link is protocol bytes in the same frames, so TransportKind decides
/// only where a worker runs:
///
///  - kInProcess: a thread of this process on one end of a
///    SocketTransport::pair.
///  - kSocket: a serving_rankd process the engine spawns; construction
///    is listen -> spawn N workers -> accept + handshake each (wire
///    version + shard index + generation + ring weight + model shape,
///    see shard_wire.hpp).
///
/// Worker lifecycle — one for both transports, run by the router thread
/// (the constructor and destructor bracket it): one function starts a
/// worker (thread: socketpair, engine, thread; process: spawn, pinned
/// accept, handshake) and one stops it (close its link, then join the
/// thread — it exits on the transport error, as a process does — or reap
/// the process, escalating to SIGKILL).
///
/// Worker-death semantics: a dead link, a protocol-violating reply, or a
/// worker that stalls a drain marks that shard dead and sheds with
/// status instead of hanging or poisoning the engine: every in-flight
/// request on that shard, and every later request routed to it while it
/// is down, resolves ServeStatus::kShed with RoutedPrediction::error
/// naming the cause. Other shards keep serving. Requests are
/// deliberately not re-routed away from a dead shard: the assignment
/// must stay a pure function of (hash, topology) so client-side routing
/// stays possible. A process can be killed; a thread worker dies only
/// through a bug, and takes the same path.
///
/// Self-healing (socket.respawn, both transports): after shedding, the
/// router restarts the dead slot — stop the corpse, bump the slot's
/// generation, start a fresh worker with the same shard index / ring
/// weight (a spawned one is handshaken in pinned to the new generation,
/// which refuses any straggler from the dead spawn). Ring points never
/// move, so the replacement inherits exactly the keyspace its
/// predecessor owned. Failed attempts back off exponentially
/// (socket.respawn_backoff, doubling to respawn_backoff_max);
/// socket.max_respawn_attempts consecutive failures demote the slot
/// permanently — it sheds forever and stats() reports it `demoted`.
/// Every future owed at any point in this state machine resolves; none
/// ride the respawn.
///
/// Elasticity — live in both transports; resizes run on the router
/// thread between routing iterations while the survivors keep serving:
///  - add_shard(weight): starts one more worker and extends the ring.
///  - remove_shard(i): hands i's ring keys to the clockwise survivors
///    (no survivor key moves), drains i's in-flight envelopes, then
///    shutdown-handshakes and stops its worker. Shard ids are never
///    reused: the slot stays, marked `removed`, so assignments remain a
///    pure function of (hash, topology-history).
/// The surviving workers — and their StateCaches/memos — are never
/// touched by a resize; with the consistent-hash router growth
/// remigrates only ~1/(N+1) of keys, so hot caches stay hot
/// (tests/test_rank_sharded_engine.cpp pins the retention). Requests
/// submitted during a resize simply wait in their pending queues for the
/// new topology.
///
/// Determinism contract: routing, admission, batching, and transport are
/// scheduling decisions only; every served prediction is
/// bitwise-identical to the sequential simulate_states + decision_values
/// pipeline regardless of shard count, transport, admission policy,
/// queue pressure, batch composition, arrival order, or resize history.
///
/// Thread safety: submit(), shard_for(), num_shards(), worker_pid(),
/// stats(), pause_draining(), and resume_draining() are safe from any
/// number of threads. add_shard() and remove_shard() serialize against
/// each other and the destructor (lifecycle_mu_), and may run
/// concurrently with submitters. The router thread is the single writer
/// of the live topology (workers, ring, shard slots); external readers
/// synchronize through topology_mu_, never through the router — so a
/// resize can make progress while stats()/shard_for() callers come and
/// go.
///
/// Shutdown contract: the destructor stops admission (later submits
/// throw), serves every request already admitted to a pending queue or
/// in flight (shedding those owed to dead workers) even while draining
/// is paused, shuts the workers down with control envelopes, joins the
/// router, and stops every worker — no future is ever dropped.
class RankShardedEngine {
 public:
  explicit RankShardedEngine(ModelBundle bundle,
                             RankShardedEngineConfig config = {});
  RankShardedEngine(std::shared_ptr<const ModelBundle> bundle,
                    RankShardedEngineConfig config);
  ~RankShardedEngine();

  RankShardedEngine(const RankShardedEngine&) = delete;
  RankShardedEngine& operator=(const RankShardedEngine&) = delete;

  /// Validates, routes, applies the admission policy, and returns a
  /// future that always resolves: kServed, kRejected, or kShed (evicted
  /// by kShedOldest, or owed to a dead worker). Throws immediately on a
  /// malformed feature vector — admission statuses are for load, not for
  /// bad input — or on submit after the destructor began.
  std::future<RoutedPrediction> submit(std::vector<double> features);

  /// The shard `features` routes to under the current topology (pure
  /// function of the feature bits and the shard count).
  int shard_for(const std::vector<double>& features) const;

  /// Grows the shard set by one worker of ring weight `weight` while the
  /// surviving workers keep serving — no restart, no cache disturbance.
  /// Blocks until the new topology is serving. Non-1.0 weights require
  /// the consistent-hash router.
  void add_shard(double weight = 1.0);

  /// Shrinks the fleet: hands shard `shard`'s ring keys to the
  /// clockwise survivors, drains its in-flight envelopes, shutdown-
  /// handshakes it, and stops its worker. The id is never reused — the
  /// slot stays, reported `removed` by stats(), and num_shards() keeps
  /// counting it. Throws when `shard` is out of range, already removed,
  /// or the last shard standing. Blocks until the handoff is complete.
  void remove_shard(std::size_t shard);

  /// Socket mode: the pid of the worker currently serving shard
  /// `shard`, or -1 when there is none (in-process transport, removed
  /// slot, dead worker awaiting respawn, demoted slot, or engine
  /// stopped). Test/ops hook — it is inherently racy against respawn.
  long worker_pid(std::size_t shard) const;

  /// Operational drain control: while paused, requests are admitted (and
  /// the policy enforced) but the router forwards nothing new, so queues
  /// fill deterministically — used by maintenance windows and by the
  /// admission tests. Resizes leave paused queues alone (requests queued
  /// for a removed shard are re-routed once draining resumes); only
  /// destruction drains regardless of pause.
  void pause_draining();
  void resume_draining();

  RankShardedStats stats() const;
  std::size_t num_shards() const;
  const RankShardedEngineConfig& config() const { return config_; }
  const ModelBundle& bundle() const { return *bundle_; }

  /// The engine's flight recorder: recent stitched traces plus the fleet
  /// lifecycle event log (spawn/death/shed/respawn/demotion/...). All
  /// reader methods are safe during traffic; dump_to_file writes the
  /// postmortem JSON on demand.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

 private:
  struct Pending {
    std::vector<double> features;
    std::uint64_t hash = 0;  ///< feature_hash(features): routes at forward
    std::promise<RoutedPrediction> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Begun at submit() (epoch == submitted); the router appends its
    /// spans, stitches the worker's in, and finishes it into
    /// RoutedPrediction::trace.
    obs::TraceContext trace;
  };

  /// One shard's admission queue, indexed by the shard submit() routed
  /// the request to.
  struct ShardQueue {
    std::deque<Pending> requests;
    std::size_t high_water = 0;
  };

  /// Router-side per-shard slot: routing counters, liveness, and the
  /// respawn state machine. Atomics are the cross-thread surface
  /// (stats() and worker_pid() snapshot them); the trailing plain fields
  /// belong to the router thread.
  struct ShardState {
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<bool> alive{true};
    std::atomic<bool> removed{false};
    std::atomic<bool> demoted{false};
    std::atomic<std::uint64_t> respawns{0};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<long> pid{-1};  ///< the serving worker process, if any
    /// weight and threads are immutable after the slot is published into
    /// shard_state_ (set before the locked push_back), so readers need no
    /// lock beyond the one that found the slot.
    double weight = 1.0;
    std::size_t threads = 0;  ///< the worker engine's lane budget
    /// Respawn bookkeeping (router-thread-only).
    std::size_t respawn_attempts = 0;
    std::chrono::milliseconds respawn_delay{0};
    std::chrono::steady_clock::time_point next_respawn{};
  };

  /// One shard worker, whichever transport runs it: the router's end of
  /// its link plus what must be stopped with it.
  struct Worker {
    std::unique_ptr<parallel::SocketTransport> link;
    long pid = -1;       ///< kSocket: the spawned serving_rankd
    std::thread thread;  ///< kInProcess: runs run_shard_worker
  };

  /// add_shard()/remove_shard() -> router handoff: the router is the
  /// single topology writer, so resizes execute on its thread between
  /// routing iterations.
  struct TopologyCommand {
    enum class Op : std::uint8_t { kAdd, kRemove };
    Op op = Op::kAdd;
    std::size_t shard = 0;  ///< kRemove target
    double weight = 1.0;    ///< kAdd ring weight
    std::promise<void> done;
  };

  /// Starts the worker for slot `shard` and returns it serving: a thread
  /// over a fresh socketpair, or a spawned serving_rankd accepted and
  /// handshaken pinned to (shard, generation, weight). Throws — with
  /// nothing left running — when the worker cannot be started.
  Worker start_worker(std::size_t shard, std::size_t threads, double weight,
                      std::uint64_t generation);
  /// Closes the worker's link, then joins its thread or reaps its
  /// process (SIGKILL after `grace`). Idempotent.
  void stop_worker(Worker& worker, std::chrono::milliseconds grace);
  /// Accepts connections until one passes the handshake `policy` pins,
  /// within socket.connect_timeout (socket mode).
  std::unique_ptr<parallel::SocketTransport> accept_worker(
      const ShardAcceptPolicy& policy);
  /// add_shard()/remove_shard(): hands `cmd` to the router and waits.
  void resize(TopologyCommand cmd);
  /// The router thread's body: router_loop(), then fail whatever stats
  /// or resize request is still waiting on it.
  void run_router();
  /// The router thread's loop: admission queues -> workers -> futures,
  /// plus resizes, the self-heal monitor, and the final drain.
  void router_loop();
  /// Command line for one serving_rankd spawn (socket mode).
  std::vector<std::string> worker_args(std::size_t shard, std::size_t threads,
                                       double weight,
                                       std::uint64_t generation) const;
  /// Snapshot every live worker's EngineStats over the kStats flow.
  /// Called by stats() via the stats_requests_ queue the router services
  /// between iterations.
  std::vector<EngineStats> fetch_remote_stats() const;
  std::size_t drain_batch_limit() const;
  bool queues_empty() const QKMPS_REQUIRES(mu_);

  const std::shared_ptr<const ModelBundle> bundle_;
  const RankShardedEngineConfig config_;
  /// Declared after config_ (ring capacities come from it); internally
  /// synchronized, so recording needs no engine lock.
  obs::FlightRecorder flight_;

  /// Serializes public lifecycle ops (add_shard, remove_shard, dtor)
  /// against each other. Never taken by the router thread — a resize
  /// caller holds it while *waiting on* the router, so the router
  /// taking it would deadlock.
  mutable util::Mutex lifecycle_mu_;
  /// Guards the topology containers (router_, shard_state_). The router
  /// thread is the only *writer*, but every access — including the
  /// router's own pointer-grab reads — takes the lock, so the discipline
  /// is machine-checked instead of commented. Held for pointer-swap
  /// moments only, never across a drain or a worker start; ShardState
  /// objects themselves are stable once published (unique_ptr slots are
  /// never erased), so holders of a ShardState* drop the lock before
  /// touching its atomics.
  mutable util::Mutex topology_mu_;
  std::unique_ptr<Router> router_ QKMPS_GUARDED_BY(topology_mu_);
  std::vector<std::unique_ptr<ShardState>> shard_state_
      QKMPS_GUARDED_BY(topology_mu_);

  mutable util::Mutex mu_;  ///< guards the pending queues, requests, flags
  mutable util::CondVar cv_router_;
  /// Per-shard pending queues; grown by submit() when it first routes to
  /// a shard, so there may be fewer than shards. A deque: growing it
  /// never moves a queue (a deque of promises cannot be copied).
  std::deque<ShardQueue> queues_ QKMPS_GUARDED_BY(mu_);
  /// stats() -> router handoff: the router answers each with a kStats
  /// sweep of the live workers.
  mutable std::deque<std::promise<std::vector<EngineStats>>> stats_requests_
      QKMPS_GUARDED_BY(mu_);
  /// add/remove_shard -> router handoff.
  std::deque<TopologyCommand> topology_requests_ QKMPS_GUARDED_BY(mu_);
  /// pause_draining(): the router forwards nothing unless stopped_.
  bool paused_ QKMPS_GUARDED_BY(mu_) = false;
  /// Terminal: submit() throws from now on, and the router drains what
  /// was admitted, shuts the workers down, and returns.
  bool stopped_ QKMPS_GUARDED_BY(mu_) = false;

  /// Socket mode: the listener stays open for the engine's life.
  /// listener_ and workers_ (one per shard slot; a removed slot's is
  /// empty) are touched by the constructor, then only by the router
  /// thread, then by the destructor after that thread is joined —
  /// single-owner by construction.
  std::unique_ptr<parallel::SocketListener> listener_;
  std::vector<Worker> workers_;
  std::thread router_thread_;
  /// The router loop's escapee, if any.
  std::exception_ptr runtime_error_ QKMPS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> resizes_{0};
  std::uint64_t next_id_ = 0;  ///< router-thread-only
};

}  // namespace qkmps::serve
