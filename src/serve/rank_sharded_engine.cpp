#include "serve/rank_sharded_engine.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/partition.hpp"
#include "serve/feature_key.hpp"
#include "util/error.hpp"

extern char** environ;

namespace qkmps::serve {

namespace {

/// How long the idle router sleeps between queue/reply polls: adds at most
/// ~0.1 ms of latency to a request that arrives while it sleeps.
constexpr std::chrono::microseconds kRouterPoll{100};

/// Flight-recorder ring sizes (obs/flight_recorder.hpp): recent trace
/// summaries and fleet lifecycle events kept for postmortems.
constexpr std::size_t kFlightTraceCapacity = 256;
constexpr std::size_t kFlightEventCapacity = 512;

/// Fresh Unix-domain address per engine incarnation: pid + a process-wide
/// counter keeps concurrently constructed engines (and engine-heavy test
/// suites) from colliding on the filesystem.
std::string default_socket_address() {
  static std::atomic<unsigned> seq{0};
  return "unix:/tmp/qkmps_rankd_" + std::to_string(::getpid()) + "_" +
         std::to_string(seq.fetch_add(1)) + ".sock";
}

long spawn_worker_process(const std::string& exe,
                          const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ);
  QKMPS_CHECK_MSG(rc == 0, "posix_spawn(" << exe
                                          << ") failed: " << std::strerror(rc));
  return static_cast<long>(pid);
}

/// waitpid that retries EINTR: a signal delivered to this thread (a
/// profiler tick, a debugger attach, SIGCHLD itself) must not abandon
/// the wait — an abandoned wait leaks the child as a zombie for the
/// life of the engine process.
pid_t waitpid_eintr(long pid, int* status, int options) {
  pid_t r;
  do {
    r = ::waitpid(static_cast<pid_t>(pid), status, options);
  } while (r == -1 && errno == EINTR);
  return r;
}

/// Waits `grace` for the worker to exit on its own (it just saw its link
/// close or a kShutdown), then escalates to SIGKILL — the destructor must
/// never hang on a wedged child.
void reap_worker(long pid, std::chrono::milliseconds grace) {
  const auto deadline = std::chrono::steady_clock::now() + grace;
  for (;;) {
    int status = 0;
    const pid_t r = waitpid_eintr(pid, &status, WNOHANG);
    if (r != 0) return;  // reaped (or already gone / not ours)
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  int status = 0;
  waitpid_eintr(pid, &status, 0);
}

/// How the flight recorder names a worker: its process, or its thread.
std::string worker_name(long pid) {
  return pid > 0 ? "pid " + std::to_string(pid) : "thread";
}

/// Full-precision decimal so the weight a worker parses from its command
/// line is bit-identical to the one the router pinned in the handshake
/// policy (17 significant digits round-trip any double).
std::string format_weight(double weight) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", weight);
  return buf;
}

}  // namespace

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kServed:
      return "served";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kShed:
      return "shed";
  }
  return "unknown";
}

std::vector<std::size_t> shard_thread_lanes(std::size_t requested,
                                            std::size_t num_shards) {
  if (requested > 0)
    return std::vector<std::size_t>(num_shards, requested);
  const unsigned hw = std::thread::hardware_concurrency();
  const idx total = static_cast<idx>(hw == 0 ? 2 : hw);
  const std::vector<idx> sizes =
      parallel::split_sizes(total, static_cast<idx>(num_shards));
  std::vector<std::size_t> lanes(num_shards, 1);
  for (std::size_t i = 0; i < num_shards; ++i)
    lanes[i] = std::max<std::size_t>(1, static_cast<std::size_t>(sizes[i]));
  return lanes;
}

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

RankShardedEngine::RankShardedEngine(ModelBundle bundle,
                                     RankShardedEngineConfig config)
    : RankShardedEngine(
          std::make_shared<const ModelBundle>(std::move(bundle)), config) {}

RankShardedEngine::RankShardedEngine(std::shared_ptr<const ModelBundle> bundle,
                                     RankShardedEngineConfig config)
    : bundle_(std::move(bundle)),
      config_(std::move(config)),
      flight_(kFlightTraceCapacity, kFlightEventCapacity) {
  QKMPS_CHECK(bundle_ != nullptr);
  QKMPS_CHECK_MSG(config_.num_shards >= 1, "need at least one shard");
  QKMPS_CHECK_MSG(config_.admission_capacity >= 1,
                  "admission queue needs capacity >= 1");
  std::vector<double> weights = config_.shard_weights;
  if (weights.empty()) weights.assign(config_.num_shards, 1.0);
  QKMPS_CHECK_MSG(weights.size() == config_.num_shards,
                  "shard_weights has " << weights.size() << " entries for "
                                       << config_.num_shards << " shards");
  // num_threads == 0 divides the hardware threads across the shards: the
  // workers share this host (threads or processes alike), so handing
  // each a full-width pool would oversubscribe it N-fold.
  const std::vector<std::size_t> lanes =
      shard_thread_lanes(config_.engine.num_threads, config_.num_shards);
  {
    // No other thread exists yet; the lock is for the analysis, which
    // ties these containers to topology_mu_ everywhere.
    util::MutexLock topo(topology_mu_);
    router_ = make_router(config_.router, weights);
    for (std::size_t i = 0; i < config_.num_shards; ++i) {
      shard_state_.push_back(std::make_unique<ShardState>());
      shard_state_.back()->weight = weights[i];
      shard_state_.back()->threads = lanes[i];
    }
  }

  if (config_.transport == TransportKind::kSocket) {
    const SocketTransportConfig& sc = config_.socket;
    QKMPS_CHECK_MSG(!sc.worker_path.empty(),
                    "socket transport needs socket.worker_path (the "
                    "serving_rankd binary)");
    QKMPS_CHECK_MSG(!sc.bundle_dir.empty(),
                    "socket transport needs socket.bundle_dir (the bundle "
                    "handoff directory)");
    // Hand the model to the workers through the bundle format — the same
    // artifact a real deployment ships. save_bundle is atomic, so workers
    // can never observe a half-written manifest.
    save_bundle(*bundle_, sc.bundle_dir);
    // The listener stays open for the engine's whole life — it is what
    // makes the fleet elastic: add_shard() and the respawn path accept
    // fresh workers on it long after the initial fleet handshakes in.
    listener_ = std::make_unique<parallel::SocketListener>(
        parallel::SocketListener::listen(sc.listen_address.empty()
                                             ? default_socket_address()
                                             : sc.listen_address));
  }

  // Reserved so that no push_back can throw with a running worker in
  // hand (an unjoined std::thread terminates the program).
  workers_.reserve(config_.num_shards);
  try {
    for (std::size_t i = 0; i < config_.num_shards; ++i) {
      workers_.push_back(start_worker(i, lanes[i], weights[i], 0));
      flight_.record_event(obs::EventKind::kSpawn, static_cast<int>(i), 0,
                           worker_name(workers_.back().pid));
      util::MutexLock topo(topology_mu_);
      shard_state_[i]->pid.store(workers_.back().pid,
                                 std::memory_order_relaxed);
    }
    router_thread_ = std::thread([this] { run_router(); });
  } catch (...) {
    // Fail construction loudly but cleanly: no orphan workers, no stale
    // socket files.
    for (Worker& worker : workers_)
      stop_worker(worker, std::chrono::milliseconds(500));
    listener_.reset();
    throw;
  }
}

void RankShardedEngine::run_router() {
  try {
    router_loop();
  } catch (...) {
    // The loop escaped its own handling (internal invariant failure).
    // Remember it so the next API call fails loudly instead of hanging
    // on a dead router.
    util::MutexLock lock(mu_);
    runtime_error_ = std::current_exception();
  }
  // Fulfil any stats or resize request that raced the shutdown so no
  // caller is left waiting on a promise nobody owns.
  std::deque<std::promise<std::vector<EngineStats>>> stats_leftovers;
  std::deque<TopologyCommand> topology_leftovers;
  {
    util::MutexLock lock(mu_);
    stats_leftovers.swap(stats_requests_);
    topology_leftovers.swap(topology_requests_);
  }
  for (auto& p : stats_leftovers)
    p.set_value(std::vector<EngineStats>(workers_.size()));
  for (auto& c : topology_leftovers)
    c.done.set_exception(std::make_exception_ptr(
        Error("engine stopped before the resize could run")));
}

RankShardedEngine::~RankShardedEngine() {
  util::MutexLock lifecycle(lifecycle_mu_);
  {
    util::MutexLock lock(mu_);
    stopped_ = true;
  }
  cv_router_.notify_all();
  if (router_thread_.joinable()) router_thread_.join();
  // The router shut every live worker down before returning; stopping
  // them now joins or reaps them, and closes the links of any the
  // shutdown handshake missed (they exit on the transport error).
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    {
      util::MutexLock topo(topology_mu_);
      shard_state_[s]->pid.store(-1, std::memory_order_relaxed);
    }
    stop_worker(workers_[s], std::chrono::milliseconds(5000));
  }
  listener_.reset();
  if (!config_.flight_dump_path.empty()) {
    try {
      flight_.dump_to_file(config_.flight_dump_path);
    } catch (const std::exception&) {
      // A postmortem that cannot be written must not turn a clean
      // shutdown into a terminate (throwing destructor).
    }
  }
}

RankShardedEngine::Worker RankShardedEngine::start_worker(
    std::size_t shard, std::size_t threads, double weight,
    std::uint64_t generation) {
  Worker worker;
  if (config_.transport == TransportKind::kInProcess) {
    // What serving_rankd runs, minus connect and handshake: the worker
    // owns its engine (so its StateCache and memo die with it) and
    // returns once its link closes, as a process exits.
    auto [router_end, worker_end] = parallel::SocketTransport::pair();
    EngineConfig engine_config = config_.engine;
    engine_config.num_threads = threads;
    auto engine = std::make_unique<InferenceEngine>(bundle_, engine_config);
    ShardWorkerOptions options;
    options.batch_limit = std::max<std::size_t>(1, drain_batch_limit());
    worker.link = std::move(router_end);
    worker.thread = std::thread([link = std::move(worker_end),
                                 engine = std::move(engine), options, shard] {
      try {
        run_shard_worker(*link, *engine, options);
      } catch (const std::exception& e) {
        // The router closed the link without a shutdown (it marked this
        // shard dead), or a bug escaped the loop. Either way the worker
        // exits, and its closing link tells the router — exactly as a
        // serving_rankd process's exit would, reason on stderr included.
        std::fprintf(stderr, "shard worker thread %zu: %s\n", shard,
                     e.what());
      }
    });
    return worker;
  }
  worker.pid = spawn_worker_process(
      config_.socket.worker_path,
      worker_args(shard, threads, weight, generation));
  try {
    ShardAcceptPolicy policy;
    policy.num_shards = std::max(shard + 1, num_shards());
    policy.num_features = bundle_->num_features();
    policy.require_shard = shard;
    policy.require_generation = generation;
    policy.require_weight = weight;
    worker.link = accept_worker(policy);
  } catch (...) {
    stop_worker(worker, std::chrono::milliseconds(500));
    throw;
  }
  return worker;
}

void RankShardedEngine::stop_worker(Worker& worker,
                                    std::chrono::milliseconds grace) {
  // The closed link is an EOF the worker sees as a dead router: one that
  // missed (or never got) the shutdown handshake exits on it.
  worker.link.reset();
  if (worker.thread.joinable()) worker.thread.join();
  if (worker.pid > 0) reap_worker(worker.pid, grace);
  worker.pid = -1;
}

std::unique_ptr<parallel::SocketTransport> RankShardedEngine::accept_worker(
    const ShardAcceptPolicy& policy) {
  // A refused straggler (a superseded generation that connected late, a
  // backlogged corpse) is not a failure — it is told why and dropped, and
  // we keep waiting for the worker we spawned.
  const auto deadline =
      std::chrono::steady_clock::now() + config_.socket.connect_timeout;
  for (;;) {
    const auto left = deadline - std::chrono::steady_clock::now();
    QKMPS_CHECK_MSG(left > std::chrono::milliseconds::zero(),
                    "timed out waiting for the spawned worker to connect");
    std::unique_ptr<parallel::SocketTransport> conn = listener_->accept_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(left));
    QKMPS_CHECK_MSG(conn != nullptr,
                    "timed out waiting for the spawned worker to connect");
    try {
      shard_handshake_server(
          *conn, policy,
          std::chrono::duration_cast<std::chrono::microseconds>(left));
      return conn;
    } catch (const Error& e) {
      flight_.record_event(
          obs::EventKind::kHandshakeRefused,
          policy.require_shard ? static_cast<int>(*policy.require_shard) : -1,
          policy.require_generation.value_or(0), e.what());
      if (std::chrono::steady_clock::now() >= deadline) throw;
    }
  }
}

void RankShardedEngine::resize(TopologyCommand cmd) {
  // The router thread is the topology's single writer: hand it the
  // resize and wait. Survivors keep serving throughout.
  std::future<void> done = cmd.done.get_future();
  {
    util::MutexLock lock(mu_);
    if (runtime_error_) std::rethrow_exception(runtime_error_);
    QKMPS_CHECK_MSG(!stopped_, "resize on a stopped RankShardedEngine");
    topology_requests_.push_back(std::move(cmd));
  }
  cv_router_.notify_all();
  done.get();  // rethrows a failed start or handoff
  resizes_.fetch_add(1, std::memory_order_relaxed);
}

void RankShardedEngine::add_shard(double weight) {
  QKMPS_CHECK_MSG(weight > 0.0,
                  "shard weight must be positive, got " << weight);
  util::MutexLock lifecycle(lifecycle_mu_);
  TopologyCommand cmd;
  cmd.op = TopologyCommand::Op::kAdd;
  cmd.weight = weight;
  resize(std::move(cmd));
}

void RankShardedEngine::remove_shard(std::size_t shard) {
  util::MutexLock lifecycle(lifecycle_mu_);
  {
    util::MutexLock topo(topology_mu_);
    QKMPS_CHECK_MSG(shard < shard_state_.size(),
                    "remove_shard(" << shard << ") out of range");
    QKMPS_CHECK_MSG(!shard_state_[shard]->removed.load(),
                    "shard " << shard << " was already removed");
    std::size_t remaining = 0;
    for (const auto& state : shard_state_)
      if (!state->removed.load()) ++remaining;
    QKMPS_CHECK_MSG(remaining > 1, "cannot remove the last shard");
  }
  TopologyCommand cmd;
  cmd.op = TopologyCommand::Op::kRemove;
  cmd.shard = shard;
  resize(std::move(cmd));
}

std::size_t RankShardedEngine::num_shards() const {
  util::MutexLock topo(topology_mu_);
  return shard_state_.size();
}

int RankShardedEngine::shard_for(const std::vector<double>& features) const {
  util::MutexLock topo(topology_mu_);
  return router_->shard_for(features);
}

long RankShardedEngine::worker_pid(std::size_t shard) const {
  util::MutexLock topo(topology_mu_);
  if (shard >= shard_state_.size()) return -1;
  const ShardState& state = *shard_state_[shard];
  if (state.removed.load(std::memory_order_relaxed) ||
      state.demoted.load(std::memory_order_relaxed) ||
      !state.alive.load(std::memory_order_relaxed))
    return -1;
  return state.pid.load(std::memory_order_relaxed);
}

std::size_t RankShardedEngine::drain_batch_limit() const {
  return config_.drain_max_batch > 0 ? config_.drain_max_batch
                                     : config_.engine.max_batch;
}

std::future<RoutedPrediction> RankShardedEngine::submit(
    std::vector<double> features) {
  check_request_features(features, bundle_->num_features());
  Pending request;
  request.hash = feature_hash(features);
  request.features = std::move(features);
  request.trace = obs::TraceContext::begin();
  request.submitted = request.trace.epoch;  // one clock read, two uses
  std::future<RoutedPrediction> fut = request.promise.get_future();
  int shard;
  {
    util::MutexLock topo(topology_mu_);
    shard = router_->shard_for_hash(request.hash);
  }

  std::optional<Pending> victim;  // kShedOldest eviction, resolved unlocked
  bool rejected = false;
  {
    util::MutexLock lock(mu_);
    if (runtime_error_) std::rethrow_exception(runtime_error_);
    QKMPS_CHECK_MSG(!stopped_, "submit on a stopped RankShardedEngine");
    submitted_.fetch_add(1, std::memory_order_relaxed);
    const auto s = static_cast<std::size_t>(shard);
    if (queues_.size() <= s) queues_.resize(s + 1);
    ShardQueue& queue = queues_[s];
    if (queue.requests.size() >= config_.admission_capacity) {
      if (config_.policy == AdmissionPolicy::kRejectNew) {
        rejected = true;
      } else {
        victim.emplace(std::move(queue.requests.front()));
        queue.requests.pop_front();
        shed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!rejected) {
      queue.requests.push_back(std::move(request));
      queue.high_water = std::max(queue.high_water, queue.requests.size());
      // Release pairs with the acquire load in stats(): a sampler that
      // sees this admission also sees the completions and sheds that made
      // room for it.
      admitted_.fetch_add(1, std::memory_order_release);
    }
  }

  const auto now = std::chrono::steady_clock::now();
  if (victim) {
    RoutedPrediction out;
    out.status = ServeStatus::kShed;
    out.shard = shard;
    out.total_seconds = seconds_between(victim->submitted, now);
    // A shed request was admitted (and traced); its whole life was the
    // admission wait it lost.
    victim->trace.add_span("admission_wait", victim->submitted, now);
    out.trace = std::move(victim->trace).finish(now);
    victim->promise.set_value(std::move(out));
  }
  if (rejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    RoutedPrediction out;
    out.status = ServeStatus::kRejected;
    out.shard = shard;
    out.total_seconds = seconds_between(request.submitted, now);
    request.promise.set_value(std::move(out));
  } else {
    cv_router_.notify_all();
  }
  return fut;
}

void RankShardedEngine::pause_draining() {
  util::MutexLock lock(mu_);
  paused_ = true;
}

void RankShardedEngine::resume_draining() {
  {
    util::MutexLock lock(mu_);
    paused_ = false;
  }
  cv_router_.notify_all();
}

std::vector<std::string> RankShardedEngine::worker_args(
    std::size_t shard, std::size_t threads, double weight,
    std::uint64_t generation) const {
  std::vector<std::string> args = {
      "--connect=" + listener_->address(),
      "--shard=" + std::to_string(shard),
      "--bundle=" + config_.socket.bundle_dir,
      "--gather=" + std::to_string(drain_batch_limit()),
      "--threads=" + std::to_string(threads),
      "--cache=" + std::to_string(config_.engine.cache_capacity),
      "--memo=" + std::to_string(config_.engine.memo_capacity),
      "--weight=" + format_weight(weight),
      "--generation=" + std::to_string(generation)};
  args.insert(args.end(), config_.socket.worker_extra_args.begin(),
              config_.socket.worker_extra_args.end());
  return args;
}

void RankShardedEngine::router_loop() {
  struct InFlight {
    std::promise<RoutedPrediction> promise;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point forwarded;
    std::chrono::steady_clock::time_point wire_start;  ///< envelope send
    int shard = -1;
    obs::TraceContext trace;
  };
  std::unordered_map<std::uint64_t, InFlight> inflight;
  bool drain_marker_sent = false;
  // Sized when the drain marker goes out: the topology is frozen from
  // that point on (resize commands are refused while draining).
  std::vector<char> drain_acked;
  // A connected-but-unresponsive worker (deadlocked, SIGSTOP'd) owing
  // replies or a drain ack would otherwise stall the drain loop — and
  // with it the destructor — forever. Any progress pushes the deadline
  // out; total silence past it marks the offenders dead, matching the
  // shutdown handshake's escalation.
  constexpr std::chrono::seconds kDrainStall{30};
  std::chrono::steady_clock::time_point drain_stall_deadline{};

  // A shard is addressable when it is neither dead nor drained out of
  // the topology. Removed slots keep their index (ids are never reused)
  // but own no ring points, no worker, and no futures.
  const auto routable = [this](int s) {
    util::MutexLock topo(topology_mu_);
    const ShardState& state = *shard_state_[static_cast<std::size_t>(s)];
    return state.alive.load(std::memory_order_relaxed) &&
           !state.removed.load(std::memory_order_relaxed);
  };

  // Shed with status: the worker is gone, so the honest outcome is a
  // resolved future that says so — never a hang, never a dropped
  // promise, never a re-route (assignments stay a pure function of the
  // topology so client-side routing keeps working).
  const auto shed = [this](InFlight fl, const std::string& why) {
    const auto now = std::chrono::steady_clock::now();
    RoutedPrediction out;
    out.status = ServeStatus::kShed;
    out.shard = fl.shard;
    out.error = why;
    out.queue_seconds = seconds_between(fl.submitted, fl.forwarded);
    out.total_seconds = seconds_between(fl.submitted, now);
    // A shed request's trace still tells its story: how long it waited
    // and (via the flight recorder) what incident it died in.
    fl.trace.add_span("admission_wait", fl.submitted, fl.forwarded);
    out.trace = std::move(fl.trace).finish(now);
    flight_.record_trace(out.trace);
    shed_.fetch_add(1, std::memory_order_relaxed);
    fl.promise.set_value(out);
  };

  const auto generation_of = [this](int s) {
    util::MutexLock topo(topology_mu_);
    return shard_state_[static_cast<std::size_t>(s)]->generation.load(
        std::memory_order_relaxed);
  };

  const auto mark_dead = [&](int s, const std::string& why) {
    ShardState* state_ptr;
    {
      util::MutexLock topo(topology_mu_);
      state_ptr = shard_state_[static_cast<std::size_t>(s)].get();
    }
    ShardState& state = *state_ptr;
    if (!state.alive.exchange(false, std::memory_order_relaxed)) return;
    flight_.record_event(obs::EventKind::kWorkerDeath, s, generation_of(s),
                         why);
    std::size_t shed_count = 0;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->second.shard == s) {
        shed(std::move(it->second), "shard worker died: " + why);
        ++shed_count;
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
    // One aggregate kShed event per incident, not one per request: a
    // death under load sheds hundreds of futures, and per-request events
    // would wash the spawn/respawn/demotion story out of the event ring
    // (the per-request detail is in the trace ring and the counters).
    if (shed_count > 0)
      flight_.record_event(
          obs::EventKind::kShed, s, generation_of(s),
          "shed " + std::to_string(shed_count) + " in-flight requests");
    // Arm the self-heal: a fresh death gets a fresh attempt budget and
    // the base backoff (the monitor below doubles it per failure).
    state.respawn_attempts = 0;
    state.respawn_delay = config_.socket.respawn_backoff;
    state.next_respawn = std::chrono::steady_clock::now() + state.respawn_delay;
  };

  // A link failure is an expected outcome in either transport (a killed
  // process, or a thread worker that failed), never an engine failure:
  // it marks the shard dead. Each returns false / nullopt once it has.
  const auto shard_send = [&](int s, const ShardEnvelope& envelope) -> bool {
    try {
      workers_[static_cast<std::size_t>(s)].link->send(
          encode_envelope(envelope));
      return true;
    } catch (const Error& e) {
      mark_dead(s, e.what());
      return false;
    }
  };

  // One reply from shard s, waiting at most `timeout` (zero: only what
  // is already queued). nullopt on timeout or once the shard is dead —
  // callers tell the two apart with routable(s).
  const auto shard_recv = [&](int s, std::chrono::microseconds timeout)
      -> std::optional<ShardReply> {
    try {
      std::optional<std::vector<std::uint8_t>> bytes =
          workers_[static_cast<std::size_t>(s)].link->recv_for(timeout);
      if (!bytes) return std::nullopt;
      return decode_reply(*bytes);
    } catch (const Error& e) {
      mark_dead(s, e.what());
      return std::nullopt;
    }
  };

  const auto handle_reply = [&](int s, ShardReply reply) {
    if (reply.kind == ShardReply::Kind::kDrained) {
      QKMPS_CHECK_MSG(static_cast<std::size_t>(s) < drain_acked.size(),
                      "unsolicited drain ack");
      drain_acked[static_cast<std::size_t>(s)] = 1;
      return;
    }
    if (reply.kind == ShardReply::Kind::kStats) {
      // A stats sweep that timed out and was abandoned; stale, drop it.
      return;
    }
    QKMPS_CHECK_MSG(reply.kind == ShardReply::Kind::kPrediction ||
                        reply.kind == ShardReply::Kind::kFailed,
                    "unexpected reply kind in router loop");
    const auto it = inflight.find(reply.id);
    QKMPS_CHECK_MSG(it != inflight.end(),
                    "shard replied to an unknown request id");
    InFlight fl = std::move(it->second);
    inflight.erase(it);
    const auto now = std::chrono::steady_clock::now();
    if (reply.kind == ShardReply::Kind::kPrediction) {
      // A trace-id mismatch is a protocol violation like an unknown
      // request id (the caller marks the shard dead). An echo of 0 is
      // legal: a v2 peer decodes our envelopes without the trace tail.
      QKMPS_CHECK_MSG(
          reply.trace_id == 0 || reply.trace_id == fl.trace.trace_id,
          "shard echoed trace id " << reply.trace_id << " for request "
                                   << reply.id);
      {
        util::MutexLock topo(topology_mu_);
        shard_state_[static_cast<std::size_t>(s)]->served.fetch_add(
            1, std::memory_order_relaxed);
      }
      RoutedPrediction out;
      out.status = ServeStatus::kServed;
      out.shard = fl.shard;
      out.prediction = reply.prediction;
      out.queue_seconds = seconds_between(fl.submitted, fl.forwarded);

      // Stitch: router-side spans, then the worker's (recorded relative
      // to its batch start on its own clock) re-based to open at our wire
      // span — a coherent cross-process timeline with no clock agreement.
      fl.trace.add_span("admission_wait", fl.submitted, fl.forwarded);
      fl.trace.add_span("route", fl.forwarded, fl.wire_start);
      fl.trace.add_span("wire", fl.wire_start, now);
      const auto wire_offset = fl.wire_start - fl.trace.epoch;
      const std::uint64_t base_ns =
          wire_offset.count() <= 0
              ? 0
              : static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wire_offset)
                        .count());
      for (const obs::Span& span : reply.spans)
        fl.trace.add_span_ns(span.name, base_ns + span.start_ns,
                             span.duration_ns, span.origin);
      const auto done = std::chrono::steady_clock::now();
      fl.trace.add_span("reply", now, done);
      out.total_seconds = seconds_between(fl.submitted, done);
      out.trace = std::move(fl.trace).finish(done);
      flight_.record_trace(out.trace);

      static obs::Histogram& queue_hist =
          obs::Registry::global().histogram("serve.latency.queue_seconds");
      static obs::Histogram& total_hist =
          obs::Registry::global().histogram("serve.latency.total_seconds");
      static obs::Histogram& wire_hist =
          obs::Registry::global().histogram("serve.latency.wire_seconds");
      queue_hist.observe(out.queue_seconds);
      total_hist.observe(out.total_seconds);
      wire_hist.observe(seconds_between(fl.wire_start, now));

      completed_.fetch_add(1, std::memory_order_relaxed);
      fl.promise.set_value(out);
    } else {
      completed_.fetch_add(1, std::memory_order_relaxed);
      fl.promise.set_exception(std::make_exception_ptr(
          Error("shard batch failed: " + reply.error)));
    }
  };

  // A well-framed but protocol-violating reply (duplicate/unknown id,
  // spurious kind) gets the same treatment a dead link gets: one
  // misbehaving worker must not take the router — and every other
  // shard's futures — down with it.
  const auto take_reply = [&](int s, ShardReply reply) {
    try {
      handle_reply(s, std::move(reply));
    } catch (const Error& e) {
      mark_dead(s, e.what());
    }
  };

  // Waits for shard s's reply of kind `ack` (handling every reply queued
  // ahead of it), at most `patience` of silence. False when the shard
  // died or stayed silent — marked dead with `silence` as the cause.
  const auto await_ack = [&](int s, ShardReply::Kind ack,
                             std::chrono::microseconds patience,
                             const char* silence) {
    while (routable(s)) {
      std::optional<ShardReply> reply = shard_recv(s, patience);
      if (!reply) {
        if (routable(s)) mark_dead(s, silence);
        return false;
      }
      if (reply->kind == ack) return true;
      take_reply(s, std::move(*reply));
    }
    return false;
  };

  // -------------------------------------------------------------------
  // Elastic machinery. All of it runs on this thread — the topology's
  // single writer — so only the pointer-swap moments take topology_mu_
  // (for the external readers), never the worker starts or drains.

  // One respawn attempt for a dead (not removed, not demoted) slot: stop
  // the corpse, start the next generation with the slot's weight. Ring
  // points are a pure function of (shard, weight), so the replacement
  // inherits exactly the keyspace its predecessor owned — nothing else
  // moves.
  const auto try_respawn = [&](std::size_t s) {
    ShardState* state_ptr;
    {
      util::MutexLock topo(topology_mu_);
      state_ptr = shard_state_[s].get();
    }
    ShardState& state = *state_ptr;
    state.pid.store(-1, std::memory_order_relaxed);
    stop_worker(workers_[s], std::chrono::milliseconds(0));
    const std::uint64_t generation =
        state.generation.load(std::memory_order_relaxed) + 1;
    try {
      workers_[s] = start_worker(s, state.threads, state.weight, generation);
      state.pid.store(workers_[s].pid, std::memory_order_relaxed);
      state.generation.store(generation, std::memory_order_relaxed);
      state.respawns.fetch_add(1, std::memory_order_relaxed);
      state.respawn_attempts = 0;
      state.respawn_delay = config_.socket.respawn_backoff;
      // Back in rotation: requests hashing to this slot serve again.
      state.alive.store(true, std::memory_order_relaxed);
      flight_.record_event(obs::EventKind::kRespawn, static_cast<int>(s),
                           generation, worker_name(workers_[s].pid));
    } catch (const std::exception& e) {
      ++state.respawn_attempts;
      flight_.record_event(
          obs::EventKind::kRespawnFailed, static_cast<int>(s), generation,
          "attempt " + std::to_string(state.respawn_attempts) + " of " +
              std::to_string(config_.socket.max_respawn_attempts) + ": " +
              e.what());
      if (state.respawn_attempts >= config_.socket.max_respawn_attempts) {
        // Out of budget: the slot sheds forever, loudly visible in
        // stats() — never a silent crash loop.
        state.demoted.store(true, std::memory_order_relaxed);
        flight_.record_event(obs::EventKind::kDemotion, static_cast<int>(s),
                             generation, "respawn budget exhausted");
        // The demotion postmortem: dump now, not only at destruction —
        // an incident report must survive however the process ends.
        if (!config_.flight_dump_path.empty()) {
          try {
            flight_.dump_to_file(config_.flight_dump_path);
          } catch (const std::exception&) {
            // Routing must outlive a failed postmortem write.
          }
        }
        return;
      }
      state.respawn_delay =
          std::min(state.respawn_delay * 2, config_.socket.respawn_backoff_max);
      state.next_respawn =
          std::chrono::steady_clock::now() + state.respawn_delay;
    }
  };

  // add_shard: start generation 0 of a brand-new slot, then splice it
  // into the topology in one locked pointer swap. Survivors never stop
  // serving; consistent hashing moves only ~1/(N+1) of the keyspace onto
  // the newcomer.
  const auto execute_add = [&](double weight) {
    const std::size_t s = workers_.size();
    const std::size_t threads =
        shard_thread_lanes(config_.engine.num_threads, s + 1).back();
    auto state = std::make_unique<ShardState>();
    state->weight = weight;
    state->threads = threads;
    workers_.reserve(s + 1);  // push_back must not throw (see the ctor)
    workers_.push_back(start_worker(s, threads, weight, 0));
    state->pid.store(workers_.back().pid, std::memory_order_relaxed);
    try {
      util::MutexLock topo(topology_mu_);
      router_->add_shard(weight);  // throws on a weight it cannot honour
      shard_state_.push_back(std::move(state));
    } catch (...) {
      stop_worker(workers_.back(), std::chrono::milliseconds(500));
      workers_.pop_back();
      throw;
    }
    flight_.record_event(obs::EventKind::kShardAdded, static_cast<int>(s), 0,
                         worker_name(workers_.back().pid) + ", weight " +
                             format_weight(weight));
  };

  // remove_shard: ring handoff first (new routes skip the leaver
  // immediately), then drain what it still owes, then the shutdown
  // handshake and the stop. The slot stays, marked removed.
  const auto execute_remove = [&](std::size_t s) {
    ShardState* state_ptr;
    {
      // Handoff: erase the leaver's ring points. Links are FIFO, so
      // every envelope it owes predates the kDrain marker below.
      util::MutexLock topo(topology_mu_);
      router_->remove_shard(static_cast<int>(s));
      state_ptr = shard_state_[s].get();
    }
    ShardState& state = *state_ptr;
    const int leaver = static_cast<int>(s);
    // Post-ack the leaver owes nothing (FIFO: its kDrained follows every
    // reply to pre-handoff envelopes), so the shutdown handshake is
    // immediate. Each wait is bounded: a leaver that goes silent is
    // marked dead, which sheds what it owed.
    if (routable(leaver) &&
        shard_send(leaver, ShardEnvelope{ShardEnvelope::Kind::kDrain, 0, {}}) &&
        await_ack(leaver, ShardReply::Kind::kDrained, kDrainStall,
                  "no progress during removal drain") &&
        shard_send(leaver,
                   ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}}))
      await_ack(leaver, ShardReply::Kind::kStopped,
                std::chrono::seconds(5), "no shutdown ack while leaving");
    // Whether it left cleanly or died on the way out, its futures are
    // all resolved (served above, or shed by mark_dead). Defensive:
    // shed any stragglers so removal can never leak a promise.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->second.shard == leaver) {
        shed(std::move(it->second), "shard removed");
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
    state.pid.store(-1, std::memory_order_relaxed);
    stop_worker(workers_[s], std::chrono::milliseconds(5000));
    state.removed.store(true, std::memory_order_relaxed);
    flight_.record_event(obs::EventKind::kShardRemoved, leaver,
                         state.generation.load(std::memory_order_relaxed),
                         "");
  };

  // Flow control: a live shard is sent at most two drain batches — one
  // scoring, one gathered behind it. Everything else waits in its pending
  // queue, where admission bounds it.
  const std::size_t window = 2 * std::max<std::size_t>(1, drain_batch_limit());
  std::vector<std::size_t> room;
  std::vector<Pending> pulled;
  for (;;) {
    bool progress = false;
    bool drain = false;
    std::optional<std::promise<std::vector<EngineStats>>> stats_request;
    std::optional<TopologyCommand> topology_command;

    // What each shard may still take. A removed or dead shard's queue
    // empties without limit: its requests re-route or shed below.
    room.assign(workers_.size(), window);
    for (const auto& [id, fl] : inflight) {
      std::size_t& left = room[static_cast<std::size_t>(fl.shard)];
      left -= std::min<std::size_t>(left, 1);
    }
    for (std::size_t s = 0; s < room.size(); ++s)
      if (!routable(static_cast<int>(s)))
        room[s] = std::numeric_limits<std::size_t>::max();
    pulled.clear();
    {
      util::UniqueLock lock(mu_);
      // Idle with nothing in flight: sleep on the router cv (bounded by
      // kRouterPoll so a drain request can't be missed). With work in
      // flight, fall through and poll the reply links instead.
      if (inflight.empty() && !stopped_ && (paused_ || queues_empty()) &&
          stats_requests_.empty() && topology_requests_.empty()) {
        const auto idle_deadline =
            std::chrono::steady_clock::now() + kRouterPoll;
        while (!stopped_ && (paused_ || queues_empty()) &&
               stats_requests_.empty() && topology_requests_.empty()) {
          if (cv_router_.wait_until(lock, idle_deadline) ==
              std::cv_status::timeout)
            break;
        }
      }
      drain = stopped_;
      if (!paused_ || drain) {
        for (std::size_t s = 0; s < queues_.size(); ++s) {
          std::deque<Pending>& queue = queues_[s].requests;
          std::size_t take = s < room.size() ? room[s] : queue.size();
          for (; take > 0 && !queue.empty(); --take) {
            pulled.push_back(std::move(queue.front()));
            queue.pop_front();
          }
        }
      }
      if (!stats_requests_.empty()) {
        stats_request = std::move(stats_requests_.front());
        stats_requests_.pop_front();
      }
      if (!topology_requests_.empty()) {
        topology_command = std::move(topology_requests_.front());
        topology_requests_.pop_front();
      }
    }

    for (Pending& request : pulled) {
      progress = true;
      const std::uint64_t id = next_id_++;
      // Routed again by the topology in force now: a request admitted
      // before a resize follows its key to the shard that owns it today.
      int shard;
      ShardState* target;
      {
        util::MutexLock topo(topology_mu_);
        shard = router_->shard_for_hash(request.hash);
        target = shard_state_[static_cast<std::size_t>(shard)].get();
      }
      InFlight fl;
      fl.promise = std::move(request.promise);
      fl.submitted = request.submitted;
      fl.forwarded = std::chrono::steady_clock::now();
      fl.shard = shard;
      fl.trace = std::move(request.trace);
      if (!routable(shard)) {
        shed(std::move(fl), "shard worker died before the request");
        continue;
      }
      target->routed.fetch_add(1, std::memory_order_relaxed);
      ShardEnvelope envelope{ShardEnvelope::Kind::kRequest, id,
                             std::move(request.features)};
      envelope.trace_id = fl.trace.trace_id;  // the worker echoes it back
      fl.wire_start = std::chrono::steady_clock::now();
      inflight.emplace(id, std::move(fl));
      shard_send(shard, envelope);
      // On failure mark_dead already shed this request out of inflight.
    }

    int n = static_cast<int>(workers_.size());
    for (int s = 0; s < n; ++s) {
      while (routable(s)) {
        std::optional<ShardReply> reply =
            shard_recv(s, std::chrono::microseconds::zero());
        if (!reply) break;
        progress = true;
        take_reply(s, std::move(*reply));
      }
    }

    if (topology_command) {
      progress = true;
      // Resizes execute here — between routing iterations on the
      // topology's single writer thread — so they cannot race routing,
      // replies, or each other. A resize that arrives during shutdown
      // is refused, not left hanging.
      try {
        QKMPS_CHECK_MSG(!drain, "engine is stopping; resize refused");
        if (topology_command->op == TopologyCommand::Op::kAdd) {
          execute_add(topology_command->weight);
        } else {
          execute_remove(topology_command->shard);
        }
        topology_command->done.set_value();
      } catch (...) {
        topology_command->done.set_exception(std::current_exception());
      }
      n = static_cast<int>(workers_.size());
    }

    // Self-heal monitor: any slot that died (and was neither removed
    // nor demoted) gets respawned once its backoff expires. Runs after
    // routing so a death observed this iteration sheds first — owed
    // futures never ride the respawn.
    if (!drain && config_.socket.respawn) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<ShardState*> states;
      {
        util::MutexLock topo(topology_mu_);
        states.reserve(shard_state_.size());
        for (const auto& st : shard_state_) states.push_back(st.get());
      }
      for (std::size_t s = 0; s < states.size(); ++s) {
        ShardState& state = *states[s];
        if (state.alive.load(std::memory_order_relaxed) ||
            state.removed.load(std::memory_order_relaxed) ||
            state.demoted.load(std::memory_order_relaxed))
          continue;
        if (now < state.next_respawn) continue;
        try_respawn(s);
        progress = true;
      }
    }

    if (stats_request) {
      progress = true;
      // Synchronous sweep: briefly prioritises the snapshot over routing
      // (a stats() call is an operator action, not a data-path one).
      // Non-kStats replies arriving meanwhile are processed normally.
      std::vector<EngineStats> snapshot(static_cast<std::size_t>(n));
      for (int s = 0; s < n; ++s) {
        if (!routable(s) ||
            !shard_send(s, ShardEnvelope{ShardEnvelope::Kind::kStats, 0, {}}))
          continue;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (routable(s) && std::chrono::steady_clock::now() < deadline) {
          std::optional<ShardReply> reply =
              shard_recv(s, std::chrono::microseconds(10'000));
          if (!reply) continue;
          if (reply->kind == ShardReply::Kind::kStats) {
            snapshot[static_cast<std::size_t>(s)] = reply->stats;
            break;
          }
          take_reply(s, std::move(*reply));
        }
      }
      stats_request->set_value(std::move(snapshot));
    }

    if (drain) {
      if (!drain_marker_sent) {
        // Flush barrier: links are FIFO, so a shard's kDrained ack
        // proves every envelope sent before the marker has been scored
        // and its replies are already queued back to us.
        drain_acked.assign(static_cast<std::size_t>(n), 0);
        for (int s = 0; s < n; ++s)
          if (routable(s))
            shard_send(s, ShardEnvelope{ShardEnvelope::Kind::kDrain, 0, {}});
        drain_marker_sent = true;
        drain_stall_deadline = std::chrono::steady_clock::now() + kDrainStall;
      }
      if (progress)
        drain_stall_deadline = std::chrono::steady_clock::now() + kDrainStall;
      bool queued;
      {
        util::MutexLock lock(mu_);
        queued = !queues_empty();
      }
      bool acked = true;
      for (int s = 0; s < n; ++s)
        if (routable(s) && !drain_acked[static_cast<std::size_t>(s)])
          acked = false;
      if (!queued && inflight.empty() && acked) break;
      if (std::chrono::steady_clock::now() > drain_stall_deadline) {
        std::vector<char> owes(static_cast<std::size_t>(n), 0);
        for (const auto& [id, fl] : inflight)
          owes[static_cast<std::size_t>(fl.shard)] = 1;
        for (int s = 0; s < n; ++s)
          if (routable(s) && (owes[static_cast<std::size_t>(s)] ||
                              !drain_acked[static_cast<std::size_t>(s)]))
            mark_dead(s, "no progress during drain within the deadline");
      }
    }

    if (!progress && (drain || !inflight.empty()))
      std::this_thread::sleep_for(kRouterPoll);
  }

  // Shutdown handshake: every live worker acks kStopped after finishing
  // its in-hand batch, so stopping the workers cannot strand work. A
  // worker that will not ack in time is marked dead (stop_worker then
  // closes its link and, for a process, escalates to SIGKILL).
  const int n = static_cast<int>(workers_.size());
  for (int s = 0; s < n; ++s)
    if (routable(s))
      shard_send(s, ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}});
  for (int s = 0; s < n; ++s)
    await_ack(s, ShardReply::Kind::kStopped, std::chrono::seconds(30),
              "no shutdown ack within the deadline");
}

bool RankShardedEngine::queues_empty() const {
  for (const ShardQueue& queue : queues_)
    if (!queue.requests.empty()) return false;
  return true;
}

std::vector<EngineStats> RankShardedEngine::fetch_remote_stats() const {
  const std::size_t n = num_shards();
  std::promise<std::vector<EngineStats>> promise;
  std::future<std::vector<EngineStats>> fut = promise.get_future();
  {
    util::MutexLock lock(mu_);
    if (stopped_ || runtime_error_) return std::vector<EngineStats>(n);
    stats_requests_.push_back(std::move(promise));
  }
  cv_router_.notify_all();
  if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready)
    return std::vector<EngineStats>(n);
  std::vector<EngineStats> snapshot = fut.get();
  snapshot.resize(n);
  return snapshot;
}

RankShardedStats RankShardedEngine::stats() const {
  RankShardedStats agg;
  // admitted first, with acquire (see submit()), then completed and shed:
  // admitted - completed - shed never overstates what is unresolved.
  agg.admitted = admitted_.load(std::memory_order_acquire);
  agg.submitted = submitted_.load(std::memory_order_relaxed);
  agg.rejected = rejected_.load(std::memory_order_relaxed);
  agg.completed = completed_.load(std::memory_order_relaxed);
  agg.shed = shed_.load(std::memory_order_relaxed);
  agg.resizes = resizes_.load(std::memory_order_relaxed);
  // The sweep happens before topology_mu_ is taken: the router answers
  // it, and the router may itself be inside a resize holding
  // topology_mu_ — waiting on it while it waited on us would deadlock.
  const std::vector<EngineStats> engine_stats = fetch_remote_stats();
  std::vector<std::pair<std::size_t, std::size_t>> depths;  // now, high water
  {
    util::MutexLock lock(mu_);
    for (const ShardQueue& queue : queues_)
      depths.emplace_back(queue.requests.size(), queue.high_water);
  }
  util::MutexLock topo(topology_mu_);
  agg.shards.reserve(shard_state_.size());
  for (std::size_t i = 0; i < shard_state_.size(); ++i) {
    RankShardStats s;
    s.routed = shard_state_[i]->routed.load(std::memory_order_relaxed);
    s.served = shard_state_[i]->served.load(std::memory_order_relaxed);
    s.alive = shard_state_[i]->alive.load(std::memory_order_relaxed);
    s.removed = shard_state_[i]->removed.load(std::memory_order_relaxed);
    s.demoted = shard_state_[i]->demoted.load(std::memory_order_relaxed);
    s.respawns = shard_state_[i]->respawns.load(std::memory_order_relaxed);
    s.generation = shard_state_[i]->generation.load(std::memory_order_relaxed);
    s.weight = shard_state_[i]->weight;
    if (i < depths.size())
      std::tie(s.queue_depth, s.max_queue_depth) = depths[i];
    s.engine = i < engine_stats.size() ? engine_stats[i] : EngineStats{};
    agg.shards.push_back(std::move(s));
  }
  return agg;
}

}  // namespace qkmps::serve
