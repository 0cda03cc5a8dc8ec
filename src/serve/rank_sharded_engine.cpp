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
#include "serve/shard_worker.hpp"
#include "util/error.hpp"

extern char** environ;

namespace qkmps::serve {

namespace {

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
      flight_(std::max<std::size_t>(1, config_.flight_trace_capacity),
              std::max<std::size_t>(1, config_.flight_event_capacity)) {
  QKMPS_CHECK(bundle_ != nullptr);
  QKMPS_CHECK_MSG(config_.num_shards >= 1, "need at least one shard");
  QKMPS_CHECK_MSG(config_.admission_capacity >= 1,
                  "admission queue needs capacity >= 1");
  std::vector<double> weights = config_.shard_weights;
  if (weights.empty()) weights.assign(config_.num_shards, 1.0);
  QKMPS_CHECK_MSG(weights.size() == config_.num_shards,
                  "shard_weights has " << weights.size() << " entries for "
                                       << config_.num_shards << " shards");
  {
    // No other thread exists yet; the lock is for the analysis, which
    // ties these containers to topology_mu_ everywhere.
    util::MutexLock topo(topology_mu_);
    router_ = make_router(config_.router, weights);
    for (std::size_t i = 0; i < config_.num_shards; ++i) {
      shard_state_.push_back(std::make_unique<ShardState>());
      shard_state_.back()->weight = weights[i];
    }
    if (config_.transport == TransportKind::kInProcess) {
      const std::vector<std::size_t> lanes =
          shard_thread_lanes(config_.engine.num_threads, config_.num_shards);
      engines_.reserve(config_.num_shards);
      for (std::size_t i = 0; i < config_.num_shards; ++i) {
        EngineConfig engine_cfg = config_.engine;
        engine_cfg.num_threads = lanes[i];
        engines_.push_back(
            std::make_unique<InferenceEngine>(bundle_, engine_cfg));
      }
    }
  }
  start_runtime();
}

RankShardedEngine::~RankShardedEngine() {
  util::MutexLock lifecycle(lifecycle_mu_);
  stop_runtime(/*final_stop=*/true);
  if (!config_.flight_dump_path.empty()) {
    try {
      flight_.dump_to_file(config_.flight_dump_path);
    } catch (const std::exception&) {
      // A postmortem that cannot be written must not turn a clean
      // shutdown into a terminate (throwing destructor).
    }
  }
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
  if (shard >= shard_state_.size() || shard >= worker_pids_.size()) return -1;
  const ShardState& state = *shard_state_[shard];
  if (state.removed.load(std::memory_order_relaxed) ||
      state.demoted.load(std::memory_order_relaxed) ||
      !state.alive.load(std::memory_order_relaxed))
    return -1;
  return worker_pids_[shard];
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

void RankShardedEngine::start_runtime() {
  if (config_.transport == TransportKind::kSocket) {
    start_socket_runtime();
    return;
  }
  std::size_t n_engines;
  {
    util::MutexLock topo(topology_mu_);
    n_engines = engines_.size();
  }
  runtime_ = std::make_unique<parallel::RankRuntime>(
      static_cast<int>(n_engines) + 1);
  runtime_thread_ = std::thread([this] {
    try {
      runtime_->run([this](parallel::Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::unique_ptr<parallel::CommTransport>> links;
          std::vector<parallel::Transport*> ptrs;
          for (int s = 1; s < comm.size(); ++s) {
            links.push_back(std::make_unique<parallel::CommTransport>(comm, s));
            ptrs.push_back(links.back().get());
          }
          try {
            router_loop(ptrs);
          } catch (...) {
            // A dying router must not strand shards in their recv loop —
            // run() joins every rank before rethrowing, so an unreleased
            // shard would deadlock the destructor. CommTransport::send
            // never blocks; a shard that already exited just leaves the
            // extra envelope unconsumed.
            for (parallel::Transport* link : ptrs)
              link->send(encode_envelope(
                  ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}}));
            throw;
          }
        } else {
          // A removed shard's slot still gets a rank (ids are never
          // reused) but has no engine left — its loop is a no-op; the
          // router never addresses it.
          // Engine slots only mutate between runtimes (the resize caller
          // holds lifecycle_mu_ with this thread joined), so the pointer
          // grabbed here stays valid for the runtime's whole life.
          InferenceEngine* engine = nullptr;
          {
            util::MutexLock topo(topology_mu_);
            engine = engines_[static_cast<std::size_t>(comm.rank() - 1)].get();
          }
          if (engine != nullptr) {
            parallel::CommTransport link(comm, 0);
            ShardWorkerOptions options;
            options.batch_limit = std::max<std::size_t>(1, drain_batch_limit());
            run_shard_worker(link, *engine, options);
          }
        }
      });
    } catch (...) {
      // A rank body escaped its own handling (internal invariant failure,
      // e.g. a wire-codec mismatch). Remember it so the next API call
      // fails loudly instead of hanging on a dead router.
      util::MutexLock lock(mu_);
      runtime_error_ = std::current_exception();
    }
  });
}

std::vector<std::string> RankShardedEngine::worker_args(
    std::size_t shard, std::size_t threads, double weight,
    std::uint64_t generation) const {
  std::vector<std::string> args = {
      "--connect=" + listener_->address(),
      "--shard=" + std::to_string(shard),
      "--bundle=" + config_.socket.bundle_dir,
      "--max-batch=" + std::to_string(config_.engine.max_batch),
      "--gather=" + std::to_string(drain_batch_limit()),
      "--batch-deadline-us=" +
          std::to_string(config_.engine.batch_deadline.count()),
      "--threads=" + std::to_string(threads),
      "--cache=" + std::to_string(config_.engine.cache_capacity),
      "--memo=" + std::to_string(config_.engine.memo_capacity),
      "--weight=" + format_weight(weight),
      "--generation=" + std::to_string(generation)};
  args.insert(args.end(), config_.socket.worker_extra_args.begin(),
              config_.socket.worker_extra_args.end());
  return args;
}

void RankShardedEngine::start_socket_runtime() {
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

  const std::string address =
      sc.listen_address.empty() ? default_socket_address() : sc.listen_address;
  // The listener stays open for the engine's whole life — it is what
  // makes the fleet elastic: add_shard() and the respawn path accept
  // fresh workers on it long after the initial fleet handshakes in.
  listener_ = std::make_unique<parallel::SocketListener>(
      parallel::SocketListener::listen(address));

  // ShardState objects are stable once published (slots are never
  // erased), so the startup below works through raw pointers grabbed in
  // one locked sweep instead of holding topology_mu_ across spawns.
  std::vector<ShardState*> states;
  {
    util::MutexLock topo(topology_mu_);
    states.reserve(shard_state_.size());
    for (const auto& st : shard_state_) states.push_back(st.get());
  }
  const std::size_t n = states.size();
  // Same lane budgeting as the in-process constructor: num_threads == 0
  // divides the hardware threads across the shards. The workers share
  // this host, so handing each a full-width pool would oversubscribe it
  // N-fold — and would make the bench's inproc-vs-socket comparison
  // measure thread counts instead of transport cost.
  const std::vector<std::size_t> lanes =
      shard_thread_lanes(config_.engine.num_threads, n);
  // Spawn and handshake into locals; links_/worker_pids_ publish in a
  // single locked swap once the whole fleet has arrived, so concurrent
  // worker_pid()/stats() readers never see a half-built topology.
  std::vector<long> pids;
  std::vector<std::unique_ptr<parallel::SocketTransport>> conns(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      states[i]->threads = lanes[i];
      pids.push_back(spawn_worker_process(
          sc.worker_path,
          worker_args(i, lanes[i], states[i]->weight, 0)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_ptr<parallel::SocketTransport> conn =
          listener_->accept_for(sc.connect_timeout);
      QKMPS_CHECK_MSG(conn != nullptr,
                      "timed out waiting for shard workers to connect ("
                          << i << " of " << n << " arrived)");
      ShardAcceptPolicy policy;
      policy.num_shards = n;
      policy.num_features = bundle_->num_features();
      const ShardHello hello = shard_handshake_server(
          *conn, policy,
          std::chrono::duration_cast<std::chrono::microseconds>(
              sc.connect_timeout));
      QKMPS_CHECK_MSG(conns[hello.shard_index] == nullptr,
                      "two workers claimed shard " << hello.shard_index);
      QKMPS_CHECK_MSG(hello.weight == states[hello.shard_index]->weight,
                      "worker for shard " << hello.shard_index
                                          << " echoed the wrong ring weight");
      conns[hello.shard_index] = std::move(conn);
      flight_.record_event(
          obs::EventKind::kSpawn, static_cast<int>(hello.shard_index), 0,
          "pid " + std::to_string(pids[hello.shard_index]));
    }
  } catch (...) {
    // Fail construction loudly but cleanly: no orphan processes, no
    // stale socket files.
    conns.clear();
    listener_.reset();
    for (long pid : pids) reap_worker(pid, std::chrono::milliseconds(500));
    throw;
  }
  {
    util::MutexLock topo(topology_mu_);
    links_.reserve(n);
    for (auto& conn : conns) links_.push_back(std::move(conn));
    worker_pids_ = std::move(pids);
  }

  runtime_thread_ = std::thread([this] {
    std::vector<parallel::Transport*> ptrs;
    {
      util::MutexLock topo(topology_mu_);
      ptrs.reserve(links_.size());
      for (const auto& link : links_) ptrs.push_back(link.get());
    }
    try {
      router_loop(std::move(ptrs));
    } catch (...) {
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
    std::size_t n_links;
    {
      util::MutexLock topo(topology_mu_);
      n_links = links_.size();
    }
    for (auto& p : stats_leftovers)
      p.set_value(std::vector<EngineStats>(n_links));
    for (auto& c : topology_leftovers)
      c.done.set_exception(std::make_exception_ptr(
          Error("engine stopped before the resize could run")));
  });
}

void RankShardedEngine::stop_runtime(bool final_stop) {
  {
    util::MutexLock lock(mu_);
    draining_ = true;
    if (final_stop) stopped_ = true;
  }
  cv_router_.notify_all();
  if (runtime_thread_.joinable()) runtime_thread_.join();
  runtime_.reset();
  // Socket teardown: closing the links EOFs any worker the shutdown
  // handshake missed (it exits on the transport error), then the reaper
  // waits it out — escalating to SIGKILL so a wedged child cannot hang
  // the destructor. The vectors mutate under topology_mu_ because
  // worker_pid()/stats() readers may still be in flight.
  std::vector<long> pids;
  {
    util::MutexLock topo(topology_mu_);
    links_.clear();
    listener_.reset();
    pids.swap(worker_pids_);
  }
  for (long pid : pids)
    if (pid > 0) reap_worker(pid, std::chrono::milliseconds(5000));
  {
    util::MutexLock lock(mu_);
    draining_ = false;
  }
}

void RankShardedEngine::add_shard(double weight) {
  QKMPS_CHECK_MSG(weight > 0.0,
                  "shard weight must be positive, got " << weight);
  util::MutexLock lifecycle(lifecycle_mu_);
  {
    util::MutexLock lock(mu_);
    QKMPS_CHECK_MSG(!stopped_, "add_shard on a stopped RankShardedEngine");
  }

  if (config_.transport == TransportKind::kSocket) {
    // The router thread is the topology's single writer: hand it the
    // resize and wait. Survivors keep serving throughout — their caches
    // live in their own processes and never notice the growth.
    TopologyCommand cmd;
    cmd.op = TopologyCommand::Op::kAdd;
    cmd.weight = weight;
    std::future<void> done = cmd.done.get_future();
    {
      util::MutexLock lock(mu_);
      if (runtime_error_) std::rethrow_exception(runtime_error_);
      topology_requests_.push_back(std::move(cmd));
    }
    cv_router_.notify_all();
    done.get();  // rethrows a failed spawn/handshake
    resizes_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  stop_runtime(/*final_stop=*/false);

  // Existing engines keep their pools (and, crucially, their caches);
  // only the new shard's lane count reflects the grown topology. With
  // num_threads == 0 this slightly overcommits hardware threads after a
  // resize — cache retention is worth more than perfect lane budgeting.
  std::size_t n_engines;
  {
    util::MutexLock topo(topology_mu_);
    n_engines = engines_.size();
  }
  EngineConfig engine_cfg = config_.engine;
  engine_cfg.num_threads =
      shard_thread_lanes(config_.engine.num_threads, n_engines + 1).back();
  {
    util::MutexLock topo(topology_mu_);
    engines_.push_back(std::make_unique<InferenceEngine>(bundle_, engine_cfg));
    shard_state_.push_back(std::make_unique<ShardState>());
    shard_state_.back()->weight = weight;
    router_->add_shard(weight);
  }
  resizes_.fetch_add(1, std::memory_order_relaxed);
  flight_.record_event(obs::EventKind::kShardAdded,
                       static_cast<int>(n_engines), 0, "in-process");

  start_runtime();
}

void RankShardedEngine::remove_shard(std::size_t shard) {
  util::MutexLock lifecycle(lifecycle_mu_);
  {
    util::MutexLock lock(mu_);
    QKMPS_CHECK_MSG(!stopped_, "remove_shard on a stopped RankShardedEngine");
  }
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

  if (config_.transport == TransportKind::kSocket) {
    TopologyCommand cmd;
    cmd.op = TopologyCommand::Op::kRemove;
    cmd.shard = shard;
    std::future<void> done = cmd.done.get_future();
    {
      util::MutexLock lock(mu_);
      if (runtime_error_) std::rethrow_exception(runtime_error_);
      topology_requests_.push_back(std::move(cmd));
    }
    cv_router_.notify_all();
    done.get();
    resizes_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // In-process: the drain inside stop_runtime serves the shard's
  // in-flight work before its engine (and caches) are released.
  stop_runtime(/*final_stop=*/false);
  {
    util::MutexLock topo(topology_mu_);
    router_->remove_shard(static_cast<int>(shard));
    shard_state_[shard]->removed.store(true, std::memory_order_relaxed);
    engines_[shard].reset();
  }
  resizes_.fetch_add(1, std::memory_order_relaxed);
  flight_.record_event(obs::EventKind::kShardRemoved, static_cast<int>(shard),
                       0, "in-process");
  start_runtime();
}

void RankShardedEngine::router_loop(std::vector<parallel::Transport*> links) {
  struct InFlight {
    std::promise<RoutedPrediction> promise;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point forwarded;
    std::chrono::steady_clock::time_point wire_start;  ///< envelope send
    int shard = -1;
    obs::TraceContext trace;
  };
  std::unordered_map<std::uint64_t, InFlight> inflight;
  const bool socket = config_.transport == TransportKind::kSocket;
  bool drain_marker_sent = false;
  // Sized when the drain marker goes out: the topology is frozen from
  // that point on (resize commands are refused while draining).
  std::vector<char> drain_acked;
  // Socket mode: a connected-but-unresponsive worker (deadlocked,
  // SIGSTOP'd) owing replies or a drain ack would otherwise stall the
  // drain loop — and with it the destructor — forever. Any progress
  // pushes the deadline out; total silence past it demotes the
  // offenders, matching the shutdown handshake's escalation.
  constexpr std::chrono::seconds kDrainStall{30};
  std::chrono::steady_clock::time_point drain_stall_deadline{};

  // A shard is addressable when it is neither dead nor drained out of
  // the topology. Removed slots keep their index (ids are never reused)
  // but own no ring points, no link, and no futures.
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

  // In-process transport failures are protocol bugs and escape (the
  // rank-0 catch turns them into a loud runtime_error_); a socket link
  // failure is an expected distributed-systems outcome and demotes the
  // shard to dead.
  const auto shard_send = [&](int s, const ShardEnvelope& envelope) -> bool {
    try {
      links[static_cast<std::size_t>(s)]->send(encode_envelope(envelope));
      return true;
    } catch (const Error& e) {
      if (!socket) throw;
      mark_dead(s, e.what());
      return false;
    }
  };

  const auto handle_reply = [&](int s, ShardReply reply) {
    if (reply.kind == ShardReply::Kind::kDrained) {
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
      // request id (the caller demotes the shard). An echo of 0 is legal:
      // a v2 peer decodes our envelopes without the trace tail.
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

  const auto shard_try_recv = [&](int s) -> std::optional<ShardReply> {
    try {
      std::optional<std::vector<std::uint8_t>> bytes =
          links[static_cast<std::size_t>(s)]->try_recv();
      if (!bytes) return std::nullopt;
      return decode_reply(*bytes);
    } catch (const Error& e) {
      if (!socket) throw;
      mark_dead(s, e.what());
      return std::nullopt;
    }
  };

  // -------------------------------------------------------------------
  // Elastic machinery (socket mode). All of it runs on this thread —
  // the topology's single writer — so only the pointer-swap moments
  // take topology_mu_ (for the external readers), never the spawns,
  // accepts, or drains.

  // Accepts connections until one passes the pinned handshake or the
  // budget runs out. A refused straggler (a superseded generation that
  // connected late, a backlogged corpse) is not a failure — it is told
  // why and dropped, and we keep waiting for the worker we spawned.
  const auto accept_expected =
      [&](const ShardAcceptPolicy& policy, std::chrono::milliseconds budget)
      -> std::unique_ptr<parallel::SocketTransport> {
    const auto deadline = std::chrono::steady_clock::now() + budget;
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
            policy.require_shard ? static_cast<int>(*policy.require_shard)
                                 : -1,
            policy.require_generation.value_or(0), e.what());
        if (std::chrono::steady_clock::now() >= deadline) throw;
      }
    }
  };

  // One respawn attempt for a dead (not removed, not demoted) slot:
  // reap the corpse, spawn the next generation with the slot's weight,
  // handshake it in pinned to (slot, generation, weight). Ring points
  // are a pure function of (shard, weight), so the replacement inherits
  // exactly the keyspace its predecessor owned — nothing else moves.
  const auto try_respawn = [&](std::size_t s) {
    ShardState* state_ptr;
    std::size_t fleet_size;
    {
      util::MutexLock topo(topology_mu_);
      state_ptr = shard_state_[s].get();
      fleet_size = shard_state_.size();
      const long corpse = worker_pids_[s];
      worker_pids_[s] = -1;
      if (corpse > 0) reap_worker(corpse, std::chrono::milliseconds(0));
    }
    ShardState& state = *state_ptr;
    const std::uint64_t generation =
        state.generation.load(std::memory_order_relaxed) + 1;
    long pid = -1;
    try {
      pid = spawn_worker_process(
          config_.socket.worker_path,
          worker_args(s, state.threads, state.weight, generation));
      ShardAcceptPolicy policy;
      policy.num_shards = fleet_size;
      policy.num_features = bundle_->num_features();
      policy.require_shard = s;
      policy.require_generation = generation;
      policy.require_weight = state.weight;
      std::unique_ptr<parallel::SocketTransport> conn =
          accept_expected(policy, config_.socket.connect_timeout);
      {
        util::MutexLock topo(topology_mu_);
        links_[s] = std::move(conn);
        worker_pids_[s] = pid;
        links[s] = links_[s].get();
      }
      state.generation.store(generation, std::memory_order_relaxed);
      state.respawns.fetch_add(1, std::memory_order_relaxed);
      state.respawn_attempts = 0;
      state.respawn_delay = config_.socket.respawn_backoff;
      // Back in rotation: requests hashing to this slot serve again.
      state.alive.store(true, std::memory_order_relaxed);
      flight_.record_event(obs::EventKind::kRespawn, static_cast<int>(s),
                           generation, "pid " + std::to_string(pid));
    } catch (const std::exception& e) {
      if (pid > 0) reap_worker(pid, std::chrono::milliseconds(500));
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

  // add_shard over live workers: spawn + handshake generation 0 of a
  // brand-new slot, then splice it into the topology in one locked
  // pointer swap. Survivors never stop serving; consistent hashing
  // moves only ~1/(N+1) of the keyspace onto the newcomer.
  const auto execute_add = [&](double weight) {
    std::size_t s;
    {
      util::MutexLock topo(topology_mu_);
      s = shard_state_.size();
    }
    const std::size_t threads =
        shard_thread_lanes(config_.engine.num_threads, s + 1).back();
    const long pid = spawn_worker_process(
        config_.socket.worker_path, worker_args(s, threads, weight, 0));
    std::unique_ptr<parallel::SocketTransport> conn;
    try {
      ShardAcceptPolicy policy;
      policy.num_shards = s + 1;
      policy.num_features = bundle_->num_features();
      policy.require_shard = s;
      policy.require_generation = 0;
      policy.require_weight = weight;
      conn = accept_expected(policy, config_.socket.connect_timeout);
    } catch (...) {
      reap_worker(pid, std::chrono::milliseconds(500));
      throw;
    }
    auto state = std::make_unique<ShardState>();
    state->weight = weight;
    state->threads = threads;
    {
      util::MutexLock topo(topology_mu_);
      shard_state_.push_back(std::move(state));
      links_.push_back(std::move(conn));
      worker_pids_.push_back(pid);
      router_->add_shard(weight);
      links.push_back(links_.back().get());
    }
    flight_.record_event(obs::EventKind::kShardAdded, static_cast<int>(s), 0,
                         "pid " + std::to_string(pid) + ", weight " +
                             format_weight(weight));
  };

  // remove_shard: ring handoff first (new routes skip the leaver
  // immediately), then drain what it still owes, then the shutdown
  // handshake and the reap. The slot stays, marked removed.
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
    if (routable(static_cast<int>(s))) {
      if (shard_send(static_cast<int>(s),
                     ShardEnvelope{ShardEnvelope::Kind::kDrain, 0, {}})) {
        auto stall = std::chrono::steady_clock::now() + kDrainStall;
        while (routable(static_cast<int>(s))) {
          try {
            std::optional<std::vector<std::uint8_t>> bytes =
                links[s]->recv_for(std::chrono::microseconds(10'000));
            if (!bytes) {
              if (std::chrono::steady_clock::now() > stall)
                mark_dead(static_cast<int>(s),
                          "no progress during removal drain");
              continue;
            }
            ShardReply reply = decode_reply(*bytes);
            if (reply.kind == ShardReply::Kind::kDrained) break;
            handle_reply(static_cast<int>(s), std::move(reply));
            stall = std::chrono::steady_clock::now() + kDrainStall;
          } catch (const Error& e) {
            mark_dead(static_cast<int>(s), e.what());
          }
        }
      }
      // Post-ack the leaver owes nothing (FIFO: its kDrained follows
      // every reply to pre-handoff envelopes), so the shutdown
      // handshake is immediate.
      if (routable(static_cast<int>(s)) &&
          shard_send(static_cast<int>(s),
                     ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}})) {
        while (routable(static_cast<int>(s))) {
          try {
            std::optional<std::vector<std::uint8_t>> bytes =
                links[s]->recv_for(std::chrono::microseconds(5'000'000));
            if (!bytes) {
              mark_dead(static_cast<int>(s), "no shutdown ack while leaving");
              break;
            }
            ShardReply reply = decode_reply(*bytes);
            if (reply.kind == ShardReply::Kind::kStopped) break;
            handle_reply(static_cast<int>(s), std::move(reply));
          } catch (const Error& e) {
            mark_dead(static_cast<int>(s), e.what());
          }
        }
      }
    }
    // Whether it left cleanly or died on the way out, its futures are
    // all resolved (served above, or shed by mark_dead). Defensive:
    // shed any stragglers so removal can never leak a promise.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->second.shard == static_cast<int>(s)) {
        shed(std::move(it->second), "shard removed");
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
    long pid;
    {
      util::MutexLock topo(topology_mu_);
      links_[s].reset();
      pid = worker_pids_[s];
      worker_pids_[s] = -1;
    }
    links[s] = nullptr;
    if (pid > 0) reap_worker(pid, std::chrono::milliseconds(5000));
    state.removed.store(true, std::memory_order_relaxed);
    flight_.record_event(obs::EventKind::kShardRemoved, static_cast<int>(s),
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
    room.assign(links.size(), window);
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
      // router_poll so a drain request can't be missed). With work in
      // flight, fall through and poll the reply links instead.
      if (inflight.empty() && !draining_ && (paused_ || queues_empty()) &&
          stats_requests_.empty() && topology_requests_.empty()) {
        const auto idle_deadline =
            std::chrono::steady_clock::now() + config_.router_poll;
        while (!draining_ && (paused_ || queues_empty()) &&
               stats_requests_.empty() && topology_requests_.empty()) {
          if (cv_router_.wait_until(lock, idle_deadline) ==
              std::cv_status::timeout)
            break;
        }
      }
      drain = draining_;
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

    int n = static_cast<int>(links.size());
    for (int s = 0; s < n; ++s) {
      if (!routable(s)) continue;
      while (std::optional<ShardReply> reply = shard_try_recv(s)) {
        progress = true;
        // A well-framed but protocol-violating reply (duplicate/unknown
        // id, spurious kind) gets the same demotion a dead link gets:
        // one misbehaving worker must not take the router — and every
        // other shard's futures — down with it.
        try {
          handle_reply(s, std::move(*reply));
        } catch (const Error& e) {
          if (!socket) throw;
          mark_dead(s, e.what());
          break;
        }
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
      n = static_cast<int>(links.size());
    }

    // Self-heal monitor: any slot that died (and was neither removed
    // nor demoted) gets respawned once its backoff expires. Runs after
    // routing so a death observed this iteration sheds first — owed
    // futures never ride the respawn.
    if (socket && !drain && config_.socket.respawn) {
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
        if (!routable(s)) continue;
        if (!shard_send(s, ShardEnvelope{ShardEnvelope::Kind::kStats, 0, {}}))
          continue;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (routable(s) && std::chrono::steady_clock::now() < deadline) {
          try {
            std::optional<std::vector<std::uint8_t>> bytes =
                links[static_cast<std::size_t>(s)]->recv_for(
                    std::chrono::microseconds(10'000));
            if (!bytes) continue;
            ShardReply reply = decode_reply(*bytes);
            if (reply.kind == ShardReply::Kind::kStats) {
              snapshot[static_cast<std::size_t>(s)] = reply.stats;
              break;
            }
            handle_reply(s, std::move(reply));
          } catch (const Error& e) {
            if (!socket) throw;
            mark_dead(s, e.what());
          }
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
      if (socket && std::chrono::steady_clock::now() > drain_stall_deadline) {
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
      std::this_thread::sleep_for(config_.router_poll);
  }

  // Shutdown handshake: every live shard acks kStopped after finishing
  // its in-hand batch, so joining the runtime cannot strand work. The
  // timed recv turns a protocol bug into a loud error instead of a
  // destructor that never returns; a socket worker that will not ack is
  // demoted to dead (the reaper escalates to SIGKILL).
  const int n = static_cast<int>(links.size());
  for (int s = 0; s < n; ++s)
    if (routable(s))
      shard_send(s, ShardEnvelope{ShardEnvelope::Kind::kShutdown, 0, {}});
  for (int s = 0; s < n; ++s) {
    while (routable(s)) {
      std::optional<ShardReply> ack;
      try {
        std::optional<std::vector<std::uint8_t>> bytes =
            links[static_cast<std::size_t>(s)]->recv_for(
                std::chrono::microseconds(30'000'000));
        if (bytes) ack = decode_reply(*bytes);
      } catch (const Error& e) {
        if (!socket) throw;
        mark_dead(s, e.what());
        break;
      }
      if (socket && !ack.has_value()) {
        mark_dead(s, "no shutdown ack within the deadline");
        break;
      }
      QKMPS_CHECK_MSG(ack.has_value(), "shard never acked shutdown");
      if (ack->kind == ShardReply::Kind::kStopped) break;
      // Late replies queued before the shutdown envelope: handle them so
      // their futures resolve, then keep waiting for the ack. A
      // protocol-violating late reply demotes the shard like a dead link.
      try {
        handle_reply(s, std::move(*ack));
      } catch (const Error& e) {
        if (!socket) throw;
        mark_dead(s, e.what());
        break;
      }
    }
  }
}

bool RankShardedEngine::queues_empty() const {
  for (const ShardQueue& queue : queues_)
    if (!queue.requests.empty()) return false;
  return true;
}

std::vector<EngineStats> RankShardedEngine::fetch_remote_stats() const {
  std::size_t n;
  {
    util::MutexLock topo(topology_mu_);
    n = shard_state_.size();
  }
  std::promise<std::vector<EngineStats>> promise;
  std::future<std::vector<EngineStats>> fut = promise.get_future();
  {
    util::MutexLock lock(mu_);
    if (stopped_ || draining_ || runtime_error_)
      return std::vector<EngineStats>(n);
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
  std::vector<EngineStats> engine_stats;
  // The remote sweep happens before topology_mu_ is taken: the router
  // answers it, and the router may itself be inside a resize holding
  // topology_mu_ — waiting on it while it waited on us would deadlock.
  if (config_.transport == TransportKind::kSocket)
    engine_stats = fetch_remote_stats();
  std::vector<std::pair<std::size_t, std::size_t>> depths;  // now, high water
  {
    util::MutexLock lock(mu_);
    for (const ShardQueue& queue : queues_)
      depths.emplace_back(queue.requests.size(), queue.high_water);
  }
  util::MutexLock topo(topology_mu_);
  if (config_.transport != TransportKind::kSocket) {
    engine_stats.reserve(engines_.size());
    for (const auto& engine : engines_)
      engine_stats.push_back(engine ? engine->stats() : EngineStats{});
  }
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
