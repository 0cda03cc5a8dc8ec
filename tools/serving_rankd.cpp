/// serving_rankd: one shard of the rank-sharded serving frontend as a
/// standalone process. serve::RankShardedEngine spawns N of these in
/// socket-transport mode (RankShardedEngineConfig::socket); each loads
/// the model bundle from disk, connects back to the router's listener,
/// handshakes (wire version + shard index + model shape, see
/// src/serve/shard_wire.hpp), and then runs the exact same
/// gather->predict->reply loop an in-process worker thread runs
/// (serve::run_shard_worker) over the same frames — the transport
/// substitution of DESIGN.md §1, with zero drift between the two
/// deployments.
///
/// Usage:
///   serving_rankd --connect=ADDR --shard=I --bundle=DIR
///                 [--gather=N] [--threads=N] [--cache=N] [--memo=N]
///                 [--die-after=N] [--weight=W] [--generation=G]
///                 [--metrics-out=PATH]
///
/// --metrics-out=PATH writes this worker's obs::Registry snapshot (JSON:
/// counters, gauges, latency histograms — see src/obs/metrics.hpp) to
/// PATH when the worker exits cleanly *or* via the --die-after hook, so
/// a postmortem can read the worker-side numbers even after a simulated
/// crash. PATH usually embeds the shard index (one file per worker).
///
/// --weight and --generation are echoed back in the hello verbatim: they
/// let the elastic engine pin exactly which spawn it is handshaking (a
/// respawned worker carries the slot's bumped generation; a straggler
/// from a superseded spawn is refused at the handshake).
///
/// --gather bounds the worker loop's opportunistic batch (the router's
/// drain_max_batch resolution; default 32). --threads, --cache and
/// --memo size the worker's engine.
///
/// ADDR is a parallel::SocketListener address ("unix:<path>" or
/// "tcp:<ip>:<port>"). --die-after=N is a test hook: exit abruptly (no
/// shutdown ack, socket just closes) after scoring N requests, so the
/// suites can rehearse the router's worker-death shedding path.
///
/// Exit codes: 0 clean shutdown (kShutdown acked), 1 usage/handshake/
/// runtime error — including the router's link vanishing mid-serve, which
/// the worker cannot distinguish from any other dead peer — and 42 when
/// the --die-after hook tripped.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"

#include "parallel/socket_transport.hpp"
#include "serve/model_bundle.hpp"
#include "serve/shard_worker.hpp"
#include "util/error.hpp"

namespace {

struct Args {
  std::string connect;
  std::string bundle_dir;
  std::size_t shard = 0;
  bool shard_set = false;
  qkmps::serve::EngineConfig engine;
  qkmps::serve::ShardWorkerOptions worker;
  double weight = 1.0;
  std::uint64_t generation = 0;
  std::string metrics_out;
};

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--connect", value)) {
      args.connect = value;
    } else if (parse_flag(argv[i], "--bundle", value)) {
      args.bundle_dir = value;
    } else if (parse_flag(argv[i], "--shard", value)) {
      args.shard = static_cast<std::size_t>(std::stoull(value));
      args.shard_set = true;
    } else if (parse_flag(argv[i], "--gather", value)) {
      args.worker.batch_limit = static_cast<std::size_t>(std::stoull(value));
    } else if (parse_flag(argv[i], "--threads", value)) {
      args.engine.num_threads = static_cast<std::size_t>(std::stoull(value));
    } else if (parse_flag(argv[i], "--cache", value)) {
      args.engine.cache_capacity = static_cast<std::size_t>(std::stoull(value));
    } else if (parse_flag(argv[i], "--memo", value)) {
      args.engine.memo_capacity = static_cast<std::size_t>(std::stoull(value));
    } else if (parse_flag(argv[i], "--die-after", value)) {
      args.worker.die_after_requests =
          static_cast<std::size_t>(std::stoull(value));
    } else if (parse_flag(argv[i], "--weight", value)) {
      args.weight = std::stod(value);
    } else if (parse_flag(argv[i], "--generation", value)) {
      args.generation = static_cast<std::uint64_t>(std::stoull(value));
    } else if (parse_flag(argv[i], "--metrics-out", value)) {
      args.metrics_out = value;
    } else {
      throw qkmps::Error(std::string("unknown argument: ") + argv[i]);
    }
  }
  if (args.connect.empty() || args.bundle_dir.empty() || !args.shard_set)
    throw qkmps::Error(
        "usage: serving_rankd --connect=ADDR --shard=I --bundle=DIR "
        "[--gather=N] [--threads=N] [--cache=N] [--memo=N] [--die-after=N] "
        "[--weight=W] [--generation=G] [--metrics-out=PATH]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qkmps;
  try {
    const Args args = parse_args(argc, argv);

    const auto bundle = std::make_shared<const serve::ModelBundle>(
        serve::load_bundle(args.bundle_dir));
    serve::InferenceEngine engine(bundle, args.engine);

    std::unique_ptr<parallel::SocketTransport> link =
        parallel::SocketTransport::connect(args.connect,
                                           std::chrono::milliseconds(10'000));
    serve::ShardHello hello;
    hello.shard_index = args.shard;
    hello.num_features = bundle->num_features();
    hello.weight = args.weight;
    hello.generation = args.generation;
    serve::shard_handshake_client(*link, hello,
                                  std::chrono::microseconds(10'000'000));

    const bool clean = run_shard_worker(*link, engine, args.worker);

    // Worker-side registry snapshot for postmortems — written on the
    // --die-after path too (that "crash" is abrupt only on the socket).
    if (!args.metrics_out.empty()) {
      std::ofstream out(args.metrics_out,
                        std::ios::binary | std::ios::trunc);
      if (out) out << obs::Registry::global().render_json();
      if (!out)
        std::fprintf(stderr, "serving_rankd: could not write %s\n",
                     args.metrics_out.c_str());
    }

    // Clean = acked kShutdown; otherwise the --die-after test hook
    // tripped (simulated crash: exit without a word; the closing socket
    // is the signal the router acts on).
    return clean ? 0 : 42;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_rankd: %s\n", e.what());
    return 1;
  }
}
