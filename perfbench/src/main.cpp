// perfbench: the repository's benchmark. One process runs one workload:
//
//   perfbench --workload <paper|entangled> --seed <n> --seconds <s>
//             --trace <0|1> [--source <id>]
//
// Standard output is one JSON line, {"detail": {...}}: the run's
// provenance, sizes, raw repetitions, the correctness tally (attempted,
// failed, failure notes) and every metric the run measured. With
// --trace 0 the run is uninstrumented; with --trace 1 the allocation
// counter and layer probes are switched on. Any failed correctness check
// makes the exit code nonzero. run.py picks the metrics BENCHMARK.json
// declares out of this line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "linalg/policy.hpp"
#include "pipeline.hpp"
#include "report.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source <id>]\nworkloads:",
               why.c_str());
  for (const perfbench::WorkloadSpec& w : perfbench::workloads())
    std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, source = "unknown";
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--source") {
      source = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr) usage("unknown workload '" + workload + "'");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");

  // Training runs single-threaded: every dense kernel on this thread is
  // pinned serial. The serving engine sets its own lanes (num_threads=2).
  qkmps::linalg::KernelThreadScope serial(1);

  perfbench::RunOutcome outcome;
  try {
    outcome = perfbench::run_workload(*spec, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", spec->name, e.what());
    return 1;
  }

  std::string notes = "[";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i)
    notes += (i == 0 ? "" : ", ") +
             perfbench::JsonObject().str("note", outcome.failures[i]).dump();
  notes += "]";

  perfbench::JsonObject detail = outcome.detail;
  detail.str("workload", spec->name)
      .num("seed", static_cast<double>(options.seed))
      .num("seconds", options.seconds)
      .boolean("trace", options.trace)
      .raw("provenance", perfbench::JsonObject()
                             .str("source", source)
                             .num("nproc", std::thread::hardware_concurrency())
                             .dump())
      .num("error_rate", outcome.attempted == 0
                             ? 0.0
                             : static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted))
      .num("attempted", static_cast<double>(outcome.attempted))
      .num("failed", static_cast<double>(outcome.failed))
      .raw("failures", notes)
      .raw("all_metrics", perfbench::metrics_json(outcome.metrics.all()));
  std::printf("%s\n", perfbench::JsonObject().raw("detail", detail.dump()).dump().c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}
