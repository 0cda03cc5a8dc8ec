#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "util/types.hpp"

namespace perfbench {

/// One benchmark workload: a feature-map ansatz, a training-set size and a
/// serving traffic volume. Every workload runs both of the program's
/// pipelines over the same simulator — training (simulate -> Gram -> SVC
/// fit -> held-out scoring) and serving (bundle -> InferenceEngine) — so
/// every metric exists for every workload; the ansatz decides which layer
/// carries the work.
struct WorkloadSpec {
  const char* name;
  qkmps::idx features;  ///< qubits = leading pool columns kept
  qkmps::idx distance;  ///< linear-chain interaction distance d
  double gamma;         ///< kernel bandwidth
  qkmps::idx train_rows;  ///< 80% of the balanced sample; 20% is held out
  // Work measured per run at kRefSeconds; scaled linearly by --seconds.
  // Each train + score repetition opens a round that ends with a share of
  // the lone requests and of the saturated blocks.
  int train_reps;              ///< train + score repetitions (rounds)
  std::size_t lone_requests;   ///< sequential single-client requests
  std::size_t sat_blocks;      ///< closed-loop blocks, 64 outstanding
  // Checks and probes outside the timed phases.
  std::size_t parity_rows;     ///< served rows re-scored offline
  std::size_t probe_circuits;  ///< traced run: circuits probed one by one
  std::size_t probe_overlaps;  ///< traced run: overlaps probed one by one
};

/// The `--seconds` value the workload sizes above were chosen for.
inline constexpr double kRefSeconds = 40.0;

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = kRefSeconds;
  bool trace = false;
};

struct RunOutcome {
  MetricSet metrics;          ///< every metric this run measured
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  JsonObject detail;          ///< sizes, sample counts and raw repetitions
};

/// Runs one workload end to end in this process: set-up, then rounds of
/// one training and scoring repetition followed by lone and saturated
/// serving blocks, then the correctness checks. Layers are timed around
/// the program's public entry points only.
RunOutcome run_workload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench
