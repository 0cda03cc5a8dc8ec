#pragma once

#include <string>

namespace qkmps::linalg {

/// Execution policy for the dense kernels. This is our stand-in for the
/// paper's two backends (see DESIGN.md, substitutions table):
///
///  - `Reference`  — serial, low-overhead kernels; plays the role of the
///    ITensors CPU backend: fastest at small bond dimension because it pays
///    no dispatch cost.
///  - `Accelerated` — blocked, OpenMP-threaded kernels with a genuine
///    per-call dispatch overhead (thread-team fork/join); plays the role of
///    the cuTensorNet GPU backend: slower at small sizes, faster once the
///    bond dimension crosses a threshold. The crossover study of Fig. 5
///    sweeps exactly this trade-off.
enum class ExecPolicy {
  Reference,
  Accelerated,
};

/// Human-readable policy name for bench output ("cpu"/"gpu" in the paper's
/// artifact naming, reference/accelerated here).
std::string to_string(ExecPolicy policy);

/// Minimum matrix element count at which the accelerated GEMM spawns a
/// thread team; below this it still uses the blocked kernel but serially.
/// Exposed so benches can study the dispatch-overhead knob (ablation).
inline constexpr long long kParallelGemmThreshold = 4 * 1024;

/// Minimum column count at which the accelerated SVD/bidiagonalization
/// parallelizes its reflector applications.
inline constexpr long long kParallelSvdThreshold = 48;

/// RAII thread budget for the dense kernels on the current thread. The
/// serving engine runs kernels inside its own worker lanes; without a
/// budget, an accelerated gemm inside a lane forks a full OpenMP team and
/// the effective thread count multiplies (shard lanes x OMP threads). A
/// scope of 1 pins every kernel called from this thread to serial
/// execution; scopes nest and restore the previous budget on destruction.
class KernelThreadScope {
 public:
  /// max_threads <= 0 means "unlimited" (defer to the OpenMP runtime).
  explicit KernelThreadScope(int max_threads);
  ~KernelThreadScope();

  KernelThreadScope(const KernelThreadScope&) = delete;
  KernelThreadScope& operator=(const KernelThreadScope&) = delete;

  /// The budget active on the calling thread; 0 when unbudgeted.
  static int current();

 private:
  int prev_;
};

/// Team width a kernel on this thread may fork: the OpenMP max-threads
/// setting clamped by the active KernelThreadScope. Always >= 1.
int kernel_team_width();

/// Effective-concurrency probe: every thread executing inside a dense
/// kernel region (each blocked gemm team member) counts itself in, and the
/// high-water mark is kept. Tests reset the peak, drive a workload, and
/// assert the observed concurrency never exceeded the configured budget —
/// the oversubscription regression gate.
void kernel_probe_reset();
int kernel_probe_peak();

namespace detail {
/// RAII enter/exit of the probe; cheap (two relaxed atomics each way).
struct KernelProbeGuard {
  KernelProbeGuard();
  ~KernelProbeGuard();
};
}  // namespace detail

}  // namespace qkmps::linalg
