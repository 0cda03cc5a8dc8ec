/// Artifact A4 — Fig. 8 of the paper.
///
/// Wall-clock breakdown of the distributed training-Gram computation as the
/// data set size and the rank count double together (round-robin strategy,
/// d=1 ansatz). The shape to reproduce: per-processor simulation time stays
/// ~constant, while per-processor inner-product time ~doubles per step
/// (quadratic work vs linear processor growth).
///
/// Thread-backed ranks share this machine's cores, so we report the
/// *modelled* k-processor wall clock: per-phase totals divided by the rank
/// count (each rank's work is balanced by construction; see DESIGN.md).
/// Next to the seconds, bytes/proc is what crossed the ring's socketpair
/// links per rank (save_mps frames with their headers), read from the
/// parallel.socket.bytes_sent counter around each call; it is
/// informational, not gated.
///
/// Knobs: QKMPS_FULL=1 (165 features, N up to 6400, ranks up to 32),
///        QKMPS_FEATURES, QKMPS_STEPS.

#include <cstdio>

#include "bench_common.hpp"
#include "kernel/distributed_gram.hpp"
#include "obs/metrics.hpp"

using namespace qkmps;

int main() {
  bench::print_header("Fig. 8: Gram-matrix runtime breakdown, round-robin scaling");
  const bool full = full_scale_requested();
  const idx m = static_cast<idx>(env_int("QKMPS_FEATURES", 165));
  const idx steps = static_cast<idx>(env_int("QKMPS_STEPS", full ? 5 : 4));
  const idx base_n = full ? 400 : 32;
  const int base_ranks = full ? 2 : 1;

  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 2, .distance = 1, .gamma = 0.1};

  std::printf("features m=%lld, d=1, r=2, gamma=0.1 (the Fig. 8/9/10 ansatz)\n\n",
              static_cast<long long>(m));
  std::printf("%8s %7s %16s %16s %16s %14s %12s\n", "N", "ranks",
              "sim/proc (s)", "ip/proc (s)", "comm/proc (s)", "bytes/proc",
              "entries");

  const obs::Counter& bytes_sent =
      obs::Registry::global().counter("parallel.socket.bytes_sent");
  std::vector<double> sim_per_proc, ip_per_proc, bytes_per_proc;
  for (idx s = 0; s < steps; ++s) {
    const idx n = base_n << s;
    const int ranks = base_ranks << s;
    const kernel::RealMatrix x =
        bench::scaled_features(n, m, 41 + static_cast<std::uint64_t>(s));

    kernel::GramStats stats;
    const std::uint64_t bytes_before = bytes_sent.value();
    (void)kernel::distributed_gram_matrix(
        cfg, x, ranks, kernel::DistributionStrategy::RoundRobin, &stats);
    const double bytes =
        static_cast<double>(bytes_sent.value() - bytes_before) / ranks;

    const double sim = stats.simulation_seconds / ranks;
    const double ip = stats.inner_product_seconds / ranks;
    const double comm = stats.communication_seconds / ranks;
    sim_per_proc.push_back(sim);
    ip_per_proc.push_back(ip);
    bytes_per_proc.push_back(bytes);
    std::printf("%8lld %7d %16.3f %16.3f %16.4f %14.0f %12lld\n",
                static_cast<long long>(n), ranks, sim, ip, comm, bytes,
                static_cast<long long>(stats.inner_products));
  }

  std::printf("\nshape check (paper): sim/proc ~constant; ip/proc ~doubles "
              "per step.\n");
  for (std::size_t s = 1; s < sim_per_proc.size(); ++s) {
    std::printf("  step %zu: sim ratio %.2f (expect ~1), ip ratio %.2f "
                "(expect ~2)\n",
                s, sim_per_proc[s] / sim_per_proc[s - 1],
                ip_per_proc[s] / ip_per_proc[s - 1]);
  }
  std::printf("\nextrapolation as in the paper: a 64,000-point data set at "
              "this per-pair cost would need ~%.1f processor-hours of inner "
              "products.\n",
              ip_per_proc.back() * (64000.0 * 63999.0 / 2.0) /
                  (static_cast<double>(base_n << (steps - 1)) *
                   static_cast<double>((base_n << (steps - 1)) - 1) / 2.0) *
                  (base_ranks << (steps - 1)) / 3600.0);

  bench::write_artifact("fig8_parallel_scaling.json", [&](JsonWriter& w) {
    w.field("features", static_cast<long long>(m));
    w.field("sim_per_proc", sim_per_proc);
    w.field("ip_per_proc", ip_per_proc);
    w.field("bytes_per_proc", bytes_per_proc);
  });
  return 0;
}
