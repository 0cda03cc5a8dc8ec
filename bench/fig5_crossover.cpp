/// Artifact A3 — Fig. 5 and Table I of the paper.
///
/// Sweeps the qubit interaction distance d and times (a) single-circuit MPS
/// simulation and (b) single inner-product calculation on both execution
/// policies (reference = CPU-backend stand-in, accelerated = GPU-backend
/// stand-in; see DESIGN.md). Prints the Fig. 5 median/quartile series and
/// the Table I bond-dimension / memory summary.
///
/// Knobs: QKMPS_FULL=1 (paper scale: m=100, d in {2..12}),
///        QKMPS_QUBITS, QKMPS_DMAX, QKMPS_SAMPLES.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "circuit/ansatz.hpp"
#include "kernel/gram.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "util/timer.hpp"

using namespace qkmps;

namespace {

struct DistanceResult {
  idx d = 0;
  Summary sim_time;
  Summary ip_time;
  double avg_chi = 0.0;
  double mps_mib = 0.0;
};

DistanceResult run_distance(idx m, idx d, idx samples, linalg::ExecPolicy policy) {
  const kernel::RealMatrix x = bench::scaled_features(samples, m, 17 + static_cast<std::uint64_t>(d));
  const circuit::AnsatzParams ansatz{.num_features = m, .layers = 2,
                                     .distance = d, .gamma = 1.0};
  mps::SimulatorConfig cfg;
  cfg.policy = policy;
  const mps::MpsSimulator sim(cfg);

  DistanceResult out;
  out.d = d;
  std::vector<double> sim_times, ip_times;
  std::vector<mps::Mps> states;
  double chi_sum = 0.0;
  std::size_t bytes_sum = 0;

  for (idx i = 0; i < samples; ++i) {
    std::vector<double> row(x.row(i), x.row(i) + m);
    const circuit::Circuit c = circuit::feature_map_circuit(ansatz, row);
    Timer t;
    mps::SimulationResult r = sim.simulate(c);
    sim_times.push_back(t.seconds());
    chi_sum += static_cast<double>(r.state.max_bond());
    bytes_sum += r.state.memory_bytes();
    states.push_back(std::move(r.state));
  }
  for (idx i = 0; i < samples; ++i) {
    for (idx j = i + 1; j < samples; ++j) {
      // Best of three repetitions: inner products are milliseconds-scale,
      // so a single descheduling event would otherwise dominate the sample.
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        (void)mps::overlap_squared(states[static_cast<std::size_t>(i)],
                                   states[static_cast<std::size_t>(j)], policy);
        best = std::min(best, t.seconds());
      }
      ip_times.push_back(best);
    }
  }
  out.sim_time = summarize(sim_times);
  out.ip_time = summarize(ip_times);
  out.avg_chi = chi_sum / static_cast<double>(samples);
  out.mps_mib = static_cast<double>(bytes_sum) /
                static_cast<double>(samples) / (1024.0 * 1024.0);
  return out;
}

/// Smallest d from which the accelerated policy's median beats the
/// reference median at every larger d of the sweep (every row from there
/// on prints winner "accel"), or -1 when it does not win at the largest d.
idx crossover_d(const std::vector<DistanceResult>& ref,
                const std::vector<DistanceResult>& acc,
                Summary DistanceResult::*series) {
  idx crossover = -1;
  for (std::size_t i = ref.size(); i-- > 0;) {
    if (!((acc[i].*series).median < (ref[i].*series).median)) break;
    crossover = ref[i].d;
  }
  return crossover;
}

}  // namespace

int main() {
  bench::print_header("Fig. 5 + Table I: CPU/GPU crossover vs interaction distance");

  const bool full = full_scale_requested();
  const idx m = static_cast<idx>(env_int("QKMPS_QUBITS", full ? 100 : 20));
  const idx dmax = static_cast<idx>(env_int("QKMPS_DMAX", full ? 12 : 5));
  const idx samples = static_cast<idx>(env_int("QKMPS_SAMPLES", full ? 8 : 4));

  std::printf("qubits m=%lld, layers r=2, gamma=1.0, samples=%lld\n",
              static_cast<long long>(m), static_cast<long long>(samples));

  std::vector<DistanceResult> ref, acc;
  for (idx d = 1; d <= dmax; ++d) {
    ref.push_back(run_distance(m, d, samples, linalg::ExecPolicy::Reference));
    acc.push_back(run_distance(m, d, samples, linalg::ExecPolicy::Accelerated));
  }

  std::printf("\n[Fig 5a] MPS simulation time per circuit (seconds)\n");
  std::printf("%4s %12s %12s %12s %12s %10s\n", "d", "ref(med)", "ref(q1-q3)",
              "acc(med)", "acc(q1-q3)", "winner");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("%4lld %12.4f %5.4f-%5.4f %12.4f %5.4f-%5.4f %10s\n",
                static_cast<long long>(ref[i].d), ref[i].sim_time.median,
                ref[i].sim_time.q1, ref[i].sim_time.q3, acc[i].sim_time.median,
                acc[i].sim_time.q1, acc[i].sim_time.q3,
                ref[i].sim_time.median <= acc[i].sim_time.median ? "reference"
                                                                 : "accel");
  }

  std::printf("\n[Fig 5b] Inner-product time per pair (seconds)\n");
  std::printf("%4s %12s %12s %10s\n", "d", "ref(med)", "acc(med)", "winner");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("%4lld %12.6f %12.6f %10s\n", static_cast<long long>(ref[i].d),
                ref[i].ip_time.median, acc[i].ip_time.median,
                ref[i].ip_time.median <= acc[i].ip_time.median ? "reference"
                                                               : "accel");
  }

  std::printf("\n[Table I] Average largest bond dimension and MPS memory\n");
  std::printf("%10s %16s %16s %16s\n", "distance", "avg chi (acc)",
              "avg chi (ref)", "memory/MPS MiB");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("%10lld %16.3f %16.3f %16.4f\n",
                static_cast<long long>(ref[i].d), acc[i].avg_chi, ref[i].avg_chi,
                acc[i].mps_mib);
  }

  // Crossover summary (the paper's headline observation for this figure).
  const idx crossover_sim = crossover_d(ref, acc, &DistanceResult::sim_time);
  const idx crossover_ip = crossover_d(ref, acc, &DistanceResult::ip_time);
  std::printf("\ncrossover: smallest d from which accel wins at every larger d"
              " (paper: d between 8 and 10 on A100 vs EPYC)\n");
  auto print_crossover = [](const char* series, idx d) {
    if (d > 0) {
      std::printf("  %-15s d=%lld\n", series, static_cast<long long>(d));
    } else {
      std::printf("  %-15s none within this sweep (extend QKMPS_DMAX)\n", series);
    }
  };
  print_crossover("simulation", crossover_sim);
  print_crossover("inner products", crossover_ip);

  bench::write_artifact("fig5_crossover.json", [&](JsonWriter& w) {
    w.field("qubits", static_cast<long long>(m));
    w.field("crossover_d_sim", static_cast<long long>(crossover_sim));
    w.field("crossover_d_ip", static_cast<long long>(crossover_ip));
    w.begin_array("distances");
    for (std::size_t i = 0; i < ref.size(); ++i) {
      w.begin_array_object();
      w.field("d", static_cast<long long>(ref[i].d));
      w.field("sim_median_ref", ref[i].sim_time.median);
      w.field("sim_median_acc", acc[i].sim_time.median);
      w.field("ip_median_ref", ref[i].ip_time.median);
      w.field("ip_median_acc", acc[i].ip_time.median);
      w.field("avg_chi_ref", ref[i].avg_chi);
      w.field("avg_chi_acc", acc[i].avg_chi);
      w.field("mps_mib", acc[i].mps_mib);
      w.end_object();
    }
    w.end_array();
  });
  return 0;
}
