#include <gtest/gtest.h>
#include <malloc.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "circuit/ansatz.hpp"
#include "circuit/routing.hpp"
#include "circuit/statevector.hpp"
#include "mps/gate_application.hpp"
#include "mps/serialization.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

double state_diff(const Mps& psi, const circuit::Statevector& sv) {
  const auto v = psi.to_statevector();
  double diff = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    diff = std::max(diff, std::abs(v[i] - sv.amplitudes()[i]));
  return diff;
}

bool bitwise_equal(const Mps& x, const Mps& y) {
  if (x.num_sites() != y.num_sites() || x.center() != y.center())
    return false;
  for (idx i = 0; i < x.num_sites(); ++i) {
    const SiteView sx = x.site(i);
    const SiteView sy = y.site(i);
    if (sx.left != sy.left || sx.right != sy.right ||
        sx.a.size() != sy.a.size() ||
        std::memcmp(sx.a.data(), sy.a.data(), sx.a.size() * sizeof(cplx)) !=
            0)
      return false;
  }
  return true;
}

bool bitwise_equal(const TruncationStats& x, const TruncationStats& y) {
  return std::memcmp(&x.total_discarded_weight, &y.total_discarded_weight,
                     sizeof(double)) == 0 &&
         std::memcmp(&x.discarded_compensation, &y.discarded_compensation,
                     sizeof(double)) == 0 &&
         x.truncation_count == y.truncation_count &&
         x.max_bond_seen == y.max_bond_seen;
}

class SimulatorVsStatevector
    : public ::testing::TestWithParam<std::tuple<idx, idx, double>> {};

TEST_P(SimulatorVsStatevector, AnsatzCircuitsAgree) {
  const auto [m, d, gamma] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 19 + d * 7 + static_cast<idx>(gamma * 10)));
  const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                .gamma = gamma};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng));

  MpsSimulator sim;
  const SimulationResult r = sim.simulate(c);
  const circuit::Statevector sv = circuit::simulate_statevector(c);
  EXPECT_LT(state_diff(r.state, sv), 1e-7);
  EXPECT_NEAR(r.state.norm(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ParamSweep, SimulatorVsStatevector,
    ::testing::Values(std::make_tuple(4, 1, 0.1), std::make_tuple(6, 1, 1.0),
                      std::make_tuple(6, 2, 0.5), std::make_tuple(8, 3, 1.0),
                      std::make_tuple(8, 4, 0.5), std::make_tuple(10, 2, 0.9),
                      std::make_tuple(5, 4, 1.0)));

TEST(Simulator, RoutesNonAdjacentCircuitsTransparently) {
  circuit::Circuit c(5);
  for (idx q = 0; q < 5; ++q) c.h(q);
  c.rxx(0, 4, 0.8);
  EXPECT_FALSE(c.is_nearest_neighbour());
  MpsSimulator sim;
  const SimulationResult r = sim.simulate(c);
  const circuit::Statevector sv = circuit::simulate_statevector(c);
  EXPECT_LT(state_diff(r.state, sv), 1e-9);
  // Gate count reflects the routed circuit (SWAP overhead included).
  EXPECT_EQ(r.gates_applied, c.size() + circuit::routing_swap_count(c));
}

TEST(Simulator, TruncationErrorBoundHolds) {
  // Eq. 8 accumulated: |<ideal|trunc>|^2 >= 1 - sum of discarded weights.
  Rng rng(11);
  const circuit::AnsatzParams p{.num_features = 8, .layers = 2, .distance = 3,
                                .gamma = 1.0};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, qkmps::testing::random_features(8, rng));
  MpsSimulator sim;
  const SimulationResult r = sim.simulate(c);
  const circuit::Statevector ideal = circuit::simulate_statevector(c);

  const auto approx = r.state.to_statevector();
  cplx overlap = 0.0;
  for (std::size_t i = 0; i < approx.size(); ++i)
    overlap += std::conj(ideal.amplitudes()[i]) * approx[i];
  EXPECT_GE(std::norm(overlap), r.truncation.fidelity_lower_bound() - 1e-12);
}

TEST(Simulator, DefaultTruncationIsMachinePrecision) {
  Rng rng(12);
  const circuit::AnsatzParams p{.num_features = 10, .layers = 2, .distance = 2,
                                .gamma = 1.0};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, qkmps::testing::random_features(10, rng));
  MpsSimulator sim;
  const SimulationResult r = sim.simulate(c);
  // Each truncation discards <= 1e-16; the accumulated weight stays tiny.
  EXPECT_LT(r.truncation.total_discarded_weight,
            1e-16 * static_cast<double>(r.truncation.truncation_count + 1));
}

TEST(Simulator, MemoryTrackingRecordsEveryGate) {
  Rng rng(13);
  const circuit::AnsatzParams p{.num_features = 6, .layers = 1, .distance = 2,
                                .gamma = 0.7};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, qkmps::testing::random_features(6, rng));
  SimulatorConfig cfg;
  cfg.track_memory = true;
  MpsSimulator sim(cfg);
  const SimulationResult r = sim.simulate(c);
  EXPECT_EQ(static_cast<idx>(r.memory.samples().size()), r.gates_applied);
  EXPECT_GE(r.memory.peak_bytes(), r.state.memory_bytes());
  EXPECT_EQ(r.memory.peak_bond(), r.truncation.max_bond_seen);
}

TEST(Simulator, MemoryTrackingOffByDefault) {
  circuit::Circuit c(3);
  c.h(0);
  MpsSimulator sim;
  EXPECT_TRUE(sim.simulate(c).memory.samples().empty());
}

TEST(Simulator, PoliciesProduceSameBondDimensions) {
  // Table I's consistency property: both backends implement the same
  // algorithm, so their bond dimensions agree.
  Rng rng(14);
  const circuit::AnsatzParams p{.num_features = 9, .layers = 2, .distance = 3,
                                .gamma = 1.0};
  const auto x = qkmps::testing::random_features(9, rng);
  const circuit::Circuit c = circuit::feature_map_circuit(p, x);

  SimulatorConfig ref_cfg, acc_cfg;
  acc_cfg.policy = linalg::ExecPolicy::Accelerated;
  const SimulationResult ref = MpsSimulator(ref_cfg).simulate(c);
  const SimulationResult acc = MpsSimulator(acc_cfg).simulate(c);
  EXPECT_EQ(ref.state.bonds(), acc.state.bonds());
}

TEST(Simulator, GammaAffectsEntanglement) {
  // Fig. 7's mechanism: intermediate gamma creates more entanglement than
  // gamma near zero.
  Rng rng(15);
  const auto x = qkmps::testing::random_features(10, rng);
  auto chi_for = [&](double gamma) {
    const circuit::AnsatzParams p{.num_features = 10, .layers = 2, .distance = 3,
                                  .gamma = gamma};
    MpsSimulator sim;
    return sim.simulate(circuit::feature_map_circuit(p, x)).state.max_bond();
  };
  EXPECT_LT(chi_for(0.01), chi_for(0.5));
}

TEST(Simulator, InitialStateOverload) {
  // Simulating the XX block on a caller-provided |+>^m must equal the full
  // ansatz run (whose first layer is the Hadamards).
  Rng rng(16);
  const auto x = qkmps::testing::random_features(5, rng);
  const circuit::AnsatzParams p{.num_features = 5, .layers = 1, .distance = 1,
                                .gamma = 0.6};
  const circuit::Circuit full = circuit::feature_map_circuit(p, x);

  circuit::Circuit tail(5);
  for (idx g = 5; g < full.size(); ++g) tail.append(full.gates()[static_cast<std::size_t>(g)]);

  MpsSimulator sim;
  const Mps via_plus = sim.simulate(tail, Mps::plus_state(5)).state;
  const Mps via_full = sim.simulate(full).state;
  const auto va = via_plus.to_statevector();
  const auto vb = via_full.to_statevector();
  double diff = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i)
    diff = std::max(diff, std::abs(va[i] - vb[i]));
  EXPECT_LT(diff, 1e-12);
}

TEST(Simulator, WarmScratchMatchesColdGateLoopBitwise) {
  // simulate() keeps one gate scratch (buffers and SVD workspace) for its
  // whole sweep; a gate-by-gate apply_gate loop gets a fresh one per
  // gate. What the scratch held before must never show in a result:
  // site tensors, centre and truncation stats are memcmp-equal, for both
  // kernel policies, with and without truncation, on a nearest-neighbour
  // circuit and on circuits that need routing.
  Rng rng(36);
  const circuit::AnsatzParams p{.num_features = 8, .layers = 2, .distance = 3,
                                .gamma = 1.0};
  std::vector<circuit::Circuit> circuits{
      qkmps::testing::random_circuit(6, 60, rng, /*nearest_neighbour_only=*/true),
      qkmps::testing::random_circuit(6, 60, rng),
      circuit::feature_map_circuit(p, qkmps::testing::random_features(8, rng))};
  ASSERT_TRUE(circuits[0].is_nearest_neighbour());
  ASSERT_FALSE(circuits[1].is_nearest_neighbour());
  ASSERT_FALSE(circuits[2].is_nearest_neighbour());

  const TruncationConfig exact;
  const TruncationConfig lossy{.max_discarded_weight = 1e-4, .max_bond = 3};
  for (const linalg::ExecPolicy policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    for (const TruncationConfig& trunc : {exact, lossy}) {
      const MpsSimulator sim({.policy = policy, .truncation = trunc});
      for (std::size_t ci = 0; ci < circuits.size(); ++ci) {
        const circuit::Circuit& c = circuits[ci];
        const SimulationResult warm = sim.simulate(c);

        const circuit::Circuit routed =
            c.is_nearest_neighbour() ? c : circuit::route_to_chain(c);
        Mps cold(c.num_qubits());
        TruncationStats cold_stats;
        for (const circuit::Gate& g : routed.gates())
          apply_gate(cold, g, trunc, policy, &cold_stats);

        EXPECT_TRUE(bitwise_equal(warm.state, cold))
            << "circuit " << ci << " policy=" << to_string(policy)
            << " max_bond=" << trunc.max_bond;
        EXPECT_TRUE(bitwise_equal(warm.truncation, cold_stats))
            << "circuit " << ci << " policy=" << to_string(policy)
            << " max_bond=" << trunc.max_bond;
        EXPECT_EQ(warm.gates_applied, routed.size());
        if (trunc.max_bond > 0 && ci == 2) {
          EXPECT_GT(warm.truncation.total_discarded_weight, 0.0);
        }
      }
    }
  }
}

TEST(Simulator, StoredStatesHoldNoSpareCapacity) {
  // The sweep's splices grow the buffer with spare room; the state
  // simulate() returns, a copy and a loaded state each hold their
  // amplitudes in a block no larger than the allocator's rounding needs.
  Rng rng(41);
  const circuit::AnsatzParams p{.num_features = 10, .layers = 2, .distance = 3,
                                .gamma = 1.0};
  const Mps simulated =
      MpsSimulator()
          .simulate(circuit::feature_map_circuit(p, qkmps::testing::random_features(10, rng)))
          .state;
  ASSERT_GT(simulated.max_bond(), 8);
  const Mps copy = simulated;
  const Mps loaded = load_mps(save_mps(simulated));
  for (const Mps* psi : {&simulated, &copy, &loaded}) {
    const std::size_t block =
        malloc_usable_size(const_cast<cplx*>(psi->site(0).a.data()));
    EXPECT_GE(block, psi->memory_bytes());
    EXPECT_LT(block, psi->memory_bytes() + 32);
  }
}

}  // namespace
}  // namespace qkmps::mps
