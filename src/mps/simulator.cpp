#include "mps/simulator.hpp"

#include "circuit/routing.hpp"
#include "mps/gate_application.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::mps {

MpsSimulator::MpsSimulator(SimulatorConfig config) : config_(config) {}

SimulationResult MpsSimulator::simulate(const circuit::Circuit& c) const {
  return simulate(c, Mps(c.num_qubits()));
}

SimulationResult MpsSimulator::simulate(const circuit::Circuit& c,
                                        Mps initial) const {
  QKMPS_CHECK(c.num_qubits() == initial.num_sites());
  const circuit::Circuit routed =
      c.is_nearest_neighbour() ? c : circuit::route_to_chain(c);

  SimulationResult out{std::move(initial), {}, {}, 0.0, 0};
  Timer timer;
  {
    // One gate scratch for the whole sweep: its buffers and SVD workspace
    // are reused gate after gate, so the warm loop stops allocating.
    TwoQubitStep scratch;
    for (const circuit::Gate& g : routed.gates()) {
      apply_gate(out.state, g, config_.truncation, config_.policy,
                 &out.truncation, &scratch);
      ++out.gates_applied;
      if (config_.track_memory) {
        out.memory.record(out.gates_applied, out.state.memory_bytes(),
                          out.state.max_bond());
      }
    }
  }
  // The sweep's splices may leave spare capacity; the state that is
  // returned, and usually stored, holds its amplitudes exactly. The trim
  // comes after the scratch is freed, so the exact copy can take the
  // scratch's place in the heap instead of a fresh block beside it.
  out.state.shrink_to_fit();
  out.seconds = timer.seconds();
  return out;
}

}  // namespace qkmps::mps
