#pragma once

#include "circuit/circuit.hpp"
#include "linalg/policy.hpp"
#include "mps/memory_tracker.hpp"
#include "mps/mps.hpp"
#include "mps/truncation.hpp"

namespace qkmps::mps {

/// Configuration of one simulation backend instance. The policy selects
/// the reference (CPU-stand-in) or accelerated (GPU-stand-in) dense
/// kernels — both run the *same* MPS algorithm, mirroring the paper's
/// "both libraries use the same MPS simulation algorithm" setup, so bond
/// dimensions must agree between policies (Table I's consistency check).
struct SimulatorConfig {
  linalg::ExecPolicy policy = linalg::ExecPolicy::Reference;
  TruncationConfig truncation;
  bool track_memory = false;  ///< record a Fig.6-style footprint profile
};

/// Outcome of simulating one circuit.
struct SimulationResult {
  Mps state;
  TruncationStats truncation;
  MemoryTracker memory;        ///< empty unless track_memory
  double seconds = 0.0;        ///< wall-clock simulation time
  idx gates_applied = 0;
};

/// MPS circuit simulator (Sec. II-B). Circuits must be nearest-neighbour;
/// if not, they are routed through circuit::route_to_chain transparently.
/// simulate() is the one gate-sweep driver; it keeps all its scratch in
/// locals of the call, so one const simulator may serve many threads at
/// once (the serving engine runs one circuit per pool lane on a shared
/// instance).
class MpsSimulator {
 public:
  explicit MpsSimulator(SimulatorConfig config = {});

  const SimulatorConfig& config() const { return config_; }

  /// Simulates `c` starting from |0...0>.
  SimulationResult simulate(const circuit::Circuit& c) const;

  /// Simulates `c` starting from a caller-provided state (e.g. |+>^m).
  SimulationResult simulate(const circuit::Circuit& c, Mps initial) const;

 private:
  SimulatorConfig config_;
};

}  // namespace qkmps::mps
