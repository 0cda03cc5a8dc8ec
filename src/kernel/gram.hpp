#pragma once

#include <vector>

#include "circuit/ansatz.hpp"
#include "kernel/kernel_matrix.hpp"
#include "mps/simulator.hpp"

namespace qkmps::kernel {

/// Everything needed to evaluate the quantum kernel on data: the feature
/// map hyperparameters and the simulator configuration.
struct QuantumKernelConfig {
  circuit::AnsatzParams ansatz;
  mps::SimulatorConfig sim;
};

/// Resource/accounting record for one Gram-matrix computation; the three
/// *_seconds totals are the Fig. 8 runtime breakdown.
struct GramStats {
  double simulation_seconds = 0.0;     ///< feature-map circuit simulation
  double inner_product_seconds = 0.0;  ///< overlaps into kernel entries
  /// Wall time of the round-robin ring exchanges: encoding, socket
  /// transfer and decoding of the travelling states, and waiting for the
  /// neighbour ranks.
  double communication_seconds = 0.0;
  idx circuits_simulated = 0;
  idx inner_products = 0;
  /// Over every circuit simulated: the sum of its MPS's largest bond and
  /// of its MPS's bytes. Summed, not averaged, so records merge by +=.
  idx max_bond_sum = 0;
  std::size_t mps_bytes_sum = 0;
  double total_discarded_weight = 0.0;

  /// Table I columns: averages over the circuits simulated, 0 if none.
  double avg_max_bond() const {
    return circuits_simulated == 0 ? 0.0
                                   : static_cast<double>(max_bond_sum) /
                                         static_cast<double>(circuits_simulated);
  }
  double avg_mps_bytes() const {
    return circuits_simulated == 0 ? 0.0
                                   : static_cast<double>(mps_bytes_sum) /
                                         static_cast<double>(circuits_simulated);
  }
};

/// Simulates the feature-map circuit for each row of X (features on
/// columns, already rescaled to (0,2)); returns one MPS per data point.
std::vector<mps::Mps> simulate_states(const QuantumKernelConfig& config,
                                      const RealMatrix& x,
                                      GramStats* stats = nullptr);

/// Symmetric training Gram matrix K_ij = |<psi(x_i)|psi(x_j)>|^2 (Eq. 1),
/// computed sequentially (exploiting symmetry: N(N-1)/2 inner products).
RealMatrix gram_matrix(const QuantumKernelConfig& config, const RealMatrix& x,
                       GramStats* stats = nullptr);

/// Rectangular inference kernel K_ij = |<psi(test_i)|psi(train_j)>|^2.
RealMatrix cross_kernel(const QuantumKernelConfig& config,
                        const RealMatrix& x_test, const RealMatrix& x_train,
                        GramStats* stats = nullptr);

/// Same two entry points but computed from already-simulated states.
RealMatrix gram_from_states(const std::vector<mps::Mps>& states,
                            linalg::ExecPolicy policy,
                            GramStats* stats = nullptr);
RealMatrix cross_from_states(const std::vector<mps::Mps>& test_states,
                             const std::vector<mps::Mps>& train_states,
                             linalg::ExecPolicy policy,
                             GramStats* stats = nullptr);

}  // namespace qkmps::kernel
