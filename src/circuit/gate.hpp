#pragma once

#include <string>

#include "linalg/matrix.hpp"
#include "util/types.hpp"

namespace qkmps::circuit {

/// Gate vocabulary of the feature-map ansatz (Fig. 3 of the paper) plus the
/// SWAPs inserted by routing. Angle conventions are the standard
/// half-angle ones: RZ(t) = exp(-i t Z / 2), RXX(t) = exp(-i t XX / 2);
/// the ansatz builder converts Hamiltonian coefficients accordingly.
enum class GateKind {
  H,
  X,
  Z,
  RZ,
  RX,
  RXX,
  SWAP,
};

struct Gate {
  GateKind kind;
  idx q0 = 0;
  idx q1 = -1;        ///< second qubit for two-qubit gates, -1 otherwise
  double angle = 0.0;  ///< rotation angle for RZ/RX/RXX

  bool is_two_qubit() const { return q1 >= 0; }

  /// Single-qubit gates: 2x2 unitary. Two-qubit gates: 4x4 unitary in the
  /// basis |q0 q1> with q0 the more significant bit.
  linalg::Matrix matrix() const;

  std::string name() const;
};

/// Convenience constructors.
Gate make_h(idx q);
Gate make_x(idx q);
Gate make_z(idx q);
Gate make_rz(idx q, double angle);
Gate make_rx(idx q, double angle);
Gate make_rxx(idx q0, idx q1, double angle);
Gate make_swap(idx q0, idx q1);

}  // namespace qkmps::circuit
