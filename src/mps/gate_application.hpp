#pragma once

#include "circuit/gate.hpp"
#include "linalg/policy.hpp"
#include "linalg/svd.hpp"
#include "mps/mps.hpp"
#include "mps/truncation.hpp"

namespace qkmps::mps {

/// Scratch of the two-qubit gate path (Fig. 1b): theta in its three
/// layouts, the SVD factors and the SVD driver's workspace. The two site
/// tensors are read in place from the state's buffer. Every buffer is
/// resized in place, so a scratch reused gate after gate
/// (MpsSimulator::simulate keeps one per call) stops allocating once bond
/// dimensions settle. What a scratch held before never changes a result:
/// a warm and a fresh scratch give bitwise-identical states
/// (tests/test_simulator.cpp).
struct TwoQubitStep {
  idx q = 0;                ///< left site of the bond
  idx dl = 0, dr = 0;       ///< outer-left, outer-right bond dims
  linalg::Matrix gate;      ///< 4x4 in |lo hi> chain order
  linalg::Matrix theta;     ///< site q (dl*2 x k) times site q+1 (k x 2*dr)
  linalg::Matrix theta_p;   ///< theta permuted to (s0 s1) x (l r)
  linalg::Matrix theta_u;   ///< gate * theta_p
  linalg::Matrix theta_m;   ///< theta_u permuted to (l s0) x (s1 r)
  linalg::SvdResult f;      ///< SVD of theta_m
  linalg::SvdWorkspace svd; ///< the SVD driver's scratch
};

/// Applies a single-qubit gate to site q: a pure contraction with the site
/// tensor (Fig. 1a); bond dimensions are unchanged and no truncation is
/// needed.
void apply_single_qubit_gate(Mps& psi, const linalg::Matrix& u, idx q);

/// Applies a two-qubit gate on adjacent sites (q, q+1) following Fig. 1b:
/// move the orthogonality center to the bond, contract the two site tensors
/// with the gate into a theta tensor, SVD, truncate per `trunc` (Eq. 8),
/// and absorb the singular values into the right factor (leaving the center
/// at q+1). `u` is 4x4 in the |q, q+1> basis. Works in `scratch` when
/// given, else in a fresh one. Returns the discarded weight.
double apply_adjacent_two_qubit_gate(Mps& psi, const linalg::Matrix& u, idx q,
                                     const TruncationConfig& trunc,
                                     linalg::ExecPolicy policy,
                                     TruncationStats* stats = nullptr,
                                     TwoQubitStep* scratch = nullptr);

/// Gate dispatcher: routes 1q gates to the contraction path and adjacent 2q
/// gates to the SVD path (in `scratch` when given). Non-adjacent 2q gates
/// are a precondition violation — run circuit::route_to_chain first.
void apply_gate(Mps& psi, const circuit::Gate& g, const TruncationConfig& trunc,
                linalg::ExecPolicy policy, TruncationStats* stats = nullptr,
                TwoQubitStep* scratch = nullptr);

}  // namespace qkmps::mps
