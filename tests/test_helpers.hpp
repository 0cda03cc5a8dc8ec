#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "util/rng.hpp"

namespace qkmps::testing {

/// FNV-1a-64 of a byte string: pins an encoding's exact bytes.
inline std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Random complex matrix with iid standard-normal entries.
inline linalg::Matrix random_matrix(idx rows, idx cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (idx i = 0; i < rows; ++i)
    for (idx j = 0; j < cols; ++j) m(i, j) = rng.normal_cplx();
  return m;
}

/// U * diag(s) * Vh reassembly.
inline linalg::Matrix reconstruct(const linalg::SvdResult& f) {
  linalg::Matrix us = f.u;
  for (idx i = 0; i < us.rows(); ++i)
    for (idx j = 0; j < us.cols(); ++j)
      us(i, j) *= f.s[static_cast<std::size_t>(j)];
  return linalg::gemm_reference(us, f.vh);
}

/// Random feature vector in the open interval (0, 2) — the ansatz domain.
inline std::vector<double> random_features(idx m, Rng& rng) {
  std::vector<double> x(static_cast<std::size_t>(m));
  for (auto& v : x) v = rng.uniform(0.05, 1.95);
  return x;
}

/// Random circuit over the full gate vocabulary. Two-qubit gates act on
/// adjacent sites when `nearest_neighbour_only` is set, and on arbitrary
/// (distinct) pairs otherwise — the latter exercises the routing pass when
/// fed to the MPS simulator.
inline circuit::Circuit random_circuit(idx m, idx num_gates, Rng& rng,
                                       bool nearest_neighbour_only = false) {
  circuit::Circuit c(m);
  for (idx g = 0; g < num_gates; ++g) {
    const auto kind = rng.uniform_int(7);
    const idx q0 = static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(m)));
    const double angle = rng.uniform(-kPi, kPi);
    switch (kind) {
      case 0: c.h(q0); break;
      case 1: c.x(q0); break;
      case 2: c.z(q0); break;
      case 3: c.rz(q0, angle); break;
      case 4: c.rx(q0, angle); break;
      default: {
        if (m < 2) { c.h(q0); break; }
        idx a = q0, b;
        if (nearest_neighbour_only) {
          a = static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(m - 1)));
          b = a + 1;
        } else {
          do {
            b = static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(m)));
          } while (b == a);
        }
        if (kind == 5) c.rxx(a, b, angle);
        else c.swap(a, b);
        break;
      }
    }
  }
  return c;
}

/// <a|b> = sum_i conj(a_i) b_i over dense amplitude vectors.
inline cplx dense_inner_product(const std::vector<cplx>& a,
                                const std::vector<cplx>& b) {
  cplx acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return acc;
}

/// Max elementwise |a_i - b_i| between dense amplitude vectors.
inline double max_amplitude_diff(const std::vector<cplx>& a,
                                 const std::vector<cplx>& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = std::max(diff, std::abs(a[i] - b[i]));
  return diff;
}

/// 1 - |<a|b>|^2: the infidelity of state b against reference a.
inline double dense_infidelity(const std::vector<cplx>& a,
                               const std::vector<cplx>& b) {
  return 1.0 - std::norm(dense_inner_product(a, b));
}

}  // namespace qkmps::testing
