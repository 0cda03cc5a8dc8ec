#pragma once

#include <vector>

#include "kernel/kernel_matrix.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace qkmps::svm {

/// C-SVC on a *precomputed* kernel — the consumer of the quantum Gram
/// matrix (the paper feeds its kernels "to a standard SVM pipeline").
/// Solves the usual dual
///   min 1/2 a^T Q a - e^T a,  0 <= a_i <= C,  y^T a = 0,
/// with Q_ij = y_i y_j K_ij, via SMO with maximal-violating-pair working
/// set selection (the LIBSVM scheme).
struct SvcParams {
  double c = 1.0;       ///< box constraint; paper sweeps C in [0.01, 4]
  double tol = 1e-3;    ///< KKT violation stopping threshold (paper: 1e-3)
  long long max_iter = 10'000'000;  ///< safety valve on SMO iterations
};

struct SvcModel {
  std::vector<double> alpha;  ///< dual coefficients (size n_train)
  std::vector<int> y;         ///< training labels in {-1, +1}
  double bias = 0.0;
  long long iterations = 0;
  bool converged = false;

  /// Decision values f_i = sum_j alpha_j y_j K(test_i, train_j) + b for a
  /// rectangular test-vs-train kernel. Internally walks only the support
  /// vectors (alpha_j > 0), so a compacted model pays O(#SV) per row.
  std::vector<double> decision_values(const kernel::RealMatrix& k_test) const;

  /// Signed predictions in {-1, +1}.
  std::vector<int> predict(const kernel::RealMatrix& k_test) const;

  idx support_vector_count() const;
};

/// Trains on a symmetric n x n kernel and labels in {-1, +1}.
SvcModel train_svc(const kernel::RealMatrix& k, const std::vector<int>& y,
                   const SvcParams& params);

/// A trained model reduced to its support vectors. Inference only ever
/// multiplies against alpha_j > 0 terms (Sec. III-A's stored-states
/// argument), so dropping zero-alpha entries shrinks both the kernel
/// columns to compute and the number of training MPS that must stay
/// resident — the compaction serve::ModelBundle persists.
struct CompactSvc {
  SvcModel model;               ///< alpha/y hold only support-vector entries
  std::vector<idx> sv_indices;  ///< SV position -> original training index
};

/// Drops zero-alpha entries and remaps indices; bias/convergence metadata
/// are preserved. Decision values of the compact model against the
/// SV-only kernel columns are bitwise-identical to the full model's
/// (same nonzero terms, same accumulation order).
CompactSvc compact_support_vectors(const SvcModel& model);

/// Convenience overload that also gathers the per-SV subset of a
/// training-aligned sequence (e.g. the simulated training MPS states).
template <typename State>
CompactSvc compact_support_vectors(const SvcModel& model,
                                   const std::vector<State>& states,
                                   std::vector<State>* sv_states) {
  QKMPS_CHECK(states.size() == model.alpha.size());
  QKMPS_CHECK(sv_states != nullptr);
  CompactSvc compact = compact_support_vectors(model);
  sv_states->clear();
  sv_states->reserve(compact.sv_indices.size());
  for (idx i : compact.sv_indices)
    sv_states->push_back(states[static_cast<std::size_t>(i)]);
  return compact;
}

}  // namespace qkmps::svm
