#include "svm/svm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace qkmps::svm {

namespace {
constexpr double kTau = 1e-12;  // curvature floor for degenerate pairs
}

SvcModel train_svc(const kernel::RealMatrix& k, const std::vector<int>& y,
                   const SvcParams& params) {
  const idx n = k.rows();
  QKMPS_CHECK(k.cols() == n);
  QKMPS_CHECK(static_cast<idx>(y.size()) == n);
  QKMPS_CHECK(params.c > 0.0);
  for (int label : y) QKMPS_CHECK_MSG(label == 1 || label == -1, "labels must be +/-1");

  SvcModel model;
  model.y = y;
  model.alpha.assign(static_cast<std::size_t>(n), 0.0);
  // grad_i = (Q alpha)_i - 1; starts at -1 with alpha = 0.
  std::vector<double> grad(static_cast<std::size_t>(n), -1.0);

  const auto q = [&](idx i, idx j) {
    return static_cast<double>(y[static_cast<std::size_t>(i)]) *
           static_cast<double>(y[static_cast<std::size_t>(j)]) * k(i, j);
  };

  const double c = params.c;
  long long iter = 0;
  double m_up = 0.0, m_low = 0.0;

  for (; iter < params.max_iter; ++iter) {
    // Working-set selection: maximal violating pair.
    idx i_up = -1, i_low = -1;
    m_up = -std::numeric_limits<double>::infinity();
    m_low = std::numeric_limits<double>::infinity();
    for (idx t = 0; t < n; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      const double yg = -static_cast<double>(y[ts]) * grad[ts];
      const bool in_up = (y[ts] == 1 && model.alpha[ts] < c) ||
                         (y[ts] == -1 && model.alpha[ts] > 0.0);
      const bool in_low = (y[ts] == 1 && model.alpha[ts] > 0.0) ||
                          (y[ts] == -1 && model.alpha[ts] < c);
      if (in_up && yg > m_up) {
        m_up = yg;
        i_up = t;
      }
      if (in_low && yg < m_low) {
        m_low = yg;
        i_low = t;
      }
    }
    if (i_up < 0 || i_low < 0 || m_up - m_low < params.tol) {
      model.converged = true;
      break;
    }

    const idx i = i_up, j = i_low;
    const auto is = static_cast<std::size_t>(i), js = static_cast<std::size_t>(j);
    const double yi = y[is], yj = y[js];

    // Two-variable subproblem along the feasible direction.
    double a = q(i, i) + q(j, j) - 2.0 * yi * yj * q(i, j);
    if (a <= 0.0) a = kTau;
    const double b = m_up - m_low;  // > 0 by selection
    double delta = b / a;

    // Clip to the box; the equality constraint is preserved by moving
    // alpha_i along +y_i and alpha_j along -y_j.
    const double ai_old = model.alpha[is];
    const double aj_old = model.alpha[js];
    double ai = ai_old + yi * delta;
    double aj = aj_old - yj * delta;

    // Project onto [0, C]^2 respecting the line constraint.
    const double sum_i = yi * ai_old + yj * aj_old;
    if (ai < 0.0) ai = 0.0;
    if (ai > c) ai = c;
    aj = yj * (sum_i - yi * ai);
    if (aj < 0.0) {
      aj = 0.0;
      ai = yi * (sum_i - yj * aj);
    }
    if (aj > c) {
      aj = c;
      ai = yi * (sum_i - yj * aj);
    }
    if (ai < 0.0) ai = 0.0;
    if (ai > c) ai = c;

    const double dai = ai - ai_old;
    const double daj = aj - aj_old;
    if (std::abs(dai) < 1e-16 && std::abs(daj) < 1e-16) {
      model.converged = true;  // numerically stuck at the optimum
      break;
    }

    for (idx t = 0; t < n; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      grad[ts] += q(t, i) * dai + q(t, j) * daj;
    }
    model.alpha[is] = ai;
    model.alpha[js] = aj;
  }

  model.iterations = iter;
  // Bias from the midpoint of the violating-pair bounds (exact at
  // convergence when free SVs exist; the standard LIBSVM rho up to sign).
  model.bias = (m_up + m_low) / 2.0;
  return model;
}

namespace {

/// Gathered support list: the alpha_j y_j coefficients and their column
/// indices, in training order. Walking this instead of all of alpha is the
/// SV fast path — O(#SV) per test row — while keeping the accumulation
/// order identical to a skip-zeros scan (bitwise-stable decision values).
struct SupportList {
  std::vector<idx> cols;
  std::vector<double> coeff;  ///< alpha_j * y_j
};

SupportList gather_support(const std::vector<double>& alpha,
                           const std::vector<int>& y) {
  SupportList sv;
  for (std::size_t j = 0; j < alpha.size(); ++j) {
    if (alpha[j] == 0.0) continue;
    sv.cols.push_back(static_cast<idx>(j));
    sv.coeff.push_back(alpha[j] * static_cast<double>(y[j]));
  }
  return sv;
}

}  // namespace

std::vector<double> SvcModel::decision_values(
    const kernel::RealMatrix& k_test) const {
  QKMPS_CHECK(k_test.cols() == static_cast<idx>(alpha.size()));
  const SupportList sv = gather_support(alpha, y);
  std::vector<double> f(static_cast<std::size_t>(k_test.rows()), 0.0);
  for (idx i = 0; i < k_test.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < sv.cols.size(); ++s)
      acc += sv.coeff[s] * k_test(i, sv.cols[s]);
    f[static_cast<std::size_t>(i)] = acc + bias;
  }
  return f;
}

std::vector<int> SvcModel::predict(const kernel::RealMatrix& k_test) const {
  const std::vector<double> f = decision_values(k_test);
  std::vector<int> out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) out[i] = f[i] >= 0.0 ? 1 : -1;
  return out;
}

idx SvcModel::support_vector_count() const {
  return static_cast<idx>(
      std::count_if(alpha.begin(), alpha.end(), [](double a) { return a > 0.0; }));
}

CompactSvc compact_support_vectors(const SvcModel& model) {
  QKMPS_CHECK(model.alpha.size() == model.y.size());
  CompactSvc compact;
  compact.model.bias = model.bias;
  compact.model.iterations = model.iterations;
  compact.model.converged = model.converged;
  for (std::size_t j = 0; j < model.alpha.size(); ++j) {
    if (model.alpha[j] == 0.0) continue;
    compact.model.alpha.push_back(model.alpha[j]);
    compact.model.y.push_back(model.y[j]);
    compact.sv_indices.push_back(static_cast<idx>(j));
  }
  return compact;
}

}  // namespace qkmps::svm
