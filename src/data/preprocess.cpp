#include "data/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace qkmps::data {

FeatureScaler FeatureScaler::fit(const kernel::RealMatrix& x, double lo,
                                 double hi) {
  QKMPS_CHECK(x.rows() >= 2 && x.cols() >= 1);
  QKMPS_CHECK(hi > lo);
  const idx n = x.rows(), m = x.cols();

  FeatureScaler s;
  s.lo_ = lo;
  s.hi_ = hi;
  s.mean_.assign(static_cast<std::size_t>(m), 0.0);
  s.stddev_.assign(static_cast<std::size_t>(m), 0.0);
  s.min_z_.assign(static_cast<std::size_t>(m), 0.0);
  s.max_z_.assign(static_cast<std::size_t>(m), 0.0);

  for (idx j = 0; j < m; ++j) {
    double mean = 0.0;
    for (idx i = 0; i < n; ++i) mean += x(i, j);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (idx i = 0; i < n; ++i) {
      const double d = x(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const double sd = std::sqrt(var);
    s.mean_[static_cast<std::size_t>(j)] = mean;
    // Constant features map to the interval midpoint via stddev 1.
    s.stddev_[static_cast<std::size_t>(j)] = sd > 0.0 ? sd : 1.0;

    double zmin = 0.0, zmax = 0.0;
    bool first = true;
    for (idx i = 0; i < n; ++i) {
      const double z = (x(i, j) - mean) / s.stddev_[static_cast<std::size_t>(j)];
      if (first) {
        zmin = zmax = z;
        first = false;
      } else {
        zmin = std::min(zmin, z);
        zmax = std::max(zmax, z);
      }
    }
    if (zmax == zmin) zmax = zmin + 1.0;
    s.min_z_[static_cast<std::size_t>(j)] = zmin;
    s.max_z_[static_cast<std::size_t>(j)] = zmax;
  }
  return s;
}

FeatureScaler FeatureScaler::restore(std::vector<double> mean,
                                     std::vector<double> stddev,
                                     std::vector<double> min_z,
                                     std::vector<double> max_z, double lo,
                                     double hi) {
  QKMPS_CHECK(!mean.empty());
  QKMPS_CHECK(stddev.size() == mean.size() && min_z.size() == mean.size() &&
              max_z.size() == mean.size());
  // hi - lo must be finite too: infinite bounds (or finite ones whose
  // span overflows) make transform() emit inf/NaN angles. NaN bounds
  // already fail hi > lo.
  QKMPS_CHECK_MSG(hi > lo && std::isfinite(hi - lo),
                  "scaler bounds [" << lo << ", " << hi
                                    << "] are not a finite interval");
  for (std::size_t j = 0; j < mean.size(); ++j) {
    QKMPS_CHECK_MSG(std::isfinite(mean[j]) && std::isfinite(stddev[j]) &&
                        std::isfinite(min_z[j]) && std::isfinite(max_z[j]),
                    "non-finite scaler state");
    QKMPS_CHECK_MSG(stddev[j] > 0.0, "non-positive stddev in scaler state");
    QKMPS_CHECK_MSG(max_z[j] > min_z[j], "degenerate z-range in scaler state");
  }
  FeatureScaler s;
  s.mean_ = std::move(mean);
  s.stddev_ = std::move(stddev);
  s.min_z_ = std::move(min_z);
  s.max_z_ = std::move(max_z);
  s.lo_ = lo;
  s.hi_ = hi;
  return s;
}

kernel::RealMatrix FeatureScaler::transform(const kernel::RealMatrix& x) const {
  QKMPS_CHECK(x.cols() == num_features());
  kernel::RealMatrix out(x.rows(), x.cols());
  // Open-interval margin: the ansatz coefficients (1 - x_i) vanish at
  // x_i == 1, and angles at the boundary degenerate to Pauli gates, so we
  // keep a small inset exactly like the paper's (0, 2) open interval.
  const double inset = 1e-3;
  const double lo = lo_ + inset, hi = hi_ - inset;
  for (idx j = 0; j < x.cols(); ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double span = max_z_[js] - min_z_[js];
    for (idx i = 0; i < x.rows(); ++i) {
      const double z = (x(i, j) - mean_[js]) / stddev_[js];
      double t = (z - min_z_[js]) / span;  // [0,1] on train, maybe outside on test
      t = std::clamp(t, 0.0, 1.0);
      out(i, j) = lo + t * (hi - lo);
    }
  }
  return out;
}

}  // namespace qkmps::data
