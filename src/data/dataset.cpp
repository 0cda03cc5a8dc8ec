#include "data/dataset.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace qkmps::data {

idx Dataset::positives() const {
  return static_cast<idx>(std::count(y.begin(), y.end(), 1));
}

idx Dataset::negatives() const {
  return static_cast<idx>(std::count(y.begin(), y.end(), -1));
}

Dataset Dataset::select(const std::vector<idx>& rows) const {
  Dataset out;
  out.x = kernel::RealMatrix::for_overwrite(static_cast<idx>(rows.size()), x.cols());
  out.y.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const idx src = rows[i];
    QKMPS_CHECK(src >= 0 && src < x.rows());
    std::copy(x.row(src), x.row(src) + x.cols(), out.x.row(static_cast<idx>(i)));
    out.y[i] = y[static_cast<std::size_t>(src)];
  }
  return out;
}

Dataset Dataset::with_features(idx k) const {
  QKMPS_CHECK(k >= 1 && k <= x.cols());
  Dataset out;
  out.x = kernel::RealMatrix::for_overwrite(x.rows(), k);
  out.y = y;
  for (idx i = 0; i < x.rows(); ++i) std::copy(x.row(i), x.row(i) + k, out.x.row(i));
  return out;
}

}  // namespace qkmps::data
