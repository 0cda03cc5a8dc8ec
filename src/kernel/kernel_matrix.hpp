#pragma once

#include <memory>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace qkmps::kernel {

namespace detail {

/// std::allocator whose size-only construct default-initialises: a
/// vector<double> grown by resize(n) leaves its new entries unwritten
/// instead of zeroing them. Construction from a value is unchanged:
/// std::allocator_traits constructs in place when the allocator has no
/// construct for those arguments.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) {
    std::uninitialized_default_construct_n(p, 1);
  }
};

}  // namespace detail

/// Dense real matrix used for kernel/Gram matrices and raw feature data.
/// Row-major, double precision.
class RealMatrix {
 public:
  RealMatrix() = default;
  /// A rows x cols matrix of zeros.
  RealMatrix(idx rows, idx cols)
      : rows_(rows), cols_(cols), a_(checked_size(rows, cols), 0.0) {}

  /// A rows x cols matrix whose entries are left unwritten, for a caller
  /// that writes every entry before it reads any. Nothing touches the
  /// storage here, so each page is first touched by whoever writes it:
  /// lanes that fill disjoint rows fault their pages in in parallel, and
  /// a row copy writes its destination once instead of twice.
  static RealMatrix for_overwrite(idx rows, idx cols) {
    RealMatrix m;
    m.a_.resize(checked_size(rows, cols));
    m.rows_ = rows;
    m.cols_ = cols;
    return m;
  }

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }

  double& operator()(idx i, idx j) {
    return a_[static_cast<std::size_t>(i * cols_ + j)];
  }
  const double& operator()(idx i, idx j) const {
    return a_[static_cast<std::size_t>(i * cols_ + j)];
  }

  double* data() { return a_.data(); }
  const double* data() const { return a_.data(); }
  double* row(idx i) { return a_.data() + i * cols_; }
  const double* row(idx i) const { return a_.data() + i * cols_; }

 private:
  static std::size_t checked_size(idx rows, idx cols) {
    QKMPS_CHECK(rows >= 0 && cols >= 0);
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  idx rows_ = 0;
  idx cols_ = 0;
  std::vector<double, detail::DefaultInitAllocator<double>> a_;
};

/// Max |A_ij - B_ij|.
double max_abs_diff(const RealMatrix& a, const RealMatrix& b);

/// Symmetry defect max |K_ij - K_ji| (training Gram matrices must be
/// symmetric).
double symmetry_defect(const RealMatrix& k);

}  // namespace qkmps::kernel
