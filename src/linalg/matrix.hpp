#pragma once

#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace qkmps::linalg {

/// Dense row-major complex matrix. This is the workhorse value type of the
/// simulator: MPS site tensors are matricized into `Matrix` views for every
/// contraction and decomposition (see tensor/ and mps/).
class Matrix {
 public:
  Matrix() = default;
  Matrix(idx rows, idx cols) : rows_(rows), cols_(cols), a_(check_size(rows, cols)) {}
  Matrix(idx rows, idx cols, cplx fill)
      : rows_(rows), cols_(cols), a_(check_size(rows, cols), fill) {}

  static Matrix identity(idx n);
  /// Zero matrix helper for readability at call sites.
  static Matrix zeros(idx rows, idx cols) { return Matrix(rows, cols); }

  /// Reshape to rows x cols with every entry zeroed. Reuses the existing
  /// heap block whenever capacity allows — the primitive the gate sweep's
  /// scratch (mps/gate_application.hpp) relies on to avoid per-gate churn.
  void resize(idx rows, idx cols) {
    const std::size_t n = check_size(rows, cols);
    rows_ = rows;
    cols_ = cols;
    a_.assign(n, cplx(0.0));
  }

  /// Reshape to rows x cols WITHOUT zeroing: existing storage is kept and
  /// any grown tail is value-initialized by the vector, but entries carry
  /// whatever the previous use left behind. Only for buffers the caller
  /// fully overwrites before reading (staging/permute scratch, SVD factor
  /// outputs) — it removes the O(rows*cols) clear from the hot path.
  void resize_for_overwrite(idx rows, idx cols) {
    const std::size_t n = check_size(rows, cols);
    rows_ = rows;
    cols_ = cols;
    a_.resize(n);
  }

  /// Shrink the logical shape in place. The caller must have already
  /// compacted the first rows*cols storage slots into row-major order for
  /// the new shape; no elements are moved here and capacity is retained.
  void shrink_to(idx rows, idx cols) {
    const std::size_t n = check_size(rows, cols);
    QKMPS_CHECK(n <= a_.size());
    rows_ = rows;
    cols_ = cols;
    a_.resize(n);
  }

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  idx size() const { return rows_ * cols_; }
  bool empty() const { return a_.empty(); }

  cplx& operator()(idx i, idx j) { return a_[static_cast<std::size_t>(i * cols_ + j)]; }
  const cplx& operator()(idx i, idx j) const {
    return a_[static_cast<std::size_t>(i * cols_ + j)];
  }

  cplx* data() { return a_.data(); }
  const cplx* data() const { return a_.data(); }
  cplx* row(idx i) { return a_.data() + i * cols_; }
  const cplx* row(idx i) const { return a_.data() + i * cols_; }

  /// Conjugate transpose.
  Matrix adjoint() const;
  /// Plain transpose (no conjugation).
  Matrix transpose() const;
  /// Elementwise conjugate.
  Matrix conj() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(cplx scale);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, cplx s) { return a *= s; }
  friend Matrix operator*(cplx s, Matrix a) { return a *= s; }

 private:
  static std::size_t check_size(idx rows, idx cols) {
    QKMPS_CHECK(rows >= 0 && cols >= 0);
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  idx rows_ = 0;
  idx cols_ = 0;
  std::vector<cplx> a_;
};

/// Max |A_ij - B_ij|; used pervasively in tests.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace qkmps::linalg
