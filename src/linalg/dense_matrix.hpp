#pragma once

#include <cstddef>
#include <vector>

namespace nvp::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles. Sized for the moderate state spaces of
/// the DSPN analyses (tens to a few thousand states). The matrix product is
/// a register-tiled kernel on two-lane vectors whose output is bit-identical
/// to the plain i-k-j loop (see multiply_into); everything else is plain
/// loops.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows x cols matrix initialized to `fill`.
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Identity matrix of size n.
  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (row-major contiguous).
  double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  DenseMatrix& operator+=(const DenseMatrix& other);
  DenseMatrix& operator-=(const DenseMatrix& other);
  DenseMatrix& operator*=(double scalar);

  /// Matrix product (this * other). Requires conforming shapes.
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// out = this * other, into a buffer the caller owns (reshaped only when
  /// its shape differs). `out` must be neither operand. Each element sums
  /// a(i, k) * b(k, j) for k ascending from +0, so the result has the same
  /// bits as the textbook i-k-j loop for finite inputs.
  void multiply_into(const DenseMatrix& other, DenseMatrix& out) const;

  /// Matrix-vector product y = A x.
  Vector multiply(const Vector& x) const;

  /// Row-vector-matrix product y = x^T A (the natural operation for
  /// probability-vector propagation).
  Vector left_multiply(const Vector& x) const;

  /// Transposed copy.
  DenseMatrix transposed() const;

  /// max |a_ij|.
  double max_abs() const;

  /// True if all entries are finite.
  bool all_finite() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm.
double norm2(const Vector& v);
/// Max-norm.
double norm_inf(const Vector& v);
/// Sum of entries.
double sum(const Vector& v);
/// Dot product; requires equal sizes.
double dot(const Vector& a, const Vector& b);
/// Scales v so its entries sum to 1. Requires a nonzero sum.
void normalize_l1(Vector& v);

}  // namespace nvp::linalg
