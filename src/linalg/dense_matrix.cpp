#include "src/linalg/dense_matrix.hpp"

#include <cmath>
#include <cstring>

#include "src/util/contracts.hpp"

namespace nvp::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix& DenseMatrix::operator+=(const DenseMatrix& other) {
  NVP_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

DenseMatrix& DenseMatrix::operator-=(const DenseMatrix& other) {
  NVP_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

DenseMatrix& DenseMatrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

namespace {

// Two doubles in one SSE2 register (GCC/Clang vector extension): lane-wise
// IEEE multiply and add, exactly the scalar operations per element.
typedef double Pair __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

Pair splat(double x) { return Pair{x, x}; }

}  // namespace

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  DenseMatrix out;
  multiply_into(other, out);
  return out;
}

void DenseMatrix::multiply_into(const DenseMatrix& other,
                                DenseMatrix& out) const {
  NVP_EXPECTS(cols_ == other.rows_);
  NVP_EXPECTS(&out != this && &out != &other);
  const std::size_t rows = rows_, inner = cols_, cols = other.cols_;
  if (out.rows_ != rows || out.cols_ != cols) out = DenseMatrix(rows, cols);

  // Register-tiled 4 x 4 kernel over a packed 4-column panel of `other`.
  // Every output element is the sum of a(i, k) * b(k, j) for k ascending,
  // starting from +0: the order of the plain i-k-j loop. That loop skipped
  // zero a(i, k); adding the resulting +-0 products leaves a sum unchanged
  // (the sum is never -0), so both produce the same bits for finite inputs.
  std::vector<double> panel(4 * inner);
  std::size_t j0 = 0;
  for (; j0 + 4 <= cols; j0 += 4) {
    for (std::size_t k = 0; k < inner; ++k)
      std::memcpy(&panel[4 * k], other.row_data(k) + j0, 4 * sizeof(double));
    std::size_t i0 = 0;
    for (; i0 + 4 <= rows; i0 += 4) {
      const double* a0 = row_data(i0);
      const double* a1 = a0 + inner;
      const double* a2 = a1 + inner;
      const double* a3 = a2 + inner;
      Pair c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      for (std::size_t k = 0; k < inner; ++k) {
        const Pair b0 = load_pair(&panel[4 * k]);
        const Pair b1 = load_pair(&panel[4 * k + 2]);
        const Pair x0 = splat(a0[k]), x1 = splat(a1[k]);
        const Pair x2 = splat(a2[k]), x3 = splat(a3[k]);
        c00 += x0 * b0;
        c01 += x0 * b1;
        c10 += x1 * b0;
        c11 += x1 * b1;
        c20 += x2 * b0;
        c21 += x2 * b1;
        c30 += x3 * b0;
        c31 += x3 * b1;
      }
      store_pair(out.row_data(i0) + j0, c00);
      store_pair(out.row_data(i0) + j0 + 2, c01);
      store_pair(out.row_data(i0 + 1) + j0, c10);
      store_pair(out.row_data(i0 + 1) + j0 + 2, c11);
      store_pair(out.row_data(i0 + 2) + j0, c20);
      store_pair(out.row_data(i0 + 2) + j0 + 2, c21);
      store_pair(out.row_data(i0 + 3) + j0, c30);
      store_pair(out.row_data(i0 + 3) + j0 + 2, c31);
    }
    for (; i0 < rows; ++i0) {
      const double* a = row_data(i0);
      Pair c0{}, c1{};
      for (std::size_t k = 0; k < inner; ++k) {
        const Pair x = splat(a[k]);
        c0 += x * load_pair(&panel[4 * k]);
        c1 += x * load_pair(&panel[4 * k + 2]);
      }
      store_pair(out.row_data(i0) + j0, c0);
      store_pair(out.row_data(i0) + j0 + 2, c1);
    }
  }
  // Trailing columns (cols % 4), same summation order.
  for (std::size_t i = 0; i < rows; ++i) {
    const double* a = row_data(i);
    for (std::size_t j = j0; j < cols; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < inner; ++k) sum += a[k] * other(k, j);
      out(i, j) = sum;
    }
  }
}

Vector DenseMatrix::multiply(const Vector& x) const {
  NVP_EXPECTS(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = row_data(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
  return y;
}

Vector DenseMatrix::left_multiply(const Vector& x) const {
  NVP_EXPECTS(x.size() == rows_);
  Vector y(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* row = row_data(i);
    for (std::size_t j = 0; j < cols_; ++j) y[j] += xi * row[j];
  }
  return y;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

double DenseMatrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool DenseMatrix::all_finite() const {
  for (double v : data_)
    if (!std::isfinite(v)) return false;
  return true;
}

double norm2(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double sum(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double dot(const Vector& a, const Vector& b) {
  NVP_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void normalize_l1(Vector& v) {
  const double s = sum(v);
  NVP_EXPECTS_MSG(s != 0.0, "normalize_l1: zero-sum vector");
  for (double& x : v) x /= s;
}

}  // namespace nvp::linalg
