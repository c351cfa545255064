#include "c2b/linalg/matrix.h"

#include <cmath>
#include <stdexcept>

namespace c2b {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    C2B_REQUIRE(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  C2B_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  C2B_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  C2B_REQUIRE(a.cols_ == b.rows_, "matrix shape mismatch in *");
  Matrix out(a.rows_, b.cols_, 0.0);
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols_;
      double* orow = out.data() + i * out.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  C2B_REQUIRE(a.cols_ == x.size(), "matrix/vector shape mismatch");
  Vector out(a.rows_, 0.0);
  for (std::size_t i = 0; i < a.rows_; ++i) {
    const double* row = a.data() + i * a.cols_;
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols_; ++j) sum += row[j] * x[j];
    out[i] = sum;
  }
  return out;
}

double norm_inf(const Vector& v) noexcept {
  double best = 0.0;
  for (const double x : v) best = std::max(best, std::fabs(x));
  return best;
}

Vector axpy(double alpha, const Vector& x, const Vector& y) {
  C2B_REQUIRE(x.size() == y.size(), "axpy of different-length vectors");
  Vector out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = alpha * x[i] + y[i];
  return out;
}

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)), pivot_(lu_.rows()) {
  C2B_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) pivot_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining entry to the diagonal.
    std::size_t best_row = col;
    double best = std::fabs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, col));
      if (mag > best) {
        best = mag;
        best_row = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error("LuDecomposition: matrix is singular");
    if (best_row != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(col, c), lu_(best_row, c));
      std::swap(pivot_[col], pivot_[best_row]);
      pivot_sign_ = -pivot_sign_;
    }
    const double diag = lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) / diag;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) lu_(r, c) -= factor * lu_(col, c);
    }
  }
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  C2B_REQUIRE(b.size() == n, "rhs length must match matrix dimension");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[pivot_[i]];
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 1; i < n; ++i) {
    double sum = x[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum;
  }
  // Back substitution with upper triangle.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu_(ii, j) * x[j];
    x[ii] = sum / lu_(ii, ii);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  C2B_REQUIRE(b.rows() == lu_.rows(), "rhs rows must match matrix dimension");
  Matrix out(b.rows(), b.cols());
  Vector column(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, c);
    const Vector solved = solve(column);
    for (std::size_t r = 0; r < b.rows(); ++r) out(r, c) = solved[r];
  }
  return out;
}

double LuDecomposition::determinant() const noexcept {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

Vector lu_solve(Matrix a, const Vector& b) { return LuDecomposition(std::move(a)).solve(b); }

}  // namespace c2b
