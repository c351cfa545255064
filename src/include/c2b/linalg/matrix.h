#pragma once

// Dense row-major matrix with the small set of operations the Newton /
// Lagrange machinery needs: arithmetic, norms, LU solves. Sized for the
// library's use case (systems of a handful of unknowns up to ANN weight
// matrices of a few thousand entries) — clarity over BLAS-level tuning,
// but contiguous storage and cache-friendly loops throughout.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "c2b/common/assert.h"

namespace c2b {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested braces: Matrix m{{1,2},{3,4}};
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    C2B_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    C2B_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Raw contiguous storage (row-major) for tight loops.
  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) noexcept { return a *= s; }
  friend Matrix operator*(double s, Matrix a) noexcept { return a *= s; }

  /// Matrix-matrix product (ikj loop order for cache friendliness).
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  /// Matrix-vector product.
  friend Vector operator*(const Matrix& a, const Vector& x);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Vector helpers.
double norm_inf(const Vector& v) noexcept;
Vector axpy(double alpha, const Vector& x, const Vector& y);  // alpha*x + y

/// LU factorization with partial pivoting of a square matrix.
/// Throws std::runtime_error on (numerical) singularity.
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix a);

  /// Solve A x = b for one right-hand side.
  Vector solve(const Vector& b) const;
  /// Solve with a matrix right-hand side (columns solved independently).
  Matrix solve(const Matrix& b) const;

  double determinant() const noexcept;

 private:
  Matrix lu_;
  std::vector<std::size_t> pivot_;
  int pivot_sign_ = 1;
};

/// Convenience one-shot solve of A x = b.
Vector lu_solve(Matrix a, const Vector& b);

}  // namespace c2b
