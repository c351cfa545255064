#include "c2b/linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "c2b/common/rng.h"

namespace c2b {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 1), 8.0);
  EXPECT_THROW(a += Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, MatrixProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 50.0);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(VectorOps, NormInfAndAxpy) {
  const Vector a{1.0, 2.0, 2.0};
  const Vector b{2.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(norm_inf(b), 2.0);
  const Vector c = axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(c[0], 4.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = lu_solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = lu_solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, std::runtime_error);
}

TEST(Lu, NonSquareThrows) { EXPECT_THROW(LuDecomposition{Matrix(2, 3)}, std::invalid_argument); }

TEST(Lu, Determinant) {
  Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 6.0, 1e-12);
  Matrix swapped{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuDecomposition(swapped).determinant(), -1.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + trial % 6;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    for (std::size_t d = 0; d < n; ++d) a(d, d) += 3.0;  // keep well-conditioned
    Vector x_true(n);
    for (double& v : x_true) v = rng.normal();
    const Vector b = a * x_true;
    const Vector x = lu_solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(Lu, MatrixRhsSolve) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  const Matrix inv = LuDecomposition(a).solve(Matrix::identity(2));
  EXPECT_NEAR(inv(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.25, 1e-12);
}

}  // namespace
}  // namespace c2b
