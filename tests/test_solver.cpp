#include <gtest/gtest.h>

#include <cmath>

#include "c2b/solver/grid.h"
#include "c2b/solver/lagrange.h"
#include "c2b/solver/minimize.h"
#include "c2b/solver/newton.h"

namespace c2b {
namespace {

// ---------------------------------------------------------------------------
// Newton

TEST(Newton, SolvesLinearSystemInOneStep) {
  // F(x) = A x - b with A = [[2,1],[1,3]], b = [3,5].
  ResidualFn f = [](const Vector& x) {
    return Vector{2 * x[0] + x[1] - 3.0, x[0] + 3 * x[1] - 5.0};
  };
  const NewtonResult r = newton_solve(f, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.8, 1e-8);
  EXPECT_NEAR(r.x[1], 1.4, 1e-8);
  EXPECT_LE(r.iterations, 3);
}

TEST(Newton, SolvesNonlinearSystem) {
  // x^2 + y^2 = 4, x y = 1 (first-quadrant root).
  ResidualFn f = [](const Vector& v) {
    return Vector{v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0};
  };
  const NewtonResult r = newton_solve(f, {2.0, 0.3});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0] * r.x[0] + r.x[1] * r.x[1], 4.0, 1e-7);
  EXPECT_NEAR(r.x[0] * r.x[1], 1.0, 1e-7);
}

TEST(Newton, ScalarCubeRoot) {
  ResidualFn f = [](const Vector& v) { return Vector{v[0] * v[0] * v[0] - 27.0}; };
  const NewtonResult r = newton_solve(f, {5.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 3.0, 1e-7);
}

TEST(Newton, ReportsSingularJacobian) {
  ResidualFn f = [](const Vector& v) { return Vector{0.0 * v[0] + 1.0}; };  // F' == 0
  const NewtonResult r = newton_solve(f, {1.0});
  EXPECT_FALSE(r.converged);
}

TEST(Newton, NumericJacobianMatchesAnalytic) {
  ResidualFn f = [](const Vector& v) {
    return Vector{std::sin(v[0]) + v[1], v[0] * v[1]};
  };
  const Vector x{0.7, -1.2};
  const Matrix j = numeric_jacobian(f, x);
  EXPECT_NEAR(j(0, 0), std::cos(0.7), 1e-6);
  EXPECT_NEAR(j(0, 1), 1.0, 1e-6);
  EXPECT_NEAR(j(1, 0), -1.2, 1e-6);
  EXPECT_NEAR(j(1, 1), 0.7, 1e-6);
}

// ---------------------------------------------------------------------------
// Simplex minimizer

TEST(NelderMead, Rosenbrock2D) {
  MultiFn rosenbrock = [](const Vector& v) {
    const double a = 1.0 - v[0];
    const double b = v[1] - v[0] * v[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iterations = 5000;
  const auto r = nelder_mead_minimize(rosenbrock, {-1.2, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, Quadratic3D) {
  MultiFn f = [](const Vector& v) {
    return (v[0] - 1) * (v[0] - 1) + 2 * (v[1] + 2) * (v[1] + 2) + 0.5 * v[2] * v[2];
  };
  const auto r = nelder_mead_minimize(f, {0.0, 0.0, 5.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], -2.0, 1e-4);
  EXPECT_NEAR(r.x[2], 0.0, 1e-4);
}

// ---------------------------------------------------------------------------
// Grid space

GridSpace small_space() {
  return GridSpace({GridAxis{"x", {1.0, 2.0, 3.0}}, GridAxis{"y", {10.0, 20.0}}});
}

TEST(GridSpace, SizeAndDecode) {
  const GridSpace g = small_space();
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.point(0), (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(g.point(5), (std::vector<double>{3.0, 20.0}));
  EXPECT_EQ(g.axis_index("y"), 1u);
  EXPECT_THROW(g.axis_index("z"), std::invalid_argument);
}

TEST(GridSpace, FlatIndexRoundTrip) {
  const GridSpace g = small_space();
  for (std::size_t flat = 0; flat < g.size(); ++flat)
    EXPECT_EQ(g.flat_index(g.indices(flat)), flat);
}

TEST(GridSpace, ForEachVisitsAllInOrder) {
  const GridSpace g = small_space();
  std::size_t expected = 0;
  g.for_each([&](std::size_t flat, const std::vector<double>& values) {
    EXPECT_EQ(flat, expected++);
    EXPECT_EQ(values, g.point(flat));
  });
  EXPECT_EQ(expected, g.size());
}

TEST(GridSpace, ForEachRangeVisitsExactlyTheRequestedIndices) {
  const GridSpace g = small_space();
  ASSERT_GE(g.size(), 4u);
  std::size_t expected = 1;
  g.for_each(1, g.size() - 1, [&](std::size_t flat, const std::vector<double>& values) {
    EXPECT_EQ(flat, expected++);
    EXPECT_EQ(values, g.point(flat));
  });
  EXPECT_EQ(expected, g.size() - 1);
}

TEST(GridSpace, ForEachRangeHandlesBounds) {
  const GridSpace g = small_space();
  // Empty ranges are no-ops, including at the extremes.
  std::size_t visits = 0;
  auto count = [&](std::size_t, const std::vector<double>&) { ++visits; };
  g.for_each(0, 0, count);
  g.for_each(g.size(), g.size(), count);
  EXPECT_EQ(visits, 0u);
  // Full range matches the no-argument overload.
  g.for_each(0, g.size(), count);
  EXPECT_EQ(visits, g.size());
  // Invalid ranges are rejected.
  EXPECT_THROW(g.for_each(2, 1, count), std::invalid_argument);
  EXPECT_THROW(g.for_each(0, g.size() + 1, count), std::invalid_argument);
}

TEST(GridSpace, ForEachRangeConcatenationCoversWholeSpace) {
  const GridSpace g = small_space();
  std::vector<std::size_t> seen;
  const std::size_t mid = g.size() / 2;
  auto record = [&](std::size_t flat, const std::vector<double>&) { seen.push_back(flat); };
  g.for_each(0, mid, record);
  g.for_each(mid, g.size(), record);
  ASSERT_EQ(seen.size(), g.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(GridSpace, NeighborhoodClipsAtBorders) {
  const GridSpace g = small_space();
  const auto corner = g.neighborhood(0, 1);
  EXPECT_EQ(corner.size(), 4u);  // 2x2 block
  const auto center = g.neighborhood(g.flat_index({1, 0}), 1);
  EXPECT_EQ(center.size(), 6u);  // 3x2 block
}

TEST(GridSpace, NeighborhoodRadiusZeroIsJustTheCenter) {
  const GridSpace g = small_space();
  for (std::size_t flat = 0; flat < g.size(); ++flat) {
    const auto n = g.neighborhood(flat, 0);
    ASSERT_EQ(n.size(), 1u);
    EXPECT_EQ(n[0], flat);
  }
}

TEST(GridSpace, NeighborhoodRadiusCoveringEveryAxisIsTheWholeSpace) {
  const GridSpace g = small_space();
  // Radius >= the longest axis clamps to the full range on every axis, so
  // the neighborhood of any center enumerates the entire space in flat
  // (row-major) order.
  for (const std::size_t radius : {std::size_t{3}, std::size_t{100}}) {
    const auto n = g.neighborhood(g.flat_index({1, 1}), radius);
    ASSERT_EQ(n.size(), g.size());
    for (std::size_t i = 0; i < n.size(); ++i) EXPECT_EQ(n[i], i);
  }
}

TEST(GridSpace, NeighborhoodCornerCenters) {
  const GridSpace g = small_space();  // 3 x 2
  // Last flat index: center {2, 1}; radius 1 clips to the {1,2} x {0,1}
  // block.
  const auto last = g.neighborhood(g.size() - 1, 1);
  const std::vector<std::size_t> expected{g.flat_index({1, 0}), g.flat_index({1, 1}),
                                          g.flat_index({2, 0}), g.flat_index({2, 1})};
  EXPECT_EQ(last, expected);
  // A single-point space is its own neighborhood at any radius.
  const GridSpace one({GridAxis{"x", {7.0}}});
  EXPECT_EQ(one.neighborhood(0, 0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(one.neighborhood(0, 5), (std::vector<std::size_t>{0}));
}

TEST(GridSpace, NearestSnapsPerAxis) {
  const GridSpace g = small_space();
  const std::size_t flat = g.nearest({2.4, 19.0});
  EXPECT_EQ(g.point(flat), (std::vector<double>{2.0, 20.0}));
}

// ---------------------------------------------------------------------------
// Lagrange

TEST(Lagrange, QuadraticWithLinearConstraint) {
  // min x^2 + y^2 s.t. x + y = 2  ->  x = y = 1, lambda = -2.
  ScalarField f = [](const Vector& v) { return v[0] * v[0] + v[1] * v[1]; };
  ScalarField g = [](const Vector& v) { return v[0] + v[1] - 2.0; };
  const LagrangeResult r = lagrange_stationary_point(f, {g}, {0.3, 0.9});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_NEAR(r.lambda[0], -2.0, 1e-5);
  EXPECT_NEAR(r.objective, 2.0, 1e-8);
}

TEST(Lagrange, CircleConstraintMaxAndMin) {
  // Stationary points of x + y on x^2 + y^2 = 2 are (1,1) and (-1,-1); from
  // a start near (1,1) Newton lands on that one.
  ScalarField f = [](const Vector& v) { return v[0] + v[1]; };
  ScalarField g = [](const Vector& v) { return v[0] * v[0] + v[1] * v[1] - 2.0; };
  const LagrangeResult r = lagrange_stationary_point(f, {g}, {0.9, 1.1});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(std::fabs(r.x[0]), 1.0, 1e-5);
  EXPECT_NEAR(r.x[0], r.x[1], 1e-5);
}

TEST(Lagrange, GradientHelper) {
  ScalarField f = [](const Vector& v) { return v[0] * v[0] * v[1]; };
  const Vector grad = numeric_gradient(f, {2.0, 3.0});
  EXPECT_NEAR(grad[0], 12.0, 1e-5);
  EXPECT_NEAR(grad[1], 4.0, 1e-5);
}

}  // namespace
}  // namespace c2b
