// Property tests for the solver layer: Newton on random well-conditioned
// quadratic systems — randomized inputs, deterministic seeds.

#include <gtest/gtest.h>

#include <cmath>

#include "c2b/check/property.h"
#include "c2b/solver/newton.h"

namespace c2b {
namespace {

// Random strictly diagonally dominant SPD-ish quadratic residual
// F(x) = A (x - x*) with condition kept small, so damped Newton must
// converge to x* from a nearby start.
struct QuadraticSystem {
  Matrix a;
  Vector solution;
  Vector start;
};

QuadraticSystem gen_quadratic(Rng& rng, std::size_t dim) {
  QuadraticSystem q;
  q.a = Matrix(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    double off_sum = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      if (i == j) continue;
      q.a(i, j) = rng.uniform(-1.0, 1.0);
      off_sum += std::abs(q.a(i, j));
    }
    // Strict diagonal dominance bounds the condition number away from
    // singular, which is what "well-conditioned" means here.
    q.a(i, i) = off_sum + rng.uniform(1.0, 3.0);
  }
  q.solution = Vector(dim);
  q.start = Vector(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    q.solution[i] = rng.uniform(-5.0, 5.0);
    q.start[i] = q.solution[i] + rng.uniform(-2.0, 2.0);
  }
  return q;
}

TEST(SolverProps, NewtonConvergesOnRandomQuadratics) {
  check::Property<QuadraticSystem> p;
  p.name = "newton_quadratic_convergence";
  p.generate = [](Rng& rng) {
    return gen_quadratic(rng, static_cast<std::size_t>(rng.uniform_int(1, 4)));
  };
  p.holds = [](const QuadraticSystem& q) -> std::optional<std::string> {
    const ResidualFn residual = [&](const Vector& x) {
      Vector out(q.solution.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = 0.0;
        for (std::size_t j = 0; j < out.size(); ++j)
          out[i] += q.a(i, j) * (x[j] - q.solution[j]);
      }
      return out;
    };
    const NewtonResult result = newton_solve(residual, q.start);
    if (!result.converged) return std::string("did not converge: ") + result.message;
    for (std::size_t i = 0; i < q.solution.size(); ++i)
      if (std::abs(result.x[i] - q.solution[i]) > 1e-6)
        return "x[" + std::to_string(i) + "] off by " +
               std::to_string(std::abs(result.x[i] - q.solution[i]));
    return std::nullopt;
  };

  check::CheckOptions options;
  options.seed = 42;
  options.cases = 100;
  const check::CheckResult result = check::check(p, check::options_from_env(options));
  EXPECT_TRUE(result.passed) << result.summary();
}

}  // namespace
}  // namespace c2b
