#include "c2b/solver/minimize.h"

#include <algorithm>
#include <cmath>

#include "c2b/common/assert.h"
#include "c2b/linalg/matrix.h"
#include "c2b/obs/obs.h"

namespace c2b {

namespace {

/// log10 of |det| of the simplex's edge matrix — a volume proxy tracking
/// simplex collapse. Degenerate (singular) simplices record the floor.
double log10_simplex_volume(const std::vector<Vector>& simplex) {
  const std::size_t n = simplex.size() - 1;
  Matrix edges(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t d = 0; d < n; ++d) edges(i, d) = simplex[i + 1][d] - simplex[0][d];
  try {
    const double abs_det = std::fabs(LuDecomposition(std::move(edges)).determinant());
    return abs_det > 0.0 ? std::log10(abs_det) : -320.0;
  } catch (const std::runtime_error&) {
    return -320.0;
  }
}

}  // namespace

NelderMeadResult nelder_mead_minimize(const MultiFn& f, Vector x0,
                                      const NelderMeadOptions& options) {
  C2B_REQUIRE(!x0.empty(), "nelder-mead needs a non-empty start point");
  C2B_SPAN("solver/nelder_mead");
  C2B_COUNTER_INC("solver.nm.calls");
  const std::size_t n = x0.size();

  // Initial simplex: x0 plus one perturbed vertex per dimension.
  std::vector<Vector> simplex;
  simplex.reserve(n + 1);
  simplex.push_back(x0);
  for (std::size_t i = 0; i < n; ++i) {
    Vector v = x0;
    const double step = options.initial_step * std::max(1.0, std::fabs(v[i]));
    v[i] += step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) values[i] = f(simplex[i]);

  NelderMeadResult result;
  std::vector<std::size_t> order(n + 1);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    result.iterations = iter;
    C2B_COUNTER_INC("solver.nm.iterations");
    C2B_HISTOGRAM_RECORD("solver.nm.log10_simplex_volume", -320.0, 20.0, 68,
                         log10_simplex_volume(simplex));
    if (std::fabs(values[worst] - values[best]) <=
        options.tolerance * (std::fabs(values[best]) + options.tolerance)) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    Vector centroid(n, 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto along = [&](double coeff) {
      Vector v(n);
      for (std::size_t d = 0; d < n; ++d)
        v[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
      return v;
    };

    const Vector reflected = along(1.0);
    const double fr = f(reflected);
    if (fr < values[best]) {
      const Vector expanded = along(2.0);
      const double fe = f(expanded);
      if (fe < fr) {
        simplex[worst] = expanded;
        values[worst] = fe;
      } else {
        simplex[worst] = reflected;
        values[worst] = fr;
      }
    } else if (fr < values[second_worst]) {
      simplex[worst] = reflected;
      values[worst] = fr;
    } else {
      const Vector contracted = along(fr < values[worst] ? 0.5 : -0.5);
      const double fc = f(contracted);
      if (fc < std::min(fr, values[worst])) {
        simplex[worst] = contracted;
        values[worst] = fc;
      } else {
        // Shrink towards the best vertex.
        for (std::size_t i = 0; i <= n; ++i) {
          if (i == best) continue;
          for (std::size_t d = 0; d < n; ++d)
            simplex[i][d] = simplex[best][d] + 0.5 * (simplex[i][d] - simplex[best][d]);
          values[i] = f(simplex[i]);
        }
      }
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i)
    if (values[i] < values[best]) best = i;
  result.x = simplex[best];
  result.value = values[best];
  return result;
}

}  // namespace c2b
