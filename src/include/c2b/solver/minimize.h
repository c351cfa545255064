#pragma once

// Nelder–Mead simplex descent: the derivative-free minimizer the C²-Bound
// optimizers run over the continuous cache-area split (A1, A2) at each
// candidate core count.

#include <functional>

#include "c2b/linalg/matrix.h"

namespace c2b {

using MultiFn = std::function<double(const Vector&)>;

struct NelderMeadOptions {
  int max_iterations = 2000;
  double tolerance = 1e-10;      ///< spread of simplex values at convergence
  double initial_step = 0.1;     ///< relative size of the initial simplex
};

struct NelderMeadResult {
  Vector x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Standard Nelder–Mead simplex descent (reflect/expand/contract/shrink).
NelderMeadResult nelder_mead_minimize(const MultiFn& f, Vector x0,
                                      const NelderMeadOptions& options = {});

}  // namespace c2b
