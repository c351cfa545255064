#include "c2b/core/capacity.h"

#include <cmath>

#include "c2b/common/assert.h"

namespace c2b {

double capacity_bounded_problem_size(const WorkingSetFn& working_set, double on_chip_lines,
                                     double z_lo, double z_hi, double tolerance) {
  C2B_REQUIRE(static_cast<bool>(working_set), "working-set function required");
  C2B_REQUIRE(on_chip_lines > 0.0, "on-chip capacity must be positive");
  C2B_REQUIRE(z_hi > z_lo && z_lo > 0.0, "need a valid problem-size bracket");

  if (working_set(z_lo) > on_chip_lines) return z_lo;    // nothing fits
  if (working_set(z_hi) <= on_chip_lines) return z_hi;   // everything fits

  double lo = z_lo, hi = z_hi;  // invariant: Y(lo) <= X < Y(hi)
  while (hi - lo > tolerance * std::max(1.0, lo)) {
    const double mid = 0.5 * (lo + hi);
    if (working_set(mid) <= on_chip_lines) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BoundRegime classify_problem(double real_problem_size, double capacity_bounded_size) {
  C2B_REQUIRE(real_problem_size > 0.0, "problem size must be positive");
  return real_problem_size <= capacity_bounded_size ? BoundRegime::kProcessorBound
                                                    : BoundRegime::kMemoryBound;
}

}  // namespace c2b
