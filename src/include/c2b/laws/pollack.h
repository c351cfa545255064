#pragma once

// Pollack's rule (paper Eq. 11): single-core performance grows with the
// square root of core complexity/area, so
//     CPI_exe(A0) = k0 * A0^{-1/2} + phi0.
// phi0 is the asymptotic CPI floor of an arbitrarily large core; k0 scales
// how quickly added area buys ILP.

#include <cmath>

#include "c2b/common/assert.h"

namespace c2b {

struct PollackCore {
  double k0 = 1.0;    ///< area-sensitivity coefficient (> 0)
  double phi0 = 0.2;  ///< CPI floor (>= 0)

  /// Eq. (11): CPI_exe at core area a0 (> 0), in arbitrary area units.
  [[nodiscard]] double cpi_exe(double a0) const {
    C2B_REQUIRE(a0 > 0.0, "core area must be positive");
    C2B_REQUIRE(k0 > 0.0 && phi0 >= 0.0, "invalid Pollack parameters");
    return k0 / std::sqrt(a0) + phi0;
  }
};

}  // namespace c2b
