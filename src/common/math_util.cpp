#include "c2b/common/math_util.h"

#include "c2b/common/assert.h"

namespace c2b {

std::vector<int> pow2_sweep(int lo, int hi) {
  C2B_REQUIRE(lo >= 1 && hi >= lo, "pow2_sweep requires 1 <= lo <= hi");
  std::vector<int> out;
  for (long long v = lo; v <= hi; v *= 2) out.push_back(static_cast<int>(v));
  if (out.empty() || out.back() != hi) out.push_back(hi);
  return out;
}

}  // namespace c2b
