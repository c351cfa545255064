#include "c2b/laws/speedup.h"

#include "c2b/common/assert.h"

namespace c2b {
namespace {

void check_fraction(double f_seq) {
  C2B_REQUIRE(f_seq >= 0.0 && f_seq <= 1.0, "sequential fraction in [0,1]");
}

}  // namespace

double amdahl_speedup(double f_seq, double n) {
  check_fraction(f_seq);
  C2B_REQUIRE(n >= 1.0, "N >= 1");
  return 1.0 / (f_seq + (1.0 - f_seq) / n);
}

double gustafson_speedup(double f_seq, double n) {
  check_fraction(f_seq);
  C2B_REQUIRE(n >= 1.0, "N >= 1");
  return f_seq + (1.0 - f_seq) * n;
}

double sunni_speedup(double f_seq, double g_of_n, double n) {
  check_fraction(f_seq);
  C2B_REQUIRE(n >= 1.0, "N >= 1");
  C2B_REQUIRE(g_of_n > 0.0, "g(N) must be positive");
  const double numerator = f_seq + (1.0 - f_seq) * g_of_n;
  const double denominator = f_seq + (1.0 - f_seq) * g_of_n / n;
  return numerator / denominator;
}

double sunni_speedup(double f_seq, const ScalingFunction& g, double n) {
  return sunni_speedup(f_seq, g(n), n);
}

}  // namespace c2b
