#include <gtest/gtest.h>

#include <cmath>

#include "c2b/laws/pollack.h"
#include "c2b/laws/scaling.h"
#include "c2b/laws/speedup.h"

namespace c2b {
namespace {

// ---------------------------------------------------------------------------
// Speedup laws (Eq. 4 and special cases)

TEST(Speedup, AmdahlKnownValues) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(0.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(1.0, 64.0), 1.0);
  EXPECT_NEAR(amdahl_speedup(0.05, 1e9), 20.0, 1e-3);  // 1/f_seq limit
}

TEST(Speedup, GustafsonKnownValues) {
  EXPECT_DOUBLE_EQ(gustafson_speedup(0.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(gustafson_speedup(1.0, 8.0), 1.0);
  EXPECT_DOUBLE_EQ(gustafson_speedup(0.5, 10.0), 5.5);
}

TEST(Speedup, SunNiReducesToAmdahlWhenGIsOne) {
  for (const double f : {0.0, 0.1, 0.5, 1.0})
    for (const double n : {1.0, 2.0, 16.0, 512.0})
      EXPECT_NEAR(sunni_speedup(f, 1.0, n), amdahl_speedup(f, n), 1e-12);
}

TEST(Speedup, SunNiReducesToGustafsonWhenGIsN) {
  for (const double f : {0.0, 0.1, 0.5, 1.0})
    for (const double n : {1.0, 2.0, 16.0, 512.0})
      EXPECT_NEAR(sunni_speedup(f, n, n), gustafson_speedup(f, n), 1e-12);
}

TEST(Speedup, SunNiPaperExampleOrderN) {
  // g(N) = N^{3/2}: S = (f + (1-f) N^{3/2}) / (f + (1-f) N^{1/2}) -> O(N).
  const double f = 0.1;
  const double n = 10000.0;
  const double s = sunni_speedup(f, std::pow(n, 1.5), n);
  EXPECT_NEAR(s / n, 1.0, 0.01);
}

TEST(Speedup, SunNiAtOneCoreIsOne) {
  EXPECT_DOUBLE_EQ(sunni_speedup(0.3, 1.0, 1.0), 1.0);
}

TEST(Speedup, SunNiMonotoneInG) {
  // More memory-bounded scaling (larger g) yields higher speedup.
  const double f = 0.2, n = 64.0;
  double prev = 0.0;
  for (const double g : {1.0, 4.0, 16.0, 64.0, 256.0}) {
    const double s = sunni_speedup(f, g, n);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(Speedup, ScalingFunctionOverload) {
  const ScalingFunction g = ScalingFunction::power(1.5);
  EXPECT_NEAR(sunni_speedup(0.1, g, 16.0), sunni_speedup(0.1, 64.0, 16.0), 1e-12);
}

TEST(Speedup, InvalidInputsThrow) {
  EXPECT_THROW((void)sunni_speedup(-0.1, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)sunni_speedup(0.1, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)sunni_speedup(0.1, 1.0, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ScalingFunction / Table I

TEST(Scaling, FixedLinearPower) {
  EXPECT_DOUBLE_EQ(ScalingFunction::fixed()(100.0), 1.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::linear()(100.0), 100.0);
  EXPECT_NEAR(ScalingFunction::power(1.5)(4.0), 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(ScalingFunction::power(0.0)(7.0), 1.0);
}

TEST(Scaling, BoundaryConditionGOfOneIsOne) {
  EXPECT_DOUBLE_EQ(ScalingFunction::fixed()(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::linear()(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::power(1.5)(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::fft_like(1024.0)(1.0), 1.0);
}

TEST(Scaling, FromComplexityMatchesTableI) {
  EXPECT_NEAR(ScalingFunction::from_complexity(3.0, 2.0)(4.0), 8.0, 1e-12);   // TMM
  EXPECT_NEAR(ScalingFunction::from_complexity(1.0, 1.0)(9.0), 9.0, 1e-12);   // stencil
}

TEST(Scaling, FftLikeAtMEqualsNGivesTwoN) {
  // g(N) = N (log2 N + log2 M)/log2 M evaluated at M = N is 2N.
  for (const double n : {4.0, 64.0, 1024.0})
    EXPECT_NEAR(ScalingFunction::fft_like(n)(n), 2.0 * n, 1e-9);
}

TEST(Scaling, GrowthExponentClassification) {
  EXPECT_NEAR(ScalingFunction::power(1.5).growth_exponent(64.0), 1.5, 1e-6);
  EXPECT_NEAR(ScalingFunction::linear().growth_exponent(64.0), 1.0, 1e-6);
  EXPECT_NEAR(ScalingFunction::fixed().growth_exponent(64.0), 0.0, 1e-6);
  EXPECT_TRUE(ScalingFunction::power(1.5).at_least_linear());
  EXPECT_TRUE(ScalingFunction::linear().at_least_linear());
  EXPECT_FALSE(ScalingFunction::fixed().at_least_linear());
  EXPECT_FALSE(ScalingFunction::power(0.7).at_least_linear());
}

TEST(Scaling, MemoryScale) {
  EXPECT_DOUBLE_EQ(ScalingFunction::fixed().memory_scale(8.0), 1.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::linear().memory_scale(8.0), 8.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::power(1.5).memory_scale(8.0), 8.0);
  EXPECT_DOUBLE_EQ(ScalingFunction::power(0.0).memory_scale(8.0), 1.0);
}

TEST(Scaling, DomainChecks) {
  EXPECT_THROW(ScalingFunction::power(-1.0), std::invalid_argument);
  EXPECT_THROW(ScalingFunction::linear()(0.5), std::invalid_argument);
  EXPECT_THROW(ScalingFunction::fft_like(1.0), std::invalid_argument);
}

TEST(Scaling, TableIEntries) {
  const auto rows = table1_entries();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_NEAR(rows[0].g(4.0), 8.0, 1e-12);    // TMM N^{3/2}
  EXPECT_NEAR(rows[1].g(16.0), 16.0, 1e-12);  // band sparse N
  EXPECT_NEAR(rows[2].g(16.0), 16.0, 1e-12);  // stencil N
  EXPECT_NEAR(rows[3].g(16.0), 32.0, 1e-12);  // FFT 2N
  EXPECT_DOUBLE_EQ(rows[3].g(1.0), 1.0);      // pinned boundary condition
  for (const auto& row : rows) EXPECT_TRUE(row.g.at_least_linear());
}

// ---------------------------------------------------------------------------
// Pollack's rule (Eq. 11)

TEST(Pollack, Equation11Shape) {
  const PollackCore core{.k0 = 2.0, .phi0 = 0.25};
  EXPECT_DOUBLE_EQ(core.cpi_exe(1.0), 2.25);
  EXPECT_DOUBLE_EQ(core.cpi_exe(4.0), 1.25);
  EXPECT_DOUBLE_EQ(core.cpi_exe(16.0), 0.75);
  EXPECT_THROW((void)core.cpi_exe(0.0), std::invalid_argument);
}

TEST(Pollack, DiminishingReturns) {
  const PollackCore core{.k0 = 1.0, .phi0 = 0.2};
  const double gain_small = core.cpi_exe(1.0) - core.cpi_exe(2.0);
  const double gain_large = core.cpi_exe(8.0) - core.cpi_exe(16.0);
  EXPECT_GT(gain_small, gain_large);
}

}  // namespace
}  // namespace c2b
