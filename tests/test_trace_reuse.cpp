#include "c2b/trace/reuse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <unordered_map>

#include "c2b/common/rng.h"
#include "c2b/trace/generators.h"

namespace c2b {
namespace {

/// Naive O(n^2) LRU-stack reference implementation.
class NaiveStack {
 public:
  std::uint64_t access(std::uint64_t line) {
    std::uint64_t depth = 0;
    for (auto it = stack_.begin(); it != stack_.end(); ++it, ++depth) {
      if (*it == line) {
        stack_.erase(it);
        stack_.push_front(line);
        return depth;
      }
    }
    stack_.push_front(line);
    return kColdMiss;
  }

 private:
  std::list<std::uint64_t> stack_;
};

TEST(StackDistance, SimpleSequence) {
  StackDistanceAnalyzer a(64);
  EXPECT_EQ(a.access(0), kColdMiss);       // A
  EXPECT_EQ(a.access(64), kColdMiss);      // B
  EXPECT_EQ(a.access(0), 1u);              // A again: {B} between
  EXPECT_EQ(a.access(0), 0u);              // immediate reuse
  EXPECT_EQ(a.access(64), 1u);             // B: {A} between
  EXPECT_EQ(a.cold_miss_count(), 2u);
  EXPECT_EQ(a.access_count(), 5u);
}

TEST(StackDistance, SubLineAddressesShareALine) {
  StackDistanceAnalyzer a(64);
  EXPECT_EQ(a.access(0), kColdMiss);
  EXPECT_EQ(a.access(63), 0u);  // same line
  EXPECT_EQ(a.access(64), kColdMiss);
}

TEST(StackDistance, MatchesNaiveReferenceOnRandomTraces) {
  Rng rng(31);
  StackDistanceAnalyzer fast(64);
  NaiveStack naive;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t line = rng.zipf(200, 0.8);
    EXPECT_EQ(fast.access(line * 64), naive.access(line)) << "at access " << i;
  }
}

TEST(StackDistance, MissRatioCurveIsMonotone) {
  ZipfStreamGenerator::Params p;
  p.working_set_lines = 4096;
  p.zipf_exponent = 0.9;
  p.f_mem = 1.0;
  p.seed = 12;
  ZipfStreamGenerator g(p);
  StackDistanceAnalyzer a(64);
  a.consume(g.generate(60000));
  const auto curve = a.miss_ratio_curve();
  ASSERT_GE(curve.size(), 3u);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i].second, curve[i - 1].second + 1e-12) << "capacity " << curve[i].first;
  // Miss ratio bounded by [cold/total, 1].
  EXPECT_LE(curve.back().second, 1.0);
  EXPECT_GE(curve.back().second,
            static_cast<double>(a.cold_miss_count()) / static_cast<double>(a.access_count()) -
                1e-12);
}

TEST(StackDistance, SequentialStreamMissesEverywhere) {
  StackDistanceAnalyzer a(64);
  for (std::uint64_t i = 0; i < 1000; ++i) a.access(i * 64);
  // Pure streaming: every access cold -> miss ratio 1 at any capacity.
  EXPECT_DOUBLE_EQ(a.miss_ratio_for(16), 1.0);
  EXPECT_DOUBLE_EQ(a.miss_ratio_for(1 << 20), 1.0);
}

TEST(StackDistance, TinyLoopFitsInTinyCache) {
  StackDistanceAnalyzer a(64);
  for (int rep = 0; rep < 100; ++rep)
    for (std::uint64_t line = 0; line < 4; ++line) a.access(line * 64);
  // Distances are all 3 after warmup: a 4-line cache captures everything.
  EXPECT_LT(a.miss_ratio_for(4), 0.05);
  EXPECT_GT(a.miss_ratio_for(2), 0.9);
}

TEST(PowerLawFit, RecoversKnownParameters) {
  // Construct a synthetic curve MR(S) = 0.1 * S^-0.5.
  std::vector<std::pair<std::uint64_t, double>> curve;
  for (std::uint64_t s = 2; s <= 1 << 16; s *= 2)
    curve.emplace_back(s, 0.1 * std::pow(static_cast<double>(s), -0.5));
  const PowerLawFit fit = fit_miss_power_law(curve);
  EXPECT_NEAR(fit.alpha, 0.1, 0.01);
  EXPECT_NEAR(fit.beta, 0.5, 0.01);
}

TEST(PowerLawFit, DegenerateCurveFallsBackGracefully) {
  const PowerLawFit flat = fit_miss_power_law({{1, 1.0}, {2, 1.0}, {4, 1.0}});
  EXPECT_GE(flat.beta, 0.0);  // no throw, sane defaults
  const PowerLawFit empty = fit_miss_power_law({});
  EXPECT_GT(empty.alpha, 0.0);
}

TEST(PowerLawFit, ZipfWorkloadProducesDecreasingFit) {
  ZipfStreamGenerator::Params p;
  p.working_set_lines = 1 << 13;
  p.zipf_exponent = 0.8;
  p.f_mem = 1.0;
  p.seed = 8;
  ZipfStreamGenerator g(p);
  StackDistanceAnalyzer a(64);
  a.consume(g.generate(80000));
  const PowerLawFit fit = fit_miss_power_law(a.miss_ratio_curve());
  EXPECT_GT(fit.beta, 0.05);  // capacity helps
  EXPECT_GT(fit.alpha, 0.0);
}

}  // namespace
}  // namespace c2b
