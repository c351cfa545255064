#include "c2b/trace/simpoint.h"

#include <gtest/gtest.h>

#include <memory>

#include "c2b/trace/generators.h"

namespace c2b {
namespace {

Trace phased_trace(std::uint64_t phase_len, int repeats) {
  std::vector<PhasedGenerator::Phase> phases;
  phases.push_back({std::make_shared<PointerChaseGenerator>(256, 4, 1), phase_len});
  ZipfStreamGenerator::Params zp;
  zp.f_mem = 0.9;
  zp.seed = 2;
  phases.push_back({std::make_shared<ZipfStreamGenerator>(zp), phase_len});
  PhasedGenerator g(std::move(phases));
  return g.generate(2 * phase_len * static_cast<std::uint64_t>(repeats));
}

TEST(SimPoint, FeaturesAreNormalized) {
  const Trace t = phased_trace(1000, 1);
  const auto f = interval_features(t.records.data(), t.records.data() + 1000, 8);
  ASSERT_EQ(f.size(), 3u + 8u);
  EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-9);  // mix fractions sum to 1
  double hist = 0.0;
  for (std::size_t b = 3; b < f.size(); ++b) hist += f[b];
  EXPECT_NEAR(hist, 1.0, 1e-9);  // address histogram normalized
}

TEST(SimPoint, WeightsSumToOne) {
  const Trace t = phased_trace(2000, 4);
  SimPointOptions opt;
  opt.interval_length = 1000;
  opt.max_clusters = 4;
  const SimPointResult r = pick_simpoints(t, opt);
  ASSERT_FALSE(r.points.empty());
  double total = 0.0;
  for (const SimPoint& p : r.points) total += p.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SimPoint, TwoPhaseTraceYieldsTwoDominantClusters) {
  const Trace t = phased_trace(4000, 4);
  SimPointOptions opt;
  opt.interval_length = 4000;  // one interval per phase occurrence
  opt.max_clusters = 2;
  const SimPointResult r = pick_simpoints(t, opt);
  ASSERT_EQ(r.points.size(), 2u);
  // Each cluster should hold ~half the intervals.
  for (const SimPoint& p : r.points) EXPECT_NEAR(p.weight, 0.5, 0.15);
  // Alternating phases -> alternating cluster assignment.
  ASSERT_GE(r.interval_cluster.size(), 4u);
  EXPECT_NE(r.interval_cluster[0], r.interval_cluster[1]);
  EXPECT_EQ(r.interval_cluster[0], r.interval_cluster[2]);
}

TEST(SimPoint, UniformTraceCollapsesWeight) {
  StencilGenerator g(64);
  const Trace t = g.generate(32000);
  SimPointOptions opt;
  opt.interval_length = 4000;
  opt.max_clusters = 4;
  const SimPointResult r = pick_simpoints(t, opt);
  // A homogeneous trace should concentrate most weight in few clusters.
  double max_weight = 0.0;
  for (const SimPoint& p : r.points) max_weight = std::max(max_weight, p.weight);
  EXPECT_GT(max_weight, 0.3);
}

TEST(SimPoint, ExtractIntervalBounds) {
  StencilGenerator g(32);
  const Trace t = g.generate(10000);
  const Trace mid = extract_interval(t, 2, 3000);
  EXPECT_EQ(mid.records.size(), 3000u);
  EXPECT_EQ(mid.records[0].address, t.records[6000].address);
  const Trace tail = extract_interval(t, 3, 3000);
  EXPECT_EQ(tail.records.size(), 1000u);  // clipped at the end
  EXPECT_THROW(extract_interval(t, 10, 3000), std::invalid_argument);
}

TEST(SimPoint, DeterministicForSeed) {
  const Trace t = phased_trace(2000, 3);
  SimPointOptions opt;
  opt.interval_length = 1500;
  const SimPointResult a = pick_simpoints(t, opt);
  const SimPointResult b = pick_simpoints(t, opt);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].interval_index, b.points[i].interval_index);
    EXPECT_DOUBLE_EQ(a.points[i].weight, b.points[i].weight);
  }
}

}  // namespace
}  // namespace c2b
