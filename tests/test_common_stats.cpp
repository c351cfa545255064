#include "c2b/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "c2b/common/rng.h"

namespace c2b {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, VarianceDividesByN) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(77);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(RunningStats, MergeEmptyWithEmptyStaysEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(RunningStats, MergeEmptyWithNonEmptyAdoptsEverything) {
  RunningStats empty, full;
  for (const double x : {-3.0, 1.0, 8.0}) full.add(x);
  empty.merge(full);
  EXPECT_EQ(empty.count(), 3u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.sum(), 6.0);
  EXPECT_DOUBLE_EQ(empty.min(), -3.0);
  EXPECT_DOUBLE_EQ(empty.max(), 8.0);
  EXPECT_DOUBLE_EQ(empty.variance(), full.variance());
}

TEST(RunningStats, MergeSingleSampleSides) {
  RunningStats a, b;
  a.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 1.0);       // population: ((1)^2+(1)^2)/2
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(RunningStats, MergePropagatesMinMaxAcrossSides) {
  RunningStats lo_side, hi_side;
  lo_side.add(-10.0);
  lo_side.add(0.0);
  hi_side.add(1.0);
  hi_side.add(25.0);
  lo_side.merge(hi_side);
  EXPECT_DOUBLE_EQ(lo_side.min(), -10.0);
  EXPECT_DOUBLE_EQ(lo_side.max(), 25.0);

  // And the mirror: the side holding both extremes keeps them.
  RunningStats wide, narrow;
  wide.add(-100.0);
  wide.add(100.0);
  narrow.add(5.0);
  wide.merge(narrow);
  EXPECT_DOUBLE_EQ(wide.min(), -100.0);
  EXPECT_DOUBLE_EQ(wide.max(), 100.0);
}

TEST(BatchStats, GeomeanOf) {
  EXPECT_DOUBLE_EQ(geomean_of({2.0, 8.0}), 4.0);
  EXPECT_THROW(geomean_of({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(geomean_of({}), std::invalid_argument);
}

TEST(BatchStats, MapeBasics) {
  EXPECT_DOUBLE_EQ(mape({110.0}, {100.0}), 0.1);
  EXPECT_DOUBLE_EQ(mape({1.0, 2.0}, {1.0, 2.0}), 0.0);
  // Zero-truth entries are skipped.
  EXPECT_DOUBLE_EQ(mape({5.0, 110.0}, {0.0, 100.0}), 0.1);
  EXPECT_THROW(mape({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5, 10);
  EXPECT_EQ(h.bin_count(1), 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, QuantileOnUniformMass) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace c2b
