#include "c2b/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace c2b {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_below(17), 17u);
}

TEST(Rng, UniformBelowZeroBoundIsZero) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_below(0), 0u);
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(5);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 7000; ++i) ++seen[rng.uniform_below(7)];
  for (const int count : seen) EXPECT_GT(count, 700);  // ~1000 each
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(100);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(21);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(rng.zipf(100, 0.9), 100u);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(3);
  int low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = rng.zipf(1000, 1.2);
    if (k < 10) ++low;
    if (k >= 990) ++high;
  }
  EXPECT_GT(low, high * 5);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(4);
  EXPECT_EQ(rng.zipf(1, 1.0), 0u);
}

/// Rng::zipf as it was before ZipfDistribution hoisted its per-(n, s)
/// constants: every draw recomputes (n+1)^(1-s), 1/(1-s) and log(n+1).
std::size_t zipf_recomputing_constants(Rng& rng, std::size_t n, double s) {
  if (n <= 1) return 0;
  const double nd = static_cast<double>(n);
  if (s == 1.0) {
    const double u = rng.uniform();
    const double k = std::exp(u * std::log(nd + 1.0));
    const auto idx = static_cast<std::size_t>(k) - 1;
    return idx >= n ? n - 1 : idx;
  }
  const double one_minus_s = 1.0 - s;
  for (;;) {
    const double u = rng.uniform();
    const double top = std::pow(nd + 1.0, one_minus_s);
    const double x = std::pow(u * (top - 1.0) + 1.0, 1.0 / one_minus_s);
    const auto k = static_cast<std::size_t>(x);
    if (k >= 1 && k <= n) {
      const double ratio = std::pow(static_cast<double>(k) / x, s);
      if (rng.uniform() <= ratio) return k - 1;
    }
  }
}

TEST(Rng, ZipfDistributionMatchesPerDrawFormula) {
  // Same draws and the same generator state afterwards, over the exponents
  // the workloads use and the edge cases (s = 0, s = 1, n = 1, 2).
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{100},
                              std::size_t{4'096}, std::size_t{1} << 20})
    for (const double s : {0.0, 0.3, 0.7, 0.8, 0.9, 1.0, 1.2, 2.0, 3.5})
      for (const std::uint64_t seed : {1ull, 42ull, 20'261'017ull}) {
        Rng hoisted(seed), reference(seed), one_off(seed);
        const ZipfDistribution zipf(n, s);
        for (int i = 0; i < 500; ++i) {
          const std::size_t want = zipf_recomputing_constants(reference, n, s);
          ASSERT_EQ(zipf(hoisted), want) << "n " << n << " s " << s << " seed " << seed;
          ASSERT_EQ(one_off.zipf(n, s), want) << "n " << n << " s " << s << " seed " << seed;
        }
        EXPECT_EQ(hoisted.next(), reference.next());
      }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(6);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.015);
}

TEST(Rng, DeriveStreamSeedIsDeterministic) {
  EXPECT_EQ(Rng::derive_stream_seed(42, 3), Rng::derive_stream_seed(42, 3));
  EXPECT_NE(Rng::derive_stream_seed(42, 3), Rng::derive_stream_seed(42, 4));
  EXPECT_NE(Rng::derive_stream_seed(42, 3), Rng::derive_stream_seed(43, 3));
}

TEST(Rng, DeriveStreamSeedAvoidsLinearSchemeCollisions) {
  // The old per-core scheme `seed + 17 * c + 1` aliased systematically:
  // (seed=18, c=0) and (seed=1, c=1) both yielded 19, so two different
  // experiments shared identical traces. The splitmix derivation must not.
  EXPECT_NE(Rng::derive_stream_seed(18, 0), Rng::derive_stream_seed(1, 1));
  EXPECT_NE(Rng::derive_stream_seed(35, 0), Rng::derive_stream_seed(18, 1));
  EXPECT_NE(Rng::derive_stream_seed(0, 2), Rng::derive_stream_seed(17, 1));
}

TEST(Rng, DeriveStreamSeedDistinctOverSeedStreamGrid) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 0; seed < 64; ++seed)
    for (std::uint64_t stream = 0; stream < 64; ++stream)
      seeds.push_back(Rng::derive_stream_seed(seed, stream));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(Rng, DeriveStreamSeedProducesDivergentStreams) {
  Rng a(Rng::derive_stream_seed(7, 0));
  Rng b(Rng::derive_stream_seed(7, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng a(50);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace c2b
