#include "c2b/obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "c2b/obs/export.h"
#include "c2b/obs/obs.h"

namespace c2b::obs {
namespace {

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Counter& counter = Registry::global().counter("test.registry.concurrent");
  counter.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsCounter, MacroHitsTheSameSlot) {
  Counter& counter = Registry::global().counter("test.registry.macro");
  counter.reset();
  const std::uint64_t before = counter.value();
  C2B_COUNTER_INC("test.registry.macro");
  C2B_COUNTER_ADD("test.registry.macro", 4);
  EXPECT_EQ(counter.value(), before + 5);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge& gauge = Registry::global().gauge("test.registry.gauge");
  gauge.set(1.5);
  gauge.set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
}

TEST(ObsHistogram, BucketsAndMoments) {
  ConcurrentHistogram h(0.0, 10.0, 10);
  h.record(0.5);   // bin 0
  h.record(3.5);   // bin 3
  h.record(9.99);  // bin 9
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_DOUBLE_EQ(h.bin_low(3), 3.0);
  EXPECT_NEAR(h.mean(), (0.5 + 3.5 + 9.99) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.99);
  EXPECT_GT(h.stddev(), 0.0);
}

TEST(ObsHistogram, OutOfRangeSamplesClampToEdgeBins) {
  ConcurrentHistogram h(0.0, 8.0, 8);
  h.record(-5.0);    // below lo -> bin 0
  h.record(100.0);   // above hi -> last bin
  h.record(8.0);     // == hi -> last bin (half-open ranges)
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(7), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);  // moments keep the raw values
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCount) {
  ConcurrentHistogram h(0.0, 1.0, 4);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>((t + i) % 4) / 4.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) bucket_total += h.bin_count(b);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsHistogram, PercentileTracksExactQuantiles) {
  // Uniform fill: interpolation inside a bucket is exact, so the histogram
  // percentile must match the true quantile of the sample set.
  ConcurrentHistogram h(0.0, 100.0, 100);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(i) / 10.0;  // 0.0 .. 99.9
    h.record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  const auto exact = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    return values[lo] + (pos - lo) * (values[std::min(lo + 1, values.size() - 1)] - values[lo]);
  };
  // Error bound: one bucket width (1.0).
  EXPECT_NEAR(h.percentile(0.50), exact(0.50), 1.0);
  EXPECT_NEAR(h.percentile(0.90), exact(0.90), 1.0);
  EXPECT_NEAR(h.percentile(0.99), exact(0.99), 1.0);
}

TEST(ObsHistogram, PercentileUnderBinEdgeSkew) {
  // Adversarial shape: a big spike exactly on a bin edge plus a thin tail.
  // The estimate may smear across the spike's bucket but never by more than
  // one bucket width, and tail percentiles must land in the tail.
  ConcurrentHistogram h(0.0, 10.0, 10);
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) {
    h.record(3.0);  // spike on the bin 3 edge
    values.push_back(3.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double v = 9.0 + static_cast<double>(i) / 100.0;
    h.record(v);
    values.push_back(v);
  }
  EXPECT_NEAR(h.percentile(0.50), 3.0, 1.0);  // within the spike's bucket
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p99, 9.0);
  EXPECT_LE(p99, 9.99);
}

TEST(ObsHistogram, PercentileClampsToObservedRange) {
  // Out-of-range samples pile into the edge bins; clamping keeps the
  // estimate inside [min, max] instead of reporting bucket boundaries.
  ConcurrentHistogram h(0.0, 10.0, 10);
  h.record(-50.0);
  h.record(200.0);
  EXPECT_GE(h.percentile(0.0), -50.0);
  EXPECT_LE(h.percentile(1.0), 200.0);
  EXPECT_GE(h.percentile(1.0), 10.0);  // last bucket alone would cap at 10

  ConcurrentHistogram empty(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  ConcurrentHistogram single(0.0, 10.0, 10);
  single.record(4.5);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 4.5);
  EXPECT_DOUBLE_EQ(single.percentile(0.5), 4.5);
  EXPECT_DOUBLE_EQ(single.percentile(1.0), 4.5);
}

TEST(ObsHistogram, ResetClears) {
  ConcurrentHistogram h(0.0, 1.0, 2);
  h.record(0.25);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

/// Every observable of two histograms, bucket by bucket.
void expect_same_histogram(const ConcurrentHistogram& a, const ConcurrentHistogram& b) {
  ASSERT_EQ(a.bins(), b.bins());
  for (std::size_t bin = 0; bin < a.bins(); ++bin)
    EXPECT_EQ(a.bin_count(bin), b.bin_count(bin)) << "bin " << bin;
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(ObsLocalHistogram, MergeMatchesDirectRecording) {
  // Integer-valued samples (like the simulator's occupancies and cycle
  // counts) sum exactly in any order, so the moments match bit for bit.
  ConcurrentHistogram direct(0.0, 64.0, 64);
  ConcurrentHistogram merged(0.0, 64.0, 64);
  LocalHistogram first(0.0, 64.0, 64);
  LocalHistogram second(0.0, 64.0, 64);
  for (int i = 0; i < 5000; ++i) {
    const double x = static_cast<double>((i * 37) % 97) - 10.0;  // -10 .. 86
    direct.record(x);
    (i % 3 == 0 ? first : second).record(x);
  }
  merged.record(5.0);  // merging adds to what is already there
  direct.record(5.0);
  merged.merge(first);
  merged.merge(second);

  expect_same_histogram(merged, direct);
  EXPECT_EQ(first.count() + second.count() + 1, merged.count());
  EXPECT_EQ(merged.sum(), direct.sum());
  EXPECT_EQ(merged.stddev(), direct.stddev());
  EXPECT_EQ(merged.percentile(0.9), direct.percentile(0.9));
}

TEST(ObsLocalHistogram, EmptyMergeLeavesMinAndMaxUntouched) {
  ConcurrentHistogram h(0.0, 10.0, 10);
  h.record(2.0);
  h.record(5.0);
  h.merge(LocalHistogram(0.0, 10.0, 10));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);

  ConcurrentHistogram empty(0.0, 10.0, 10);
  empty.merge(LocalHistogram(0.0, 10.0, 10));
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
}

TEST(ObsLocalHistogram, OutOfRangeSamplesClampLikeRecord) {
  const double samples[] = {-5.0, -1e300, 0.0,    7.999999, 8.0,
                            100.0, 1e300, -0.0,   3.5,      std::nan("")};
  ConcurrentHistogram direct(0.0, 8.0, 8);
  ConcurrentHistogram merged(0.0, 8.0, 8);
  LocalHistogram local(0.0, 8.0, 8);
  for (const double x : samples) {
    direct.record(x);
    local.record(x);
  }
  merged.merge(local);
  expect_same_histogram(merged, direct);
  EXPECT_EQ(direct.bin_count(0), 5u);  // -5, -1e300, 0, -0, NaN
  EXPECT_EQ(direct.bin_count(7), 4u);  // 7.999999, 8 (== hi), 100, 1e300
}

TEST(ObsLocalHistogram, MergeRejectsAMismatchedShape) {
  ConcurrentHistogram h(0.0, 8.0, 8);
  EXPECT_THROW(h.merge(LocalHistogram(0.0, 8.0, 4)), std::invalid_argument);
  EXPECT_THROW(h.merge(LocalHistogram(0.0, 16.0, 8)), std::invalid_argument);
}

TEST(ObsLocalHistogram, ConcurrentMergesKeepExactCounts) {
  ConcurrentHistogram h(0.0, 4.0, 4);
  constexpr int kThreads = 8;
  constexpr int kMergesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kMergesPerThread; ++i) {
        LocalHistogram local(0.0, 4.0, 4);
        local.record(static_cast<double>(t % 4));
        local.record(static_cast<double>(i % 4));
        h.merge(local);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), 2u * kThreads * kMergesPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) bucket_total += h.bin_count(b);
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(ObsRegistry, FirstRegistrationFixesHistogramShape) {
  ConcurrentHistogram& first = Registry::global().histogram("test.registry.shape", 0.0, 4.0, 4);
  ConcurrentHistogram& again =
      Registry::global().histogram("test.registry.shape", -100.0, 100.0, 17);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.bins(), 4u);
}

TEST(ObsRegistry, SnapshotCoversAllKinds) {
  Registry registry;  // private instance: deterministic content
  registry.counter("c").add(3);
  registry.gauge("g").set(1.25);
  registry.histogram("h", 0.0, 2.0, 2).record(1.5);

  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].name, "c");
  EXPECT_EQ(samples[0].count, 3u);
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(samples[1].value, 1.25);
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kHistogram);
  ASSERT_EQ(samples[2].buckets.size(), 2u);
  EXPECT_EQ(samples[2].buckets[1].second, 1u);
}

TEST(ObsRegistry, ResetValuesKeepsNames) {
  Registry registry;
  registry.counter("c").add(7);
  registry.histogram("h", 0.0, 1.0, 2).record(0.5);
  registry.reset_values();
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].count, 0u);
  EXPECT_EQ(samples[1].count, 0u);
}

TEST(ObsExport, JsonAndTableContainTheMetrics) {
  Registry registry;
  registry.counter("alpha").add(2);
  registry.gauge("beta").set(0.5);
  registry.histogram("gamma", 0.0, 1.0, 2).record(0.75);

  const std::string json = metrics_json(registry);
  EXPECT_NE(json.find("\"counters\":{\"alpha\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"beta\":0.5}"), std::string::npos);
  EXPECT_NE(json.find("\"gamma\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);

  const Table table = metrics_table(registry);
  EXPECT_EQ(table.row_count(), 3u);
}

TEST(ObsExport, JsonSurfacesHistogramPercentiles) {
  Registry registry;
  ConcurrentHistogram& h = registry.histogram("delta", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i));

  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].p50, 49.5, 1.0);
  EXPECT_NEAR(samples[0].p90, 89.1, 1.0);
  EXPECT_NEAR(samples[0].p99, 98.01, 1.0);

  const std::string json = metrics_json(registry);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(ObsRuntime, DisableSkipsMacroUpdates) {
  Counter& counter = Registry::global().counter("test.registry.disable");
  counter.reset();
  set_enabled(false);
  C2B_COUNTER_INC("test.registry.disable");
  EXPECT_FALSE(C2B_OBS_ACTIVE());
  set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  C2B_COUNTER_INC("test.registry.disable");
  EXPECT_EQ(counter.value(), 1u);
}

}  // namespace
}  // namespace c2b::obs
