// Simulation-cache key coverage: behavioral aliasing tests. Two contexts
// that could produce different simulation results must never share a cache
// entry — in particular spec pairs differing only in `uid`, and pairs with
// identical uid/description whose g(N) samples differ (the numeric
// backstop in the key).

#include <gtest/gtest.h>

#include "c2b/aps/dse.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

DseContext tiny_context() {
  DseContext context;
  context.base.core.issue_width = 4;
  context.base.core.rob_size = 128;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 256 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.workload = make_stencil_workload(64);
  context.instructions0 = 4000;
  context.per_core_cap = 2000;
  context.seed = 11;
  return context;
}

const std::vector<double> kPoint{1.0, 0.5, 1.0, 1.0, 4.0, 128.0};

/// One design's time through the shipped evaluator (a one-point batch),
/// which probes and fills the global sim cache.
double simulate_one(const DseContext& context, const std::vector<double>& point) {
  return simulate_design_times_batched(context, {point}).front().time;
}

class SimCacheKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::SimCache::global().set_enabled(true);
    // Key-coverage tests reason about exact hit/miss counts on a cold
    // cache; a $C2B_SIM_CACHE_DIR disk tier warmed by an earlier run
    // would serve the probes (clear() keeps it by design), so drop it.
    exec::SimCache::global().detach_disk_tier();
    exec::SimCache::global().clear();
  }
  void TearDown() override { exec::SimCache::global().clear(); }

  static std::uint64_t hits() { return exec::SimCache::global().stats().hits; }
  static std::uint64_t misses() { return exec::SimCache::global().stats().misses; }
};

TEST_F(SimCacheKeyTest, IdenticalContextReplays) {
  const DseContext context = tiny_context();
  const double first = simulate_one(context, kPoint);
  EXPECT_EQ(hits(), 0u);
  const double second = simulate_one(context, kPoint);
  EXPECT_EQ(hits(), 1u) << "identical context must hit the cache";
  EXPECT_EQ(first, second);
}

TEST_F(SimCacheKeyTest, UidOnlyChangeNeverAliases) {
  DseContext context = tiny_context();
  (void)simulate_one(context, kPoint);
  const std::uint64_t misses_before = misses();

  // Same generator, same everything — only the declared identity differs.
  // A uid is a promise of behavioral identity; a different uid must be a
  // different key even when the rest of the spec looks the same.
  context.workload.uid += "#mutant";
  (void)simulate_one(context, kPoint);
  EXPECT_EQ(hits(), 0u) << "uid-only change aliased into the cached entry";
  EXPECT_GT(misses(), misses_before);
}

TEST_F(SimCacheKeyTest, SampledGValuesBackstopPreventsAliasing) {
  // Adversarial pair: identical uid AND identical description, but g
  // differs numerically. The description alone cannot distinguish them —
  // only the sampled-values backstop in the key can.
  DseContext context = tiny_context();
  context.workload.g =
      ScalingFunction::custom([](double n) { return n; }, "custom-g", true);
  (void)simulate_one(context, kPoint);

  DseContext other = tiny_context();
  other.workload.g =
      ScalingFunction::custom([](double n) { return 2.0 * n - 1.0; }, "custom-g", true);
  (void)simulate_one(other, kPoint);
  EXPECT_EQ(hits(), 0u) << "numerically different g aliased under a shared description";
}

TEST_F(SimCacheKeyTest, MemoryScaleDifferenceNeverAliases) {
  // Same g values, same description — but capacity-driven vs fixed memory
  // scaling changes the simulated working set.
  DseContext context = tiny_context();
  context.workload.g =
      ScalingFunction::custom([](double n) { return n; }, "custom-g", true);
  (void)simulate_one(context, kPoint);

  DseContext other = tiny_context();
  other.workload.g =
      ScalingFunction::custom([](double n) { return n; }, "custom-g", false);
  (void)simulate_one(other, kPoint);
  EXPECT_EQ(hits(), 0u) << "memory_scale difference aliased";
}

TEST_F(SimCacheKeyTest, SeedAndWindowChangesNeverAlias) {
  DseContext context = tiny_context();
  (void)simulate_one(context, kPoint);

  DseContext reseeded = tiny_context();
  reseeded.seed += 1;
  (void)simulate_one(reseeded, kPoint);
  EXPECT_EQ(hits(), 0u);

  DseContext longer = tiny_context();
  longer.instructions0 += 1;
  (void)simulate_one(longer, kPoint);
  EXPECT_EQ(hits(), 0u);

  DseContext capped = tiny_context();
  capped.per_core_cap -= 1;
  (void)simulate_one(capped, kPoint);
  EXPECT_EQ(hits(), 0u);
}

TEST_F(SimCacheKeyTest, EmptyUidDisablesCaching) {
  DseContext context = tiny_context();
  context.workload.uid.clear();
  (void)simulate_one(context, kPoint);
  (void)simulate_one(context, kPoint);
  EXPECT_EQ(hits(), 0u) << "hand-rolled specs without a uid must not be cached";
}

}  // namespace
}  // namespace c2b
