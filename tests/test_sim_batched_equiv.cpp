// Batch-equivalence stress tests (ctest label: perf, excluded from the
// quick suite). The batched replay engine — shared chunk store, lockstep
// replay kernel, DSE-level equivalence-class scheduling — must be
// bitwise indistinguishable from the per-cycle reference at every thread
// count, with the chunk store's resident window staying O(chunk) even on
// wide batches over long streams.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/check/generators.h"
#include "c2b/check/oracles.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/chunk_store.h"
#include "c2b/trace/generators.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

/// Restores process-global execution state (thread count, sim cache) that
/// the DSE-level sweeps below mutate.
struct ExecDefaults {
  bool cache_was_enabled = exec::SimCache::global().enabled();
  ~ExecDefaults() {
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(cache_was_enabled);
    exec::SimCache::global().clear();
  }
};

// The oracle harness's kernel family — whose DSE part checks one-point and
// whole-set batched design times against simulate_design_time_reference — at
// two seeds other than the `c2b check` default, so the perf suite explores
// fresh design-point sets, twice as many as one run.
TEST(BatchEquivalence, OracleStressOnRandomDesignSets) {
  for (const std::uint64_t seed : {20'260'806ULL, 20'260'808ULL}) {
    const check::OracleReport report = check::run_kernel_equivalence_oracle({.seed = seed});
    for (const std::string& failure : report.failures) ADD_FAILURE() << failure;
    EXPECT_TRUE(report.passed()) << "seed " << seed;
    EXPECT_GT(report.checks, 0u);
  }
}

// A wide batch (more members than kMaxBatchMembers, forcing the unit split)
// over one random scenario: batched results must match
// simulate_design_time_reference bitwise at thread counts 1 and 8, and
// repeating the sweep must reproduce it bitwise.
TEST(BatchEquivalence, WideBatchMatchesReferenceAtEveryThreadCount) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  Rng rng(314159);
  const check::DseScenario scenario = check::gen_dse_scenario(rng);
  const GridSpace space = make_design_space(scenario.axes);

  std::vector<std::vector<double>> points;
  space.for_each([&](std::size_t, const std::vector<double>& point) {
    if (!design_feasible(scenario.context, point)) return;
    points.push_back(point);
  });
  ASSERT_FALSE(points.empty());

  std::vector<BatchSimOutcome> reference;
  reference.reserve(points.size());
  for (const std::vector<double>& point : points)
    reference.push_back(simulate_design_time_reference(scenario.context, point));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exec::set_thread_count(threads);
    for (int repeat = 0; repeat < 2; ++repeat) {
      BatchReplayStats stats;
      const std::vector<BatchSimOutcome> outcomes =
          simulate_design_times_batched(scenario.context, points, &stats);
      ASSERT_EQ(outcomes.size(), points.size());
      EXPECT_EQ(stats.members, points.size());
      EXPECT_EQ(stats.cache_hits, 0u);
      for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(outcomes[i].time),
                  std::bit_cast<std::uint64_t>(reference[i].time))
            << "threads " << threads << " repeat " << repeat << " point " << i;
        ASSERT_EQ(outcomes[i].memory_accesses, reference[i].memory_accesses);
      }
    }
  }
}

// Points that map to one machine — a literal repeat, two a0 values in one
// functional-unit bucket, two a1 values that round up to one power-of-two
// L1 — share a simulation key, so a call replays each key once and the
// rest copy their representative's outcome: bitwise the reference at every
// thread count, with only representatives reaching the simulator and the
// copies' accesses on exec.batch.shared_accesses. Without a workload uid
// there is no key, and nothing folds.
TEST(BatchEquivalence, EqualKeysSimulateOnce) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  DseContext context;
  context.workload = make_stencil_workload(64);
  context.instructions0 = 4'000;
  context.per_core_cap = 2'000;

  //                               a0    a1    a2   n  issue rob
  const std::vector<double> base{0.5, 1.0, 1.0, 2, 2, 32};
  std::vector<double> fu_twin = base;
  fu_twin[kAxisA0] = 0.25;
  std::vector<double> l1_twin = base;
  l1_twin[kAxisA1] = 0.75;
  const std::vector<double> one_core{0.5, 1.0, 1.0, 1, 2, 32};
  const std::vector<std::vector<double>> points{base, fu_twin, one_core, base, l1_twin};
  // Representatives are the first of each key in point order.
  const std::vector<bool> representative{true, false, true, false, false};
  const std::size_t distinct_keys = 2;

  // The fold's premise: the twins build the same machine as `base`.
  const sim::SystemConfig base_config = config_for_design(context, base);
  for (const std::vector<double>& twin : {fu_twin, l1_twin}) {
    const sim::SystemConfig config = config_for_design(context, twin);
    ASSERT_EQ(config.core.functional_units, base_config.core.functional_units);
    ASSERT_EQ(config.hierarchy.l1_geometry.size_bytes,
              base_config.hierarchy.l1_geometry.size_bytes);
    ASSERT_EQ(config.hierarchy.l2_geometry.size_bytes,
              base_config.hierarchy.l2_geometry.size_bytes);
  }

  std::vector<BatchSimOutcome> reference;
  std::vector<std::vector<double>> representatives;
  std::uint64_t alias_accesses = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    reference.push_back(simulate_design_time_reference(context, points[i]));
    if (representative[i])
      representatives.push_back(points[i]);
    else
      alias_accesses += reference[i].memory_accesses;
  }

  const bool live = C2B_OBS_ACTIVE();
  obs::Registry& registry = obs::Registry::global();
  const auto counter = [&registry](const char* name) { return registry.counter(name).value(); };
  exec::set_thread_count(1);
  if (live) registry.reset_values();
  (void)simulate_design_times_batched(context, representatives);
  const std::uint64_t representative_runs = live ? counter("sim.system.runs") : 0;
  if (live) {
    ASSERT_GT(representative_runs, 0u);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::set_thread_count(threads);
    if (live) registry.reset_values();
    BatchReplayStats stats;
    const std::vector<BatchSimOutcome> outcomes =
        simulate_design_times_batched(context, points, &stats);
    ASSERT_EQ(outcomes.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(outcomes[i].time),
                std::bit_cast<std::uint64_t>(reference[i].time))
          << "threads " << threads << " point " << i;
      EXPECT_EQ(outcomes[i].memory_accesses, reference[i].memory_accesses)
          << "threads " << threads << " point " << i;
    }
    EXPECT_EQ(stats.members, points.size());
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.simulated, distinct_keys);
    if (live) {
      EXPECT_EQ(counter("sim.system.runs"), representative_runs) << "threads " << threads;
      EXPECT_EQ(counter("exec.batch.shared_accesses"), alias_accesses) << "threads " << threads;
      EXPECT_EQ(counter("exec.batch.simulated"), distinct_keys);
    }
  }

  // No uid, no key: every point replays.
  context.workload.uid.clear();
  exec::set_thread_count(2);
  if (live) registry.reset_values();
  BatchReplayStats stats;
  const std::vector<BatchSimOutcome> outcomes =
      simulate_design_times_batched(context, points, &stats);
  EXPECT_EQ(stats.members, points.size());
  EXPECT_EQ(stats.simulated, stats.members);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(outcomes[i].time),
              std::bit_cast<std::uint64_t>(reference[i].time))
        << "uid-less point " << i;
  if (live) {
    EXPECT_EQ(counter("exec.batch.shared_accesses"), 0u);
  }
}

// Long-stream lockstep batch: 16 members sharing one 200k-record stream.
// Residency must stay within a handful of chunks (not O(stream)), and every
// member must match its solo replay bitwise.
TEST(BatchEquivalence, LongStreamResidencyStaysBounded) {
  ZipfStreamGenerator::Params p;
  p.working_set_lines = 1 << 12;
  p.zipf_exponent = 0.8;
  p.f_mem = 0.3;
  p.write_ratio = 0.25;
  p.seed = 77;
  const std::uint64_t kRecords = 200'000;
  const std::size_t kMembers = 16;

  std::vector<sim::SystemConfig> configs(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m) {
    configs[m].core.issue_width = 1u + static_cast<std::uint32_t>(m % 4) * 2u;
    if (configs[m].core.issue_width == 7) configs[m].core.issue_width = 8;
    configs[m].core.rob_size = 32u << (m % 3);
    configs[m].core.functional_units = 2u + static_cast<std::uint32_t>(m % 3);
  }

  TraceChunkStore store;
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), kRecords);
  store.set_readers(static_cast<std::uint32_t>(kMembers));
  std::vector<ChunkCursor> cursors;
  cursors.reserve(kMembers);
  std::vector<std::vector<TraceCursor*>> member_cursors(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m) {
    cursors.emplace_back(store, id);
    member_cursors[m] = {&cursors.back()};
  }
  const std::vector<sim::SystemResult> batched =
      sim::simulate_system_batched(configs, member_cursors, sim::ReplayMode::kWithCamat);

  // One lockstep quantum of spread across members -> at most a few chunks
  // resident; the stream itself is ~49 chunks.
  EXPECT_LE(store.stats().max_resident_records, 4u * store.chunk_capacity());
  EXPECT_EQ(store.stats().records_generated, kRecords);
  EXPECT_EQ(store.stats().regen_avoided_records, (kMembers - 1) * kRecords);

  for (std::size_t m = 0; m < kMembers; ++m) {
    GeneratorTraceCursor solo(std::make_unique<ZipfStreamGenerator>(p), kRecords);
    std::vector<TraceCursor*> solo_cursors{&solo};
    const sim::SystemResult reference =
        sim::simulate_system_streaming(configs[m], solo_cursors);
    EXPECT_EQ(batched[m].cycles, reference.cycles) << "member " << m;
    EXPECT_EQ(batched[m].cores[0].instructions, reference.cores[0].instructions);
    EXPECT_EQ(batched[m].cores[0].memory_accesses, reference.cores[0].memory_accesses);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[m].cores[0].cpi),
              std::bit_cast<std::uint64_t>(reference.cores[0].cpi));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[m].cores[0].camat.camat_value),
              std::bit_cast<std::uint64_t>(reference.cores[0].camat.camat_value));
  }
}

}  // namespace
}  // namespace c2b
