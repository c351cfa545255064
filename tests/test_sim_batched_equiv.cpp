// Batch-equivalence stress tests (ctest label: perf, excluded from the
// quick suite). The batched replay engine — shared chunk store, lockstep
// replay kernel, DSE-level equivalence-class scheduling — must be
// bitwise indistinguishable from the per-cycle reference at every thread
// count, with each class's trace generated once per call however many
// lane-bounded units read it.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/check/generators.h"
#include "c2b/check/oracles.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"
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

// A wide batch (more members than one unit holds, forcing the unit split)
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

// A DSE context whose serial and parallel windows both sit at the 2,000-
// record cap for every N below, so a class of N cores reads (1 + N)
// streams of exactly 2,000 records.
DseContext capped_context() {
  DseContext context;
  context.workload = make_fluidanimate_like_workload();
  context.instructions0 = 1'000'000;
  context.per_core_cap = 2'000;
  return context;
}
constexpr std::uint64_t kCappedWindow = 2'000;

/// 24 design points with distinct simulation keys, all with `cores` cores
/// (one trace-equivalence class).
std::vector<std::vector<double>> class_points(double cores) {
  std::vector<std::vector<double>> points;
  for (const double issue : {1.0, 2.0, 4.0, 8.0})
    for (const double rob : {16.0, 32.0, 64.0, 128.0, 192.0, 256.0})
      points.push_back({1.0, 0.5, 1.0, cores, issue, rob});
  return points;
}

/// (cores, members) of each class_scheduled event, in unit order.
std::vector<std::pair<double, double>> scheduled_units(const DseContext& context,
                                                       const std::vector<std::vector<double>>& points,
                                                       const std::string& name) {
  const std::string path = ::testing::TempDir() + "c2b_units_" + name + ".jsonl";
  {
    auto journal = obs::RunJournal::open(path);
    EXPECT_NE(journal, nullptr);
    obs::set_active_journal(journal.get());
    simulate_design_times_batched(context, points);
    obs::set_active_journal(nullptr);
  }
  std::vector<std::pair<double, double>> units;
  for (const obs::JournalRecord& record : obs::read_journal(path))
    if (record.type == "class_scheduled")
      units.emplace_back(record.num("cores"), record.num("members"));
  return units;
}

// A unit holds the largest power of two of members, at most 16, with
// members x cores <= 32; units go out widest-first by members x cores
// (ties in class order), and the layout is the same at every thread count.
TEST(BatchEquivalence, UnitsRespectTheLaneBoundWidestFirst) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  const DseContext context = capped_context();
  std::vector<std::vector<double>> points;
  for (const double cores : {12.0, 1.0, 4.0, 40.0}) {
    std::vector<std::vector<double>> more = class_points(cores);
    if (cores == 40.0) more.resize(3);  // wider than the lane bound alone
    points.insert(points.end(), more.begin(), more.end());
  }
  // Classes in core order: N=1 24 -> 16+8, N=4 24 -> 8+8+8, N=12 24 ->
  // twelve 2s, N=40 3 -> three 1s (a lone member always fits).
  std::vector<std::pair<double, double>> expected{{40, 1}, {40, 1}, {40, 1},
                                                  {4, 8},  {4, 8},  {4, 8}};
  for (int i = 0; i < 12; ++i) expected.emplace_back(12, 2);
  expected.emplace_back(1, 16);
  expected.emplace_back(1, 8);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exec::set_thread_count(threads);
    const auto units =
        scheduled_units(context, points, std::string("t").append(std::to_string(threads)));
    EXPECT_EQ(units, expected) << "threads " << threads;
    double previous_lanes = 1e300;
    for (const auto& [cores, members] : units) {
      const auto width = static_cast<std::size_t>(members);
      EXPECT_EQ(width & (width - 1), 0u) << "not a power of two: " << members;
      EXPECT_LE(members, 16.0);
      EXPECT_TRUE(members * cores <= 32.0 || members == 1.0) << cores << " x " << members;
      EXPECT_LE(members * cores, previous_lanes) << "not widest-first";
      previous_lanes = members * cores;
    }
  }
}

// However many units a class splits into, a call generates its trace once:
// (1 + N) streams of one window each. Every member after the first reads
// the whole trace instead of regenerating it, which is what chunks_shared
// and regen_avoided_accesses count. A class wider than one unit (N=4, 24
// members -> three units) matches the reference bitwise at threads 1, 2, 8.
TEST(BatchEquivalence, WideClassGeneratesItsTraceOnce) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  const DseContext context = capped_context();
  const std::vector<std::vector<double>> points = class_points(4.0);
  const std::uint64_t streams = 1 + 4;

  std::vector<BatchSimOutcome> reference;
  for (const std::vector<double>& point : points)
    reference.push_back(simulate_design_time_reference(context, point));

  BatchReplayStats lone;
  simulate_design_times_batched(context, {points.front()}, &lone);
  EXPECT_EQ(lone.records_generated, streams * kCappedWindow);
  EXPECT_EQ(lone.chunks_shared, 0u);
  EXPECT_EQ(lone.regen_avoided_accesses, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::set_thread_count(threads);
    BatchReplayStats stats;
    const std::vector<BatchSimOutcome> outcomes =
        simulate_design_times_batched(context, points, &stats);
    EXPECT_EQ(stats.classes, 1u);
    EXPECT_EQ(stats.simulated, points.size());
    EXPECT_EQ(stats.records_generated, streams * kCappedWindow) << "threads " << threads;
    // One chunk per 2,000-record stream; every member reads every access
    // of the trace, so any member's access count is the trace's.
    EXPECT_EQ(stats.chunks_shared, (points.size() - 1) * streams);
    EXPECT_EQ(stats.regen_avoided_accesses,
              (points.size() - 1) * reference.front().memory_accesses);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(outcomes[i].time),
                std::bit_cast<std::uint64_t>(reference[i].time))
          << "threads " << threads << " point " << i;
      ASSERT_EQ(outcomes[i].memory_accesses, reference[i].memory_accesses);
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

// Long-stream lockstep batch: 16 members sharing one 200k-record stream,
// generated once; every member must match its solo replay of the
// materialized stream bitwise.
TEST(BatchEquivalence, LongStreamSixteenMembersMatchSolo) {
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
  std::vector<ChunkCursor> cursors;
  cursors.reserve(kMembers);
  std::vector<std::vector<TraceCursor*>> member_cursors(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m) {
    cursors.emplace_back(store, id);
    member_cursors[m] = {&cursors.back()};
  }
  const std::vector<sim::SystemResult> batched =
      sim::simulate_system_batched(configs, member_cursors, sim::ReplayMode::kWithCamat);

  EXPECT_EQ(store.stats().records_generated, kRecords);

  const std::vector<Trace> solo_trace{ZipfStreamGenerator(p).generate(kRecords)};
  for (std::size_t m = 0; m < kMembers; ++m) {
    const sim::SystemResult reference = sim::simulate_system(configs[m], solo_trace);
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
