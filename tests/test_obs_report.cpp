// Post-mortem report builder tests: exact quantiles, journal-record
// aggregation (phases fold by name, cache/batch accounting, savings
// attribution), the rendered text, and the objective heatmap CSV.

#include "c2b/obs/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace c2b::obs {
namespace {

JournalRecord make(const std::string& type, double ts_ms) {
  JournalRecord record;
  record.type = type;
  record.ts_ms = ts_ms;
  return record;
}

TEST(ExactQuantileTest, MatchesHandComputedValues) {
  EXPECT_EQ(exact_quantile({}, 0.5), 0.0);
  EXPECT_EQ(exact_quantile({7.0}, 0.0), 7.0);
  EXPECT_EQ(exact_quantile({7.0}, 1.0), 7.0);
  // Sorted {1,2,3,4}: p50 sits halfway between 2 and 3.
  EXPECT_DOUBLE_EQ(exact_quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(exact_quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  // {10,20,30,40,50}: p90 is at position 3.6 -> 40 + 0.6*10.
  EXPECT_DOUBLE_EQ(exact_quantile({10, 20, 30, 40, 50}, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(exact_quantile({10, 20, 30, 40, 50}, 2.0), 50.0);  // clamped
}

std::vector<JournalRecord> synthetic_run() {
  std::vector<JournalRecord> records;

  auto run_begin = make("run_begin", 0.0);
  run_begin.strings["command"] = "dse";
  run_begin.numbers["threads"] = 4.0;
  records.push_back(run_begin);

  auto config = make("sweep_config", 0.1);
  config.strings["workload"] = "stencil";
  config.strings["workload_uid"] = "stencil/v1";
  records.push_back(config);

  auto peel = make("cache_peel", 1.0);
  peel.numbers["points"] = 11.0;
  peel.numbers["hits"] = 4.0;
  peel.numbers["misses"] = 7.0;  // 6 simulated (class_completed below) + 1 shared
  peel.numbers["shared"] = 1.0;
  records.push_back(peel);

  for (int round = 0; round < 2; ++round) {
    auto phase = make("phase_end", 2.0 + round);
    phase.strings["name"] = "sweep";
    phase.numbers["wall_ms"] = 10.0;
    records.push_back(phase);
  }
  auto plan = make("phase_end", 5.0);
  plan.strings["name"] = "plan";
  plan.numbers["wall_ms"] = 2.0;
  records.push_back(plan);

  const double walls[] = {2.0, 4.0, 6.0};
  for (int i = 0; i < 3; ++i) {
    auto cls = make("class_completed", 6.0 + i);
    cls.numbers["cores"] = 1.0 + i;
    cls.numbers["members"] = 2.0;
    cls.numbers["wall_ms"] = walls[i];
    cls.strings["config"] = "n=" + std::to_string(1 + i) + " a0=1";
    records.push_back(cls);
  }

  auto batch = make("batch_stats", 9.0);
  batch.numbers["chunks_shared"] = 5.0;
  batch.numbers["regen_avoided_accesses"] = 1000.0;
  records.push_back(batch);

  const double objectives[] = {5.0, 3.0, 4.0, 6.0};
  for (int i = 0; i < 4; ++i) {
    auto point = make("point", 10.0 + i);
    point.numbers["n"] = i < 2 ? 1.0 : 2.0;
    point.numbers["a0"] = 1.0;
    point.numbers["a1"] = i % 2 == 0 ? 0.5 : 1.0;
    point.numbers["a2"] = 2.0;
    point.numbers["objective"] = objectives[i];
    point.numbers["cached"] = i == 1 ? 1.0 : 0.0;
    records.push_back(point);
  }

  auto end = make("run_end", 50.0);
  end.numbers["exit_code"] = 0.0;
  records.push_back(end);
  return records;
}

TEST(BuildReportTest, AggregatesSyntheticRun) {
  const RunReport report = build_report(synthetic_run());

  EXPECT_EQ(report.command, "dse");
  EXPECT_EQ(report.workload, "stencil");
  EXPECT_EQ(report.workload_uid, "stencil/v1");
  EXPECT_EQ(report.threads, 4.0);
  EXPECT_TRUE(report.saw_run_end);
  EXPECT_DOUBLE_EQ(report.total_wall_ms, 50.0);

  // Phases fold by name: two "sweep" ends merge into one row.
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].name, "sweep");
  EXPECT_DOUBLE_EQ(report.phases[0].wall_ms, 20.0);
  EXPECT_EQ(report.phases[0].count, 2u);
  EXPECT_EQ(report.phases[1].name, "plan");
  EXPECT_DOUBLE_EQ(report.phases[1].wall_ms, 2.0);

  EXPECT_DOUBLE_EQ(report.points, 11.0);
  EXPECT_DOUBLE_EQ(report.cache_hits, 4.0);
  EXPECT_DOUBLE_EQ(report.shared, 1.0);
  EXPECT_DOUBLE_EQ(report.chunks_shared, 5.0);
  EXPECT_DOUBLE_EQ(report.regen_avoided_accesses, 1000.0);

  // Units are sorted slowest-first; totals cover all three.
  ASSERT_EQ(report.units.size(), 3u);
  EXPECT_DOUBLE_EQ(report.units[0].wall_ms, 6.0);
  EXPECT_DOUBLE_EQ(report.units[2].wall_ms, 2.0);
  EXPECT_DOUBLE_EQ(report.simulated_members, 6.0);
  EXPECT_DOUBLE_EQ(report.simulated_wall_ms, 12.0);
  EXPECT_DOUBLE_EQ(report.unit_wall_p50, 4.0);

  // One batched call: cache_peel at 1 ms, its last unit done at 8 ms, on
  // run_begin's 4 threads (no pool_start in this journal).
  ASSERT_EQ(report.replay_calls.size(), 1u);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].units, 3.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].wall_ms, 7.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].unit_ms, 12.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].longest_ms, 6.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].threads, 4.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].efficiency(), 12.0 / 28.0);

  // Savings: (4 hits + 1 shared) x (12 ms / 6 members) = 10 ms ->
  // (12+10)/12 speedup; the memory tier carries the hits' 8 ms.
  EXPECT_DOUBLE_EQ(report.est_saved_ms, 10.0);
  EXPECT_DOUBLE_EQ(report.batch_speedup, 22.0 / 12.0);
  EXPECT_DOUBLE_EQ(report.est_saved_mem_ms, 8.0);
  EXPECT_DOUBLE_EQ(report.est_saved_disk_ms, 0.0);

  ASSERT_EQ(report.explored.size(), 4u);
  EXPECT_TRUE(report.explored[1].cached);
  EXPECT_FALSE(report.explored[0].cached);
}

TEST(BuildReportTest, MidRunJournalFlagged) {
  auto records = synthetic_run();
  records.pop_back();  // drop run_end
  const RunReport report = build_report(records);
  EXPECT_FALSE(report.saw_run_end);
  const std::string text = render_report(report);
  EXPECT_NE(text.find("journal ends mid-run"), std::string::npos);
}

TEST(RenderReportTest, ContainsAllSections) {
  JournalReadStats stats;
  stats.lines = 20;
  stats.parsed = 19;
  stats.skipped = 1;
  const std::string text = render_report(build_report(synthetic_run(), stats), 2);

  EXPECT_NE(text.find("== run =="), std::string::npos);
  EXPECT_NE(text.find("workload     stencil (uid stencil/v1)"), std::string::npos);
  EXPECT_NE(text.find("torn/corrupt skipped"), std::string::npos);
  EXPECT_NE(text.find("== phase time breakdown =="), std::string::npos);
  EXPECT_NE(text.find("sweep"), std::string::npos);
  EXPECT_NE(text.find("== cache/batch effectiveness =="), std::string::npos);
  EXPECT_NE(text.find("cache hits peeled      4 (36.4%)"), std::string::npos);
  EXPECT_NE(text.find("shared in-call         1 (9.1%)"), std::string::npos);
  EXPECT_NE(text.find("simulated members      6 in 3 work units"), std::string::npos);
  EXPECT_NE(text.find("est. savings           10.00 ms"), std::string::npos);
  EXPECT_NE(text.find("== per-unit sim time =="), std::string::npos);
  EXPECT_NE(text.find("top 2 slowest work units:"), std::string::npos);
  EXPECT_NE(text.find("n=3 a0=1"), std::string::npos);  // slowest unit's config
  EXPECT_NE(text.find("call 1      3 units | wall 7.00 ms | unit time 12.00 ms | "
                      "efficiency 43% of 4 threads | longest unit 6.00 ms"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("== explored space =="), std::string::npos);
  EXPECT_NE(text.find("best    objective=3"), std::string::npos);
}

TEST(BuildReportTest, ReplayBalanceIsPerBatchedCall) {
  // Two calls on a 2-thread pool; the all-hit call between them replays
  // nothing and gets no line.
  std::vector<JournalRecord> records;
  auto pool = make("pool_start", 0.5);
  pool.numbers["threads"] = 2.0;
  records.push_back(pool);
  const auto unit = [](double ts_ms, double wall_ms) {
    auto record = make("class_completed", ts_ms);
    record.numbers["cores"] = 4.0;
    record.numbers["members"] = 8.0;
    record.numbers["wall_ms"] = wall_ms;
    return record;
  };
  records.push_back(make("cache_peel", 10.0));
  records.push_back(unit(30.0, 20.0));
  records.push_back(unit(40.0, 25.0));
  records.push_back(make("cache_peel", 50.0));  // all hits
  records.push_back(make("cache_peel", 100.0));
  records.push_back(unit(190.0, 90.0));

  const RunReport report = build_report(records);
  ASSERT_EQ(report.replay_calls.size(), 2u);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].wall_ms, 30.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].unit_ms, 45.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].longest_ms, 25.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[0].efficiency(), 0.75);
  EXPECT_DOUBLE_EQ(report.replay_calls[1].units, 1.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[1].wall_ms, 90.0);
  EXPECT_DOUBLE_EQ(report.replay_calls[1].efficiency(), 0.5);  // one unit, two threads
  const std::string text = render_report(report);
  EXPECT_NE(text.find("call 2      1 units | wall 90.00 ms | unit time 90.00 ms | "
                      "efficiency 50% of 2 threads | longest unit 90.00 ms"),
            std::string::npos)
      << text;
}

TEST(HeatmapTest, MinObjectivePerCell) {
  const std::string csv = heatmap_csv(build_report(synthetic_run()));
  // Columns ordered by (a1, a2); rows by n_cores; cells are min objective.
  // n=1 has a1=0.5 -> 5.0 and a1=1 -> 3.0; n=2 has a1=0.5 -> 4.0, a1=1 -> 6.0.
  EXPECT_EQ(csv,
            "n_cores,a1=0.5/a2=2,a1=1/a2=2\n"
            "1,5,3\n"
            "2,4,6\n");
}

TEST(HeatmapTest, EmptyWithoutPointEvents) {
  EXPECT_TRUE(heatmap_csv(build_report({})).empty());
  const std::string text = render_report(build_report({}));
  EXPECT_NE(text.find("command      ?"), std::string::npos);
}

}  // namespace
}  // namespace c2b::obs
