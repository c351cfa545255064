// Flight-recorder writer/reader tests: event-schema round-trip through the
// JSONL file, crash-truncation tolerance, I/O-failure drop accounting,
// thread-equivalent event multisets (both for raw writers and for the real
// batched sweep, whose pool workers also advance the caller's progress
// meter), and the journal's zero-interference guarantee (sweep
// results bit-identical with the recorder on).

#include "c2b/obs/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/progress.h"
#include "c2b/obs/registry.h"
#include "c2b/trace/workloads.h"

namespace c2b::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "c2b_journal_" + name;
}

TEST(JournalEventTest, BuildsEscapedFields) {
  JournalEvent event("demo");
  event.str("label", "a \"quoted\" \\ back\nslash");
  event.num("value", 1.5);
  event.count("hits", 42);
  EXPECT_EQ(event.type(), "demo");
  EXPECT_NE(event.fields().find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(event.fields().find("\\u000a"), std::string::npos);
  EXPECT_NE(event.fields().find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(event.fields().find("\"hits\":42"), std::string::npos);
}

TEST(JournalTest, EventSchemaRoundTrip) {
  const std::string path = temp_path("roundtrip.jsonl");
  {
    auto journal = RunJournal::open(path);
    ASSERT_NE(journal, nullptr);
    journal->emit(JournalEvent("run_begin")
                      .str("command", "dse")
                      .str("argv", "--workload stencil \"quoted\"")
                      .count("threads", 8));
    journal->emit(JournalEvent("class_completed")
                      .count("cores", 4)
                      .count("members", 16)
                      .num("wall_ms", 12.625)
                      .str("config", "n=4 a0=1 a1=0.5 a2=2"));
    journal->emit(JournalEvent("weird").str("text", "tab\there\nnewline"));
    EXPECT_EQ(journal->written_events(), 3u);
    EXPECT_EQ(journal->dropped_events(), 0u);
  }  // destructor flushes

  JournalReadStats stats;
  const std::vector<JournalRecord> records = read_journal(path, &stats);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.parsed, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(records.size(), 3u);

  EXPECT_EQ(records[0].type, "run_begin");
  EXPECT_EQ(records[0].str("command"), "dse");
  EXPECT_EQ(records[0].str("argv"), "--workload stencil \"quoted\"");
  EXPECT_EQ(records[0].num("threads"), 8.0);
  EXPECT_GE(records[0].ts_ms, 0.0);

  EXPECT_EQ(records[1].type, "class_completed");
  EXPECT_EQ(records[1].num("cores"), 4.0);
  EXPECT_EQ(records[1].num("members"), 16.0);
  EXPECT_DOUBLE_EQ(records[1].num("wall_ms"), 12.625);
  EXPECT_EQ(records[1].str("config"), "n=4 a0=1 a1=0.5 a2=2");
  EXPECT_TRUE(records[1].has("wall_ms"));
  EXPECT_FALSE(records[1].has("missing"));
  EXPECT_EQ(records[1].num("missing", -1.0), -1.0);

  EXPECT_EQ(records[2].str("text"), "tab\there\nnewline");

  // Timestamps are monotone in emission order.
  EXPECT_LE(records[0].ts_ms, records[1].ts_ms);
  EXPECT_LE(records[1].ts_ms, records[2].ts_ms);
}

TEST(JournalTest, ReaderSkipsTornFinalLine) {
  const std::string path = temp_path("torn.jsonl");
  {
    auto journal = RunJournal::open(path);
    ASSERT_NE(journal, nullptr);
    for (int i = 0; i < 5; ++i)
      journal->emit(JournalEvent("tick").count("i", static_cast<std::uint64_t>(i)));
  }
  // Simulate a crash mid-write: chop the file a few bytes into the last
  // line, leaving a torn JSON fragment with no newline.
  std::string contents;
  {
    std::ifstream in(path);
    contents.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t last_line_start = contents.rfind("{\"type\"");
  ASSERT_NE(last_line_start, std::string::npos);
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents.substr(0, last_line_start + 12);  // torn mid-object
  }

  JournalReadStats stats;
  const std::vector<JournalRecord> records = read_journal(path, &stats);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(stats.parsed, 4u);
  EXPECT_EQ(stats.skipped, 1u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].num("i"), static_cast<double>(i));
}

TEST(JournalTest, ParseRejectsMalformedLines) {
  JournalRecord record;
  EXPECT_FALSE(parse_journal_line("", record));
  EXPECT_FALSE(parse_journal_line("not json", record));
  EXPECT_FALSE(parse_journal_line("{}", record));  // no type
  EXPECT_FALSE(parse_journal_line("{\"type\":\"x\"", record));          // unclosed
  EXPECT_FALSE(parse_journal_line("{\"type\":\"x\",\"v\":}", record));  // no value
  EXPECT_FALSE(parse_journal_line("{\"type\":\"x\",\"v\":12a}", record));
  EXPECT_FALSE(parse_journal_line("{\"type\":\"x\"} trailing", record));
  EXPECT_TRUE(parse_journal_line("{\"type\":\"x\"}\r\n", record));
  EXPECT_TRUE(parse_journal_line("  {\"type\":\"x\", \"v\": 3}  ", record));
  EXPECT_EQ(record.num("v"), 3.0);
}

TEST(JournalTest, MissingFileReadsEmpty) {
  JournalReadStats stats;
  const auto records = read_journal(temp_path("does_not_exist.jsonl"), &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.lines, 0u);
}

TEST(JournalTest, DropsAreCountedOnIoFailure) {
  // /dev/full accepts the open but fails every write — exactly the
  // disk-full failure mode the drop counter exists for.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "/dev/full not available";
  RunJournal::Options options;
  options.buffer_events = 1;  // flush (and fail) on every emit
  auto journal = RunJournal::open("/dev/full", options);
  ASSERT_NE(journal, nullptr);
  for (int i = 0; i < 3; ++i) journal->emit(JournalEvent("tick"));
  journal->flush();
  EXPECT_EQ(journal->written_events(), 3u);
  EXPECT_EQ(journal->dropped_events(), 3u);

  const std::vector<DropCounter> counters = drop_counters(journal.get());
  const auto it = std::find_if(counters.begin(), counters.end(),
                               [](const DropCounter& c) { return c.name == "obs.journal"; });
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->dropped, 3u);
}

TEST(JournalTest, DropCountersAlwaysIncludeSpanRing) {
  const std::vector<DropCounter> counters = drop_counters(nullptr);
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "obs.span_ring");
}

TEST(JournalTest, ActiveJournalInstallAndClear) {
  EXPECT_EQ(active_journal(), nullptr);
  auto journal = RunJournal::open(temp_path("active.jsonl"));
  ASSERT_NE(journal, nullptr);
  set_active_journal(journal.get());
  EXPECT_EQ(active_journal(), journal.get());
  set_active_journal(nullptr);
  EXPECT_EQ(active_journal(), nullptr);
}

TEST(JournalTest, MetricsSnapshotCarriesRegistryValues) {
  Registry::global().counter("test.journal.snapshot_counter").add(7);
  Registry::global().gauge("test.journal.snapshot_gauge").set(2.5);
  const std::string path = temp_path("metrics.jsonl");
  {
    auto journal = RunJournal::open(path);
    ASSERT_NE(journal, nullptr);
    journal->snapshot_metrics(/*force=*/true);
  }
  const auto records = read_journal(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, "metrics");
  EXPECT_EQ(records[0].num("test.journal.snapshot_counter"), 7.0);
  EXPECT_DOUBLE_EQ(records[0].num("test.journal.snapshot_gauge"), 2.5);
}

TEST(JournalTest, SnapshotRateLimitHonored) {
  const std::string path = temp_path("ratelimit.jsonl");
  {
    RunJournal::Options options;
    options.metrics_interval_ms = 60'000;  // nothing after the first within a test run
    auto journal = RunJournal::open(path, options);
    ASSERT_NE(journal, nullptr);
    journal->snapshot_metrics();
    journal->snapshot_metrics();
    journal->snapshot_metrics();
    journal->snapshot_metrics(/*force=*/true);
  }
  EXPECT_EQ(read_journal(path).size(), 2u);
}

/// Strip the wall-clock fields (ts_ms, wall_ms) and sort: the canonical
/// form in which journals from different thread counts must agree.
std::vector<std::string> canonical_multiset(const std::vector<JournalRecord>& records,
                                            const std::string& type_prefix) {
  std::vector<std::string> out;
  for (const JournalRecord& record : records) {
    if (record.type.rfind(type_prefix, 0) != 0) continue;
    std::string line = record.type;
    for (const auto& [key, value] : record.strings) line += "|" + key + "=" + value;
    for (const auto& [key, value] : record.numbers) {
      if (key == "wall_ms") continue;
      char buf[48];
      std::snprintf(buf, sizeof buf, "|%s=%.17g", key.c_str(), value);
      line += buf;
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(JournalTest, ConcurrentWritersProduceEquivalentMultiset) {
  // The same 64 logical events, emitted by 1, 2, and 8 threads: every
  // journal must hold the same multiset (interleaving may differ), every
  // line must be intact (no torn/interleaved writes).
  std::vector<std::vector<std::string>> multisets;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string path = temp_path("writers" + std::to_string(threads) + ".jsonl");
    {
      RunJournal::Options options;
      options.buffer_events = 4;  // exercise concurrent flushes
      auto journal = RunJournal::open(path, options);
      ASSERT_NE(journal, nullptr);
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&journal, t, threads] {
          for (std::uint64_t i = t; i < 64; i += threads) {
            std::string tag = "t";
            tag += std::to_string(i % 7);
            journal->emit(JournalEvent("work").count("item", i).str("tag", tag));
          }
        });
      for (std::thread& worker : workers) worker.join();
      EXPECT_EQ(journal->written_events(), 64u);
      EXPECT_EQ(journal->dropped_events(), 0u);
    }
    JournalReadStats stats;
    const auto records = read_journal(path, &stats);
    EXPECT_EQ(stats.skipped, 0u) << "torn line with " << threads << " writers";
    ASSERT_EQ(records.size(), 64u);
    multisets.push_back(canonical_multiset(records, "work"));
  }
  EXPECT_EQ(multisets[0], multisets[1]);
  EXPECT_EQ(multisets[0], multisets[2]);
}

// ---------------------------------------------------------------------------
// End-to-end: the batched sweep records through the journal

DseContext small_context() {
  DseContext context;
  const auto catalog = workload_catalog();
  for (const WorkloadSpec& spec : catalog)
    if (spec.name == "stencil") context.workload = spec;
  context.instructions0 = 20'000;
  context.per_core_cap = 5'000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  return context;
}

std::vector<std::vector<double>> small_points(const DseContext& context) {
  DseAxes axes;
  axes.a0 = {1.0, 4.0};
  axes.a1 = {0.5, 1.0};
  axes.a2 = {1.0, 2.0};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  const GridSpace space = make_design_space(axes);
  std::vector<std::vector<double>> points;
  space.for_each([&](std::size_t, const std::vector<double>& point) {
    if (design_feasible(context, point)) points.push_back(point);
  });
  return points;
}

TEST(JournalSweepTest, ClassEventMultisetIdenticalAcrossThreadCounts) {
  const DseContext context = small_context();
  const std::vector<std::vector<double>> points = small_points(context);
  ASSERT_FALSE(points.empty());

  std::vector<std::vector<std::string>> scheduled, completed;
  std::vector<std::vector<double>> all_times;
  // clear() deliberately keeps the disk tier (the cross-run layer); this
  // test needs genuinely cold runs, so drop any $C2B_SIM_CACHE_DIR tier.
  exec::SimCache::global().detach_disk_tier();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::SimCache::global().clear();  // every run simulates from scratch
    exec::set_thread_count(threads);
    const std::string path = temp_path("sweep" + std::to_string(threads) + ".jsonl");
    std::vector<BatchSimOutcome> outcomes;
    // The meter is installed on this thread only; pool workers advance it
    // from inside their chunks. The interval is far beyond any run, so the
    // status line is never redrawn.
    ProgressMeter::Options meter_options;
    meter_options.interval_ms = 1'000'000'000'000;
    ProgressMeter meter(meter_options);
    {
      auto journal = RunJournal::open(path);
      ASSERT_NE(journal, nullptr);
      set_active_journal(journal.get());
      set_active_progress(&meter);
      outcomes = simulate_design_times_batched(context, points, nullptr);
      set_active_progress(nullptr);
      set_active_journal(nullptr);
    }
    EXPECT_GT(meter.total(), 0.0) << "threads " << threads;
    EXPECT_EQ(meter.completed(), meter.total()) << "threads " << threads;
    const auto records = read_journal(path);
    scheduled.push_back(canonical_multiset(records, "class_scheduled"));
    completed.push_back(canonical_multiset(records, "class_completed"));
    EXPECT_FALSE(scheduled.back().empty());
    EXPECT_EQ(scheduled.back().size(), completed.back().size());
    std::vector<double> times;
    for (const BatchSimOutcome& outcome : outcomes) times.push_back(outcome.time);
    all_times.push_back(std::move(times));
  }
  exec::set_thread_count(0);
  EXPECT_EQ(scheduled[0], scheduled[1]);
  EXPECT_EQ(scheduled[0], scheduled[2]);
  EXPECT_EQ(completed[0], completed[1]);
  EXPECT_EQ(completed[0], completed[2]);
  // And the sweep itself stays bit-identical across thread counts.
  EXPECT_EQ(all_times[0], all_times[1]);
  EXPECT_EQ(all_times[0], all_times[2]);
}

TEST(JournalSweepTest, RecorderDoesNotPerturbSweepResults) {
  const DseContext context = small_context();
  const std::vector<std::vector<double>> points = small_points(context);

  exec::SimCache::global().clear();
  const std::vector<BatchSimOutcome> plain =
      simulate_design_times_batched(context, points, nullptr);

  exec::SimCache::global().clear();
  std::vector<BatchSimOutcome> recorded;
  {
    auto journal = RunJournal::open(temp_path("perturb.jsonl"));
    ASSERT_NE(journal, nullptr);
    set_active_journal(journal.get());
    recorded = simulate_design_times_batched(context, points, nullptr);
    set_active_journal(nullptr);
  }

  ASSERT_EQ(plain.size(), recorded.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].time, recorded[i].time) << "point " << i;  // bitwise
    EXPECT_EQ(plain[i].memory_accesses, recorded[i].memory_accesses);
  }
}

TEST(JournalSweepTest, CachePeelEventAccountsSecondRun) {
  const DseContext context = small_context();
  const std::vector<std::vector<double>> points = small_points(context);

  // The first sweep must be a true cold miss for every point: detach any
  // $C2B_SIM_CACHE_DIR disk tier (clear() keeps it by design).
  exec::SimCache::global().detach_disk_tier();
  exec::SimCache::global().clear();
  const std::string path = temp_path("peel.jsonl");
  {
    auto journal = RunJournal::open(path);
    ASSERT_NE(journal, nullptr);
    set_active_journal(journal.get());
    simulate_design_times_batched(context, points, nullptr);  // cold
    simulate_design_times_batched(context, points, nullptr);  // fully cached
    set_active_journal(nullptr);
  }
  const auto records = read_journal(path);
  std::vector<const JournalRecord*> peels;
  for (const JournalRecord& record : records)
    if (record.type == "cache_peel") peels.push_back(&record);
  ASSERT_EQ(peels.size(), 2u);
  EXPECT_EQ(peels[0]->num("hits"), 0.0);
  EXPECT_EQ(peels[1]->num("hits"), static_cast<double>(points.size()));
  EXPECT_EQ(peels[1]->num("misses"), 0.0);
}

}  // namespace
}  // namespace c2b::obs
