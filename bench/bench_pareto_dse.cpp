// Pareto-DSE overhead benchmark: the same constrained factorial sweep run
// through plain run_full_dse (best-point only) and run_pareto_dse
// (frontier + per-constraint accounting). Both share the batched
// replay engine, so the measured delta is exactly the Pareto layer: the
// analytic power/area attachment, the O(n^2) dominance filter, and the
// per-constraint usage pass. Cold cache and one thread for both paths so
// memoization and scheduling never blur the A/B.
//
// The two runs are identity-checked first — the frontier must contain the
// plain optimum's grid point with a bitwise-equal time — then timed, and
// the overhead is emitted as `overhead_pct` in BENCH_pareto_dse.json for
// the perf-smoke CI gate (baseline caps it via `max_overhead_pct`).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/trace/workloads.h"

namespace c2b::bench {
namespace {

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

struct Scenario {
  std::string name;
  DseContext context;
  GridSpace space;
};

/// A constrained Fig.-12-style study: the default six-axis grid with
/// power and bandwidth budgets tight enough that every constraint kind
/// participates in the filter, on an APS-sized simulation window.
Scenario constrained_study(const std::string& name, WorkloadSpec workload,
                           double power_budget, double bw_budget) {
  Scenario s;
  s.name = name;
  s.context.workload = std::move(workload);
  s.context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                          .associativity = 4};
  s.context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                          .associativity = 8};
  s.context.instructions0 = 6'000;
  s.context.per_core_cap = 3'000;
  s.context.chip.total_area = 40.0;
  s.context.chip.shared_area = 2.0;
  s.context.power_budget = power_budget;
  s.context.bw_budget = bw_budget;
  s.space = make_design_space(DseAxes{});
  return s;
}

struct Measurement {
  std::string name;
  std::size_t grid_points = 0;
  std::size_t feasible = 0;
  std::size_t frontier = 0;
  double plain_ms = 0.0;
  double pareto_ms = 0.0;
  double overhead_pct = 0.0;
};

constexpr int kReps = 3;

int run_scenario(const Scenario& scenario, Measurement& m) {
  m.name = scenario.name;

  // Cold cache, one thread: isolate the frontier layer itself.
  exec::set_thread_count(1);
  exec::SimCache::global().set_enabled(false);

  // Untimed warmup + identity check: the frontier must carry the plain
  // optimum at a bitwise-equal time (it is feasible and time-minimal, so
  // nothing can dominate it).
  const FullDseResult plain = run_full_dse(scenario.context, scenario.space);
  const ParetoDseResult pareto = run_pareto_dse(scenario.context, scenario.space);
  m.grid_points = pareto.grid_points;
  m.feasible = pareto.feasible_count;
  m.frontier = pareto.frontier.size();
  if (plain.feasible_count != pareto.feasible_count) {
    std::fprintf(stderr, "%s: feasible counts diverged (%zu vs %zu)\n",
                 scenario.name.c_str(), plain.feasible_count, pareto.feasible_count);
    return 1;
  }
  const auto best = std::find_if(
      pareto.frontier.begin(), pareto.frontier.end(),
      [&](const FrontierPoint& fp) { return fp.flat_index == plain.best_index; });
  if (best == pareto.frontier.end() || !bits_equal(best->time, plain.best_time)) {
    std::fprintf(stderr, "%s: plain optimum missing from the frontier\n",
                 scenario.name.c_str());
    return 1;
  }

  m.plain_ms = 1e300;
  m.pareto_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    (void)run_full_dse(scenario.context, scenario.space);
    m.plain_ms = std::min(m.plain_ms, wall_ms(start));
    start = std::chrono::steady_clock::now();
    (void)run_pareto_dse(scenario.context, scenario.space);
    m.pareto_ms = std::min(m.pareto_ms, wall_ms(start));
  }
  m.overhead_pct =
      m.plain_ms > 0.0 ? (m.pareto_ms - m.plain_ms) / m.plain_ms * 100.0 : 0.0;
  return 0;
}

}  // namespace
}  // namespace c2b::bench

int main() {
  using namespace c2b;
  using namespace c2b::bench;

  // One memory-bound and one compute-lean study over the default grid;
  // budgets chosen so power and bandwidth both reject real slices of the
  // factorial space (the area member always participates).
  std::vector<Scenario> scenarios{
      constrained_study("pareto_fluidanimate", make_fluidanimate_like_workload(1u << 16),
                        /*power_budget=*/30.0, /*bw_budget=*/500.0),
      constrained_study("pareto_stencil", make_stencil_workload(96),
                        /*power_budget=*/30.0, /*bw_budget=*/500.0),
  };
  std::vector<Measurement> measurements(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (run_scenario(scenarios[i], measurements[i]) != 0) return 1;

  Table table({"scenario", "grid", "feasible", "frontier", "plain (ms)",
               "pareto (ms)", "overhead %"},
              2);
  for (const Measurement& m : measurements)
    table.add_row({m.name, static_cast<std::int64_t>(m.grid_points),
                   static_cast<std::int64_t>(m.feasible),
                   static_cast<std::int64_t>(m.frontier), m.plain_ms, m.pareto_ms,
                   m.overhead_pct});
  print_table("Pareto-frontier DSE vs plain DSE (cold cache, 1 thread)", table);

  if (std::FILE* out = std::fopen("BENCH_pareto_dse.json", "w")) {
    std::fprintf(out, "{\n  \"bench\": \"pareto_dse\",\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"grid_points\": %zu, \"feasible\": %zu, "
                   "\"frontier\": %zu, \"plain_ms\": %.3f, \"pareto_ms\": %.3f, "
                   "\"overhead_pct\": %.3f}%s\n",
                   m.name.c_str(), m.grid_points, m.feasible, m.frontier, m.plain_ms,
                   m.pareto_ms, m.overhead_pct, i + 1 < measurements.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[json] BENCH_pareto_dse.json\n");
  }
  return 0;
}
