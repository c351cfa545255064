// Batched-replay throughput benchmark: a cold-cache, Fig.-12-style
// neighborhood sweep — many (issue, ROB, cache-split) variants of one
// design around a fixed core count — simulated per point (one-point
// simulate_design_times_batched calls, each regenerating its own trace
// streams) vs batched over the shared chunk store (one call over the whole
// sweep: each trace chunk generated once per batch unit and consumed by
// every member in lockstep). Both paths run at one thread with the sim
// cache off, so the measured ratio isolates the batching win itself:
// trace regeneration avoided plus chunk reuse while hot in cache.
//
// Results are identity-checked bitwise before timing (the randomized proof
// lives in `c2b check --family kernel`). Emits BENCH_batched_replay.json
// for the perf-smoke CI gate, which enforces floors on both
// accesses_per_sec and speedup.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
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
  std::vector<std::vector<double>> points;
};

/// `workload` swept over the full issue/ROB/cache-split cross around the
/// chip's center design at N cores: the shape run_aps simulates after
/// analytic narrowing, scaled up to a radius-2-style neighborhood. Every
/// point shares the fixed N, so the whole sweep is one trace-equivalence
/// class. The workloads use big-footprint knobs (large pointer-chase /
/// particle arrays) with APS-sized simulation windows, so per-point replay
/// pays the O(working set) stream setup — permutation and shuffle builds —
/// for all (1 + N) streams at every point, which is exactly the input
/// production the batched path performs once per equivalence-class unit.
Scenario neighborhood_sweep(const std::string& name, WorkloadSpec workload, double n_cores,
                            std::uint64_t instructions0) {
  Scenario s;
  s.name = name;
  s.context.workload = std::move(workload);
  s.context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                          .associativity = 4};
  s.context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                          .associativity = 8};
  s.context.instructions0 = instructions0;
  s.context.per_core_cap = 30'000;
  // Budget sized so the whole (a1, a2) cross is feasible at this N.
  s.context.chip.total_area = n_cores * 5.5 + 1.0;
  s.context.chip.shared_area = 1.0;

  for (const double a1 : {0.5, 0.75, 1.0})
    for (const double a2 : {1.0, 1.5})
      for (const double issue : {2.0, 4.0})
        for (const double rob : {32.0, 64.0, 128.0}) {
          const std::vector<double> point{2.0, a1, a2, n_cores, issue, rob};
          if (design_feasible(s.context, point)) s.points.push_back(point);
        }
  return s;
}

/// The `aps_t1` perfbench study's APS neighborhood: fluidanimate_like at
/// N = 12 with the cache split APS chose there (a1 0.125, a2 0.25, i.e.
/// L1 2 KiB and L2 256 KiB on the `c2b` default geometry) across all 24
/// issue x ROB pairs, in the `c2b aps` default context. Twelve cores on a
/// thrashing L1 saturate DRAM, so accesses queue and long miss intervals
/// overlap: the stall-heavy regime where replay costs most per access.
Scenario neighborhood_n12_saturated() {
  Scenario s;
  s.name = "neighborhood_n12_saturated";
  s.context.workload = make_fluidanimate_like_workload();
  s.context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                          .associativity = 4};
  s.context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                          .associativity = 8};
  s.context.instructions0 = 20'000;
  s.context.per_core_cap = 10'000;
  s.context.chip.total_area = 9.0;
  s.context.chip.shared_area = 1.0;
  for (const double issue : {1.0, 2.0, 4.0, 8.0})
    for (const double rob : {16.0, 32.0, 64.0, 128.0, 192.0, 256.0}) {
      const std::vector<double> point{0.25, 0.125, 0.25, 12.0, issue, rob};
      if (design_feasible(s.context, point)) s.points.push_back(point);
    }
  return s;
}

struct Measurement {
  std::string name;
  std::size_t points = 0;
  std::uint64_t accesses = 0;
  double per_point_ms = 0.0;
  double batched_ms = 0.0;
  double speedup = 0.0;
  double accesses_per_sec = 0.0;  ///< batched-path demand-access throughput
  std::uint64_t regen_avoided_accesses = 0;
};

constexpr int kReps = 3;

int run_scenario(const Scenario& scenario, Measurement& m) {
  m.name = scenario.name;
  m.points = scenario.points.size();
  if (scenario.points.empty()) {
    std::fprintf(stderr, "%s: no feasible points\n", scenario.name.c_str());
    return 1;
  }

  // Cold cache everywhere: the bench isolates batching, not memoization.
  exec::set_thread_count(1);
  exec::SimCache::global().set_enabled(false);

  // One design per call: the per-point baseline.
  const auto simulate_per_point = [&scenario] {
    std::vector<BatchSimOutcome> outcomes;
    outcomes.reserve(scenario.points.size());
    for (const std::vector<double>& point : scenario.points)
      outcomes.push_back(simulate_design_times_batched(scenario.context, {point}).front());
    return outcomes;
  };

  // Untimed warmup + bitwise identity check.
  const std::vector<BatchSimOutcome> per_point = simulate_per_point();
  for (const BatchSimOutcome& outcome : per_point) m.accesses += outcome.memory_accesses;
  BatchReplayStats stats;
  const std::vector<BatchSimOutcome> outcomes =
      simulate_design_times_batched(scenario.context, scenario.points, &stats);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!bits_equal(outcomes[i].time, per_point[i].time) ||
        outcomes[i].memory_accesses != per_point[i].memory_accesses) {
      std::fprintf(stderr, "%s: batched result diverged from per-point at point %zu\n",
                   scenario.name.c_str(), i);
      return 1;
    }
  }
  m.regen_avoided_accesses = stats.regen_avoided_accesses;

  m.per_point_ms = 1e300;
  m.batched_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    (void)simulate_per_point();
    m.per_point_ms = std::min(m.per_point_ms, wall_ms(start));
    start = std::chrono::steady_clock::now();
    (void)simulate_design_times_batched(scenario.context, scenario.points, nullptr);
    m.batched_ms = std::min(m.batched_ms, wall_ms(start));
  }
  m.speedup = m.batched_ms > 0.0 ? m.per_point_ms / m.batched_ms : 0.0;
  m.accesses_per_sec =
      m.batched_ms > 0.0 ? static_cast<double>(m.accesses) / (m.batched_ms / 1e3) : 0.0;
  return 0;
}

}  // namespace
}  // namespace c2b::bench

int main() {
  using namespace c2b;
  using namespace c2b::bench;

  // Fig. 12 case study (fluidanimate-like, N = 4), the Fig. 7
  // dependent-chase extreme (N = 8), and a wide-chip sweep (N = 16) whose
  // 36-point class splits into 16+16+4 power-of-two batch units.
  // Working-set knobs are sized so the per-stream setup cost is material
  // next to the APS simulation window. The last scenario is the
  // DRAM-saturated N = 12 neighborhood APS simulates on the Fig.-12-scale
  // grid.
  std::vector<Scenario> scenarios{
      neighborhood_sweep("neighborhood_n4", make_fluidanimate_like_workload(1u << 19), 4.0,
                         /*instructions0=*/6'000),
      neighborhood_sweep("neighborhood_n8", make_pointer_chase_workload(1u << 20), 8.0,
                         /*instructions0=*/6'000),
      neighborhood_sweep("neighborhood_n16", make_fluidanimate_like_workload(1u << 19), 16.0,
                         /*instructions0=*/6'000),
      neighborhood_n12_saturated(),
  };
  std::vector<Measurement> measurements(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (run_scenario(scenarios[i], measurements[i]) != 0) return 1;

  Table table({"scenario", "points", "accesses/s (batched)", "per-point (ms)",
               "batched (ms)", "speedup", "regen avoided"},
              2);
  for (const Measurement& m : measurements)
    table.add_row({m.name, static_cast<std::int64_t>(m.points), m.accesses_per_sec,
                   m.per_point_ms, m.batched_ms, m.speedup,
                   static_cast<std::int64_t>(m.regen_avoided_accesses)});
  print_table("Batched replay vs per-point simulation (cold cache, 1 thread)", table);

  if (std::FILE* out = std::fopen("BENCH_batched_replay.json", "w")) {
    std::fprintf(out, "{\n  \"bench\": \"batched_replay\",\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"points\": %zu, \"accesses\": %llu, "
                   "\"per_point_ms\": %.3f, \"batched_ms\": %.3f, \"speedup\": %.3f, "
                   "\"accesses_per_sec\": %.1f, \"regen_avoided_accesses\": %llu}%s\n",
                   m.name.c_str(), m.points, static_cast<unsigned long long>(m.accesses),
                   m.per_point_ms, m.batched_ms, m.speedup, m.accesses_per_sec,
                   static_cast<unsigned long long>(m.regen_avoided_accesses),
                   i + 1 < measurements.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[json] BENCH_batched_replay.json\n");
  }
  return 0;
}
