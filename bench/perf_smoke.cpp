// Every timing gate of the simulator in one run.
//
// Each entry of kScenarios sets up one measured study, checks that the
// fast path computes exactly what its reference computes (a fast wrong
// answer is not a speedup), times it, and reports its metrics. Each bound
// is a floor (the measured value must reach it) or a ceiling (it must not
// exceed it). Floors sit well under what a development machine reaches, so
// slower runners pass and only a real regression trips them; ceilings gate
// A/B deltas and coverage ratios, which do not depend on machine speed.
//
// The runner prints one table of every metric and one `ok`/`FAIL` line per
// bound, writes BENCH_perf_smoke.json into its working directory, and exits
// 1 on any bound violation or identity failure:
//
//   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
//   cmake --build build --target perf_smoke
//   cd build/bench && ./perf_smoke

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "c2b/ann/mlp.h"
#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/system.h"
#include "c2b/trace/generators.h"
#include "c2b/trace/workloads.h"

namespace c2b::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// A scenario's measured values, in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

double wall_ms(const Clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Best (minimum) wall time in ms of each of `runs` over `reps` rounds that
/// run them in turn, so a burst of host noise hits every side alike.
std::vector<double> best_of(int reps, std::initializer_list<std::function<void()>> runs) {
  std::vector<double> best(runs.size(), 1e300);
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t i = 0;
    for (const std::function<void()>& run : runs) {
      const auto start = Clock::now();
      run();
      best[i] = std::min(best[i], wall_ms(start));
      ++i;
    }
  }
  return best;
}

/// A/B of `run(true)` (the measured side) over `run(false)` (the baseline):
/// `rounds` adjacent pairs, alternating which side runs first, and the
/// median of the per-pair ratios. A burst of host noise slows both halves
/// of a pair alike: single runs on a shared host swing +/-15% with other
/// tenants' cache traffic, and a per-side minimum swung +/-11% on a change
/// with no cost.
Metrics paired_ab(int rounds, const std::function<double(bool)>& run) {
  run(true);  // warm-up: caches, registry slots, trace buffers
  run(false);
  std::vector<double> a, b, ratios;
  for (int r = 0; r < rounds; ++r) {
    double ta, tb;
    if (r % 2 == 0) {
      tb = run(true);
      ta = run(false);
    } else {
      ta = run(false);
      tb = run(true);
    }
    a.push_back(ta);
    b.push_back(tb);
    ratios.push_back(tb / ta);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {{"off_ms", median(a)}, {"on_ms", median(b)},
          {"overhead_pct", (median(ratios) - 1.0) * 100.0}};
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

volatile double g_sink = 0.0;

/// Keeps a computed value observable so the optimizer cannot drop the work.
void keep(double value) { g_sink = value; }

constexpr std::size_t kDefaultThreads = 0;  // C2B_THREADS, else hardware threads

/// Every scenario used to run in a process of its own. Put the process-wide
/// state where such a process started: the given pool width and memory-tier
/// switch, an empty memory tier, no disk tier, telemetry on.
void reset_process_state(std::size_t threads, bool sim_cache) {
  exec::set_thread_count(threads);
  exec::SimCache& cache = exec::SimCache::global();
  cache.detach_disk_tier();
  cache.clear();
  cache.set_enabled(sim_cache);
  obs::set_enabled(true);
}

/// A study on the 16 KiB L1 / 512 KiB L2 base geometry of the `c2b` tool,
/// with the given simulation window and chip area budget.
DseContext make_context(WorkloadSpec workload, std::uint64_t instructions0,
                        std::uint64_t per_core_cap, double total_area, double shared_area) {
  DseContext context;
  context.workload = std::move(workload);
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.instructions0 = instructions0;
  context.per_core_cap = per_core_cap;
  context.chip.total_area = total_area;
  context.chip.shared_area = shared_area;
  return context;
}

// ---------------------------------------------------------------------------
// Event-driven kernel vs the per-cycle reference.

struct KernelSetup {
  sim::SystemConfig config;
  std::vector<Trace> traces;
};

/// 8 cores of a low-locality Zipf stream (f_mem = 0.3) over a working set
/// far beyond L2, against a deep, slow DRAM queue with tiny MSHRs. The
/// reference kernel walks every stall cycle; the event kernel jumps between
/// completions, so this is where cycle skipping pays most.
KernelSetup stall_heavy_setup() {
  KernelSetup s;
  s.config.core.issue_width = 4;
  s.config.core.rob_size = 64;
  s.config.core.functional_units = 4;
  s.config.hierarchy.cores = 8;
  s.config.hierarchy.l1_geometry = {.size_bytes = 8 * 1024, .line_bytes = 64,
                                    .associativity = 4};
  s.config.hierarchy.l2_geometry = {.size_bytes = 128 * 1024, .line_bytes = 64,
                                    .associativity = 8};
  s.config.hierarchy.l1_mshr_entries = 4;
  s.config.hierarchy.l2_mshr_entries = 8;
  // Deep DRAM queue: few banks, slow timing, so misses pile up behind the
  // row machinery and cores spend most cycles waiting.
  s.config.hierarchy.dram.banks = 2;
  s.config.hierarchy.dram.t_cas = 60;
  s.config.hierarchy.dram.t_rcd = 60;
  s.config.hierarchy.dram.t_rp = 60;
  s.config.hierarchy.dram.t_bus = 8;
  for (std::uint32_t c = 0; c < s.config.hierarchy.cores; ++c) {
    ZipfStreamGenerator::Params params;
    params.working_set_lines = 1 << 18;  // 16 MiB of lines, far beyond L2
    params.zipf_exponent = 0.2;          // near-uniform: almost no reuse
    params.f_mem = 0.3;
    params.seed = 1 + c;
    s.traces.push_back(ZipfStreamGenerator(params).generate(60'000));
  }
  return s;
}

/// A mostly-compute stream over a cache-resident working set, where the win
/// comes from the compute fast path batching whole issue groups.
KernelSetup compute_bound_setup() {
  KernelSetup s;
  s.config.core.issue_width = 4;
  s.config.core.rob_size = 128;
  s.config.core.functional_units = 4;
  s.config.hierarchy.cores = 4;
  for (std::uint32_t c = 0; c < s.config.hierarchy.cores; ++c) {
    ZipfStreamGenerator::Params params;
    params.working_set_lines = 256;  // L1-resident
    params.zipf_exponent = 1.2;
    params.f_mem = 0.002;  // ~500-instruction compute runs between accesses
    params.seed = 101 + c;
    s.traces.push_back(ZipfStreamGenerator(params).generate(400'000));
  }
  return s;
}

/// Fast identity screen (cycles + per-core counters + C-AMAT bits); the
/// exhaustive field-by-field proof is `c2b check --family kernel`'s job.
bool results_match(const sim::SystemResult& a, const sim::SystemResult& b) {
  if (a.cycles != b.cycles || a.cores.size() != b.cores.size()) return false;
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    if (a.cores[c].instructions != b.cores[c].instructions ||
        a.cores[c].memory_accesses != b.cores[c].memory_accesses ||
        a.cores[c].cycles != b.cores[c].cycles ||
        !bits_equal(a.cores[c].camat.camat_value, b.cores[c].camat.camat_value))
      return false;
  }
  return true;
}

/// Event kernel best of 5 after an untimed warm-up; the reference kernel
/// is timed once, in the run the identity check needs anyway.
std::optional<Metrics> kernel_scenario(const KernelSetup& s) {
  constexpr int kReps = 5;
  reset_process_state(kDefaultThreads, true);
  const sim::SystemResult event_result = sim::simulate_system(s.config, s.traces);
  const auto start = Clock::now();
  const sim::SystemResult reference_result = sim::simulate_system_reference(s.config, s.traces);
  const double reference_ms = wall_ms(start);
  if (!results_match(event_result, reference_result)) {
    std::fprintf(stderr, "event kernel diverged from the reference kernel\n");
    return std::nullopt;
  }
  double accesses = 0.0;
  double instructions = 0.0;
  for (const sim::CoreResult& core : event_result.cores) {
    accesses += static_cast<double>(core.memory_accesses);
    instructions += static_cast<double>(core.instructions);
  }

  obs::Registry& registry = obs::Registry::global();
  obs::Counter& visited = registry.counter("sim.kernel.visited_cycles");
  obs::Counter& skipped = registry.counter("sim.kernel.skipped_cycles");
  const std::uint64_t visited0 = visited.value();
  const std::uint64_t skipped0 = skipped.value();
  const double event_ms =
      best_of(kReps, {[&] { (void)sim::simulate_system(s.config, s.traces); }})[0];
  // Per-run skip accounting (the counters accumulate across the reps).
  const double visited_cycles = static_cast<double>((visited.value() - visited0) / kReps);
  const double skipped_cycles = static_cast<double>((skipped.value() - skipped0) / kReps);
  return Metrics{{"accesses", accesses},
                 {"instructions", instructions},
                 {"event_ms", event_ms},
                 {"reference_ms", reference_ms},
                 {"speedup", ratio(reference_ms, event_ms)},
                 {"accesses_per_sec", ratio(accesses, event_ms / 1e3)},
                 {"visited_cycles", visited_cycles},
                 {"skipped_cycles", skipped_cycles},
                 {"skip_fraction", ratio(skipped_cycles, visited_cycles + skipped_cycles)}};
}

// ---------------------------------------------------------------------------
// Batched replay vs per-point simulation: a cold-cache, Fig.-12-style
// neighborhood sweep simulated one design per call (each regenerating its
// own trace streams) and in one call over the shared chunk store (each
// trace chunk generated once per batch unit and consumed by every member in
// lockstep). One thread, memory tier off, so the ratio isolates batching.

struct Neighborhood {
  DseContext context;
  std::vector<std::vector<double>> points;
};

/// `workload` swept over the full issue/ROB/cache-split cross around the
/// chip's center design at N cores: the shape run_aps simulates after
/// analytic narrowing, scaled up to a radius-2-style neighborhood. Every
/// point shares the fixed N, so the whole sweep is one trace-equivalence
/// class. The workloads use big-footprint knobs with APS-sized simulation
/// windows, so per-point replay pays the O(working set) stream setup for
/// all (1 + N) streams at every point, which is exactly the input
/// production the batched path performs once per equivalence-class unit.
Neighborhood neighborhood_sweep(WorkloadSpec workload, double n_cores) {
  // Budget sized so the whole (a1, a2) cross is feasible at this N.
  Neighborhood s{make_context(std::move(workload), 6'000, 30'000, n_cores * 5.5 + 1.0, 1.0), {}};
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
Neighborhood neighborhood_n12_saturated() {
  Neighborhood s{make_context(make_fluidanimate_like_workload(), 20'000, 10'000, 9.0, 1.0), {}};
  for (const double issue : {1.0, 2.0, 4.0, 8.0})
    for (const double rob : {16.0, 32.0, 64.0, 128.0, 192.0, 256.0}) {
      const std::vector<double> point{0.25, 0.125, 0.25, 12.0, issue, rob};
      if (design_feasible(s.context, point)) s.points.push_back(point);
    }
  return s;
}

std::optional<Metrics> batched_scenario(const Neighborhood& s) {
  constexpr int kReps = 3;
  reset_process_state(1, false);
  if (s.points.empty()) {
    std::fprintf(stderr, "no feasible points\n");
    return std::nullopt;
  }
  const auto simulate_per_point = [&s] {
    std::vector<BatchSimOutcome> outcomes;
    outcomes.reserve(s.points.size());
    for (const std::vector<double>& point : s.points)
      outcomes.push_back(simulate_design_times_batched(s.context, {point}).front());
    return outcomes;
  };

  // Untimed warm-up + bitwise identity check.
  const std::vector<BatchSimOutcome> per_point = simulate_per_point();
  double accesses = 0.0;
  for (const BatchSimOutcome& outcome : per_point)
    accesses += static_cast<double>(outcome.memory_accesses);
  BatchReplayStats stats;
  const std::vector<BatchSimOutcome> batched =
      simulate_design_times_batched(s.context, s.points, &stats);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (!bits_equal(batched[i].time, per_point[i].time) ||
        batched[i].memory_accesses != per_point[i].memory_accesses) {
      std::fprintf(stderr, "batched result diverged from per-point at point %zu\n", i);
      return std::nullopt;
    }
  }

  const std::vector<double> ms =
      best_of(kReps, {[&] { (void)simulate_per_point(); },
                      [&] { (void)simulate_design_times_batched(s.context, s.points); }});
  return Metrics{{"points", static_cast<double>(s.points.size())},
                 {"accesses", accesses},
                 {"per_point_ms", ms[0]},
                 {"batched_ms", ms[1]},
                 {"speedup", ratio(ms[0], ms[1])},
                 {"accesses_per_sec", ratio(accesses, ms[1] / 1e3)},
                 {"regen_avoided_accesses", static_cast<double>(stats.regen_avoided_accesses)}};
}

// ---------------------------------------------------------------------------
// Pareto-frontier DSE vs plain DSE on the same constrained sweep. Both share
// the batched replay engine, so the delta is exactly the Pareto layer: the
// analytic power/area attachment, the dominance filter and the
// per-constraint usage pass. One thread, memory tier off.

/// The default six-axis grid with power and bandwidth budgets tight enough
/// that every constraint kind rejects a real slice of it, on an APS-sized
/// simulation window.
std::optional<Metrics> pareto_scenario(WorkloadSpec workload) {
  reset_process_state(1, false);
  DseContext context = make_context(std::move(workload), 6'000, 3'000, 40.0, 2.0);
  context.power_budget = 30.0;
  context.bw_budget = 500.0;
  const GridSpace space = make_design_space(DseAxes{});

  // Untimed warm-up + identity check: the frontier must carry the plain
  // optimum at a bitwise-equal time (it is feasible and time-minimal, so
  // nothing can dominate it).
  const FullDseResult plain = run_full_dse(context, space);
  const ParetoDseResult pareto = run_pareto_dse(context, space);
  if (plain.feasible_count != pareto.feasible_count) {
    std::fprintf(stderr, "feasible counts diverged (%zu vs %zu)\n", plain.feasible_count,
                 pareto.feasible_count);
    return std::nullopt;
  }
  const auto best = std::find_if(
      pareto.frontier.begin(), pareto.frontier.end(),
      [&](const FrontierPoint& fp) { return fp.flat_index == plain.best_index; });
  if (best == pareto.frontier.end() || !bits_equal(best->time, plain.best_time)) {
    std::fprintf(stderr, "plain optimum missing from the frontier\n");
    return std::nullopt;
  }

  // off_ms is the plain sweep, on_ms the Pareto sweep.
  const Metrics ab = paired_ab(5, [&](bool with_pareto) {
    const auto start = Clock::now();
    if (with_pareto)
      (void)run_pareto_dse(context, space);
    else
      (void)run_full_dse(context, space);
    return wall_ms(start);
  });
  Metrics metrics{{"grid_points", static_cast<double>(pareto.grid_points)},
                  {"feasible", static_cast<double>(pareto.feasible_count)},
                  {"frontier", static_cast<double>(pareto.frontier.size())}};
  metrics.insert(metrics.end(), ab.begin(), ab.end());
  return metrics;
}

// ---------------------------------------------------------------------------
// The Fig.-12-scale factorial study (make_large_axes, ~10^5 raw points)
// that the surrogate and warm-restart scenarios both sweep: a
// memory-stratified stencil with an area budget that keeps classes
// N=1..12 feasible. The slow small-N classes are several times off the
// incumbent, which is the landscape the class pruner is built for (a flat
// landscape prunes nothing, see DESIGN.md).

DseContext stencil_large_axes_context() {
  return make_context(make_stencil_workload(96), 4'000, 2'000, 10.0, 2.0);
}

/// The study swept exhaustively and with the surrogate pruner, memory tier
/// off both ways, one run each. The surrogate optimum must be the
/// exhaustive one, bitwise. The gate is the share of points and classes
/// the pruner simulated, which does not depend on machine speed; the wall
/// times are reported only.
std::optional<Metrics> surrogate_stencil() {
  reset_process_state(kDefaultThreads, false);
  const DseContext context = stencil_large_axes_context();
  const GridSpace space = make_design_space(make_large_axes());

  auto start = Clock::now();
  const FullDseResult exhaustive = run_full_dse(context, space);
  const double exhaustive_ms = wall_ms(start);
  DseContext surrogate_context = context;
  surrogate_context.surrogate_enabled = true;
  start = Clock::now();
  const FullDseResult surrogate = run_full_dse(surrogate_context, space);
  const double surrogate_ms = wall_ms(start);

  if (surrogate.best_index != exhaustive.best_index ||
      !bits_equal(surrogate.best_time, exhaustive.best_time)) {
    std::fprintf(stderr, "surrogate optimum diverged: %zu (%.17g) vs exhaustive %zu (%.17g)\n",
                 surrogate.best_index, surrogate.best_time, exhaustive.best_index,
                 exhaustive.best_time);
    return std::nullopt;
  }
  const SurrogateStats& stats = surrogate.surrogate;
  return Metrics{
      {"grid_points", static_cast<double>(space.size())},
      {"feasible", static_cast<double>(exhaustive.feasible_count)},
      {"classes_total", static_cast<double>(stats.classes_total)},
      {"classes_simulated", static_cast<double>(stats.classes_simulated)},
      {"exhaustive_ms", exhaustive_ms},
      {"surrogate_ms", surrogate_ms},
      {"classes_simulated_pct",
       100.0 * ratio(static_cast<double>(stats.classes_simulated),
                     static_cast<double>(stats.classes_total))},
      {"points_simulated_pct", 100.0 * ratio(static_cast<double>(stats.points_simulated),
                                             static_cast<double>(stats.points_total))},
      {"mre", stats.mre}};
}

/// Mlp::predict in a serial loop vs Mlp::predict_batch, which maps the
/// queries over the global pool (one activation scratch per chunk, each
/// prediction written to its own slot): a surrogate-shaped net ({6,16,16,1})
/// on a smooth 6-dimensional target, queried with a space-sized batch. The
/// ratio grows with the pool width (~1x at one thread).
std::optional<Metrics> mlp_predict_batch() {
  constexpr int kReps = 3;
  constexpr std::size_t kQueries = 100'000;
  reset_process_state(kDefaultThreads, false);
  MlpConfig config;
  config.layer_sizes = {6, 16, 16, 1};
  config.seed = 21;
  Mlp mlp(config);
  Rng rng(31);
  std::vector<Vector> train_x;
  std::vector<double> train_y;
  for (int i = 0; i < 256; ++i) {
    Vector x(6);
    double y = 1.0;
    for (std::size_t d = 0; d < 6; ++d) {
      x[d] = rng.uniform(0.25, 4.0);
      y += (d % 2 == 0 ? 1.0 : -0.5) * std::log2(x[d]);
    }
    train_x.push_back(std::move(x));
    train_y.push_back(y);
  }
  mlp.fit(train_x, train_y, 200);

  std::vector<Vector> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    Vector x(6);
    for (std::size_t d = 0; d < 6; ++d) x[d] = rng.uniform(0.25, 4.0);
    queries.push_back(std::move(x));
  }

  double sum = 0.0;
  std::vector<double> batch;
  const std::vector<double> ms =
      best_of(kReps, {[&] {
                        for (const Vector& q : queries) sum += mlp.predict(q);
                      },
                      [&] { batch = mlp.predict_batch(queries); }});
  keep(sum);
  for (std::size_t i = 0; i < queries.size(); ++i)
    if (!bits_equal(batch[i], mlp.predict(queries[i]))) {
      std::fprintf(stderr, "predict_batch diverged from predict at query %zu\n", i);
      return std::nullopt;
    }
  return Metrics{{"queries", static_cast<double>(kQueries)},
                 {"pool_threads", static_cast<double>(exec::thread_count())},
                 {"per_call_ms", ms[0]},
                 {"batch_ms", ms[1]},
                 {"speedup", ratio(ms[0], ms[1])}};
}

/// The study run cold with a disk tier attached, then after an emulated
/// process restart (memory tier dropped, the same directory re-attached).
/// The warm restart must reproduce the cold optimum bitwise while every
/// probe hits the disk tier and nothing is simulated. The disk tier itself
/// is then timed: restarts against in-memory warm sweeps of the same study
/// (the memory tier holding every point a restart promoted), in paired_ab
/// pairs. Both sides run the same fully cached sweep, so the ratio
/// isolates the disk-tier lookups and promotions.
std::optional<Metrics> warm_restart_study(const std::string& cache_dir) {
  reset_process_state(kDefaultThreads, true);
  const DseContext context = stencil_large_axes_context();
  const GridSpace space = make_design_space(make_large_axes());
  exec::SimCache& cache = exec::SimCache::global();
  if (!cache.attach_disk_tier(cache_dir)) {
    std::fprintf(stderr, "cannot attach cache dir '%s'\n", cache_dir.c_str());
    return std::nullopt;
  }

  const auto start = Clock::now();
  const FullDseResult cold = run_full_dse(context, space);
  const double cold_ms = wall_ms(start);
  cache.flush_disk();

  // Emulated process restart: what a new `c2b dse` invocation with
  // C2B_SIM_CACHE_DIR sees.
  const auto restart = [&] {
    cache.detach_disk_tier();
    cache.clear();
    return cache.attach_disk_tier(cache_dir);
  };
  if (!restart()) {
    std::fprintf(stderr, "cannot re-attach cache dir '%s'\n", cache_dir.c_str());
    return std::nullopt;
  }
  const std::uint64_t disk_entries = cache.stats().disk_entries;
  const FullDseResult warm = run_full_dse(context, space);
  const exec::SimCacheStats stats = cache.stats();

  if (warm.best_index != cold.best_index || !bits_equal(warm.best_time, cold.best_time)) {
    std::fprintf(stderr, "warm-restart optimum diverged: %zu (%.17g) vs cold %zu (%.17g)\n",
                 warm.best_index, warm.best_time, cold.best_index, cold.best_time);
    return std::nullopt;
  }
  if (warm.batch.members != 0 || stats.misses != 0) {
    std::fprintf(stderr,
                 "warm restart was not fully disk-served: %zu simulations, %llu misses "
                 "(disk entries %llu)\n",
                 warm.batch.members, static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(disk_entries));
    return std::nullopt;
  }
  // Same process again: the in-memory peel path.
  const FullDseResult mem = run_full_dse(context, space);
  if (mem.best_index != cold.best_index || !bits_equal(mem.best_time, cold.best_time)) {
    std::fprintf(stderr, "in-memory warm optimum diverged\n");
    return std::nullopt;
  }

  bool reattached = true;
  const Metrics ab = paired_ab(11, [&](bool from_disk) {
    if (from_disk) reattached = restart() && reattached;
    const auto run_start = Clock::now();
    (void)run_full_dse(context, space);
    return wall_ms(run_start);
  });
  if (!reattached) {
    std::fprintf(stderr, "cannot re-attach cache dir '%s'\n", cache_dir.c_str());
    return std::nullopt;
  }

  const std::uint64_t probes = stats.hits + stats.disk_hits + stats.misses;
  return Metrics{
      {"grid_points", static_cast<double>(space.size())},
      {"feasible", static_cast<double>(cold.feasible_count)},
      {"simulations_cold", static_cast<double>(cold.batch.members)},
      {"simulations", static_cast<double>(warm.batch.members)},
      {"disk_entries", static_cast<double>(disk_entries)},
      {"disk_hits", static_cast<double>(stats.disk_hits)},
      {"disk_misses", static_cast<double>(stats.misses)},
      {"cold_ms", cold_ms},
      {"warm_memory_ms", ab[0].second},   // paired_ab's off side
      {"warm_restart_ms", ab[1].second},  // its on side
      {"restart_over_memory", 1.0 + ab[2].second / 100.0},
      {"disk_hit_rate_pct",
       100.0 * ratio(static_cast<double>(stats.disk_hits), static_cast<double>(probes))}};
}

std::optional<Metrics> warm_restart_dse() {
  const std::string cache_dir = (std::filesystem::temp_directory_path() /
                                 ("c2b-perf-smoke-cache-" + std::to_string(getpid())))
                                    .string();
  std::filesystem::remove_all(cache_dir);
  std::optional<Metrics> metrics = warm_restart_study(cache_dir);
  exec::SimCache::global().detach_disk_tier();
  exec::SimCache::global().clear();
  std::filesystem::remove_all(cache_dir);
  return metrics;
}

/// The surrogate study run cold with a disk tier attached, then after an
/// emulated process restart. The restart must restore every MLP fit from
/// its fit file and be bitwise the cold sweep, SurrogateStats included (but
/// for the counts of where the fits came from). The gate is the number of
/// fits the restart trained, which does not depend on machine speed; the
/// wall times are reported only.
std::optional<Metrics> surrogate_warm_restart() {
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("c2b-perf-smoke-fit-cache-" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(cache_dir);
  reset_process_state(kDefaultThreads, true);
  DseContext context = stencil_large_axes_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(make_large_axes());
  exec::SimCache& cache = exec::SimCache::global();
  const auto restart = [&] {
    cache.detach_disk_tier();
    cache.clear();
    return cache.attach_disk_tier(cache_dir);
  };
  const auto finish = [&](std::optional<Metrics> metrics) {
    cache.detach_disk_tier();
    cache.clear();
    std::filesystem::remove_all(cache_dir);
    return metrics;
  };
  if (!restart()) {
    std::fprintf(stderr, "cannot attach cache dir '%s'\n", cache_dir.c_str());
    return finish(std::nullopt);
  }

  auto start = Clock::now();
  const FullDseResult cold = run_full_dse(context, space);
  const double cold_ms = wall_ms(start);
  cache.flush_disk();
  if (!restart()) {
    std::fprintf(stderr, "cannot re-attach cache dir '%s'\n", cache_dir.c_str());
    return finish(std::nullopt);
  }
  start = Clock::now();
  const FullDseResult warm = run_full_dse(context, space);
  const double restart_ms = wall_ms(start);

  const SurrogateStats& a = warm.surrogate;
  const SurrogateStats& b = cold.surrogate;
  bool same = warm.best_index == cold.best_index && bits_equal(warm.best_time, cold.best_time) &&
              warm.simulations == cold.simulations && warm.times.size() == cold.times.size() &&
              a.classes_total == b.classes_total && a.classes_simulated == b.classes_simulated &&
              a.classes_pruned == b.classes_pruned && a.points_total == b.points_total &&
              a.points_simulated == b.points_simulated && a.warmup_sims == b.warmup_sims &&
              a.fallback_sims == b.fallback_sims && a.trained_samples == b.trained_samples &&
              a.rounds == b.rounds && bits_equal(a.mre, b.mre);
  for (std::size_t i = 0; same && i < cold.times.size(); ++i)
    same = bits_equal(warm.times[i], cold.times[i]);
  if (!same) {
    std::fprintf(stderr, "surrogate warm restart diverged from the cold sweep\n");
    return finish(std::nullopt);
  }
  return finish(Metrics{{"rounds", static_cast<double>(b.rounds)},
                        {"fits_trained_cold", static_cast<double>(b.fits_trained)},
                        {"fits_trained", static_cast<double>(a.fits_trained)},
                        {"fits_cached", static_cast<double>(a.fits_cached)},
                        {"fit_drops", static_cast<double>(a.fit_drops)},
                        {"cold_ms", cold_ms},
                        {"restart_ms", restart_ms}});
}

// ---------------------------------------------------------------------------
// Telemetry cost, each a paired_ab of telemetry on against off.

/// Telemetry on vs runtime-off on the single-threaded simulate_system hot
/// loop (4 cores, 20k instructions per core).
std::optional<Metrics> telemetry_runtime_toggle() {
  reset_process_state(kDefaultThreads, true);
  sim::SystemConfig config;
  config.hierarchy.cores = 4;
  config.hierarchy.noc.nodes = 4;
  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < 4; ++c) {
    ZipfStreamGenerator::Params p;
    p.f_mem = 0.4;
    p.seed = c + 1;
    traces.push_back(ZipfStreamGenerator(p).generate(20'000));
  }
  return paired_ab(101, [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const auto start = Clock::now();
    keep(static_cast<double>(sim::simulate_system(config, traces).cycles));
    const double ms = wall_ms(start);
    obs::set_enabled(true);
    return ms;
  });
}

/// The small batched sweep both sweep A/Bs time. The memory tier is
/// cleared before every run so each run does the full simulation work (a
/// warm cache would peel everything and leave nothing to perturb).
struct ObsSweep {
  DseContext context;
  std::vector<std::vector<double>> points;

  ObsSweep() {
    for (const WorkloadSpec& spec : workload_catalog())
      if (spec.name == "stencil") context.workload = spec;
    context.instructions0 = 20'000;
    context.per_core_cap = 5'000;
    context.chip.total_area = 9.0;
    context.chip.shared_area = 1.0;
    DseAxes axes;
    axes.n = {1, 2};
    axes.issue = {2, 4};
    axes.rob = {32, 64};
    make_design_space(axes).for_each([&](std::size_t, const std::vector<double>& point) {
      if (design_feasible(context, point)) points.push_back(point);
    });
  }

  double run_cold_ms() const {
    exec::SimCache::global().clear();
    const auto start = Clock::now();
    keep(static_cast<double>(simulate_design_times_batched(context, points).size()));
    return wall_ms(start);
  }
};

/// The same toggle on the cold batched sweep at pool width = hardware
/// threads, where a registry slot shared by concurrent replays would
/// serialize the workers.
std::optional<Metrics> telemetry_runtime_toggle_mt() {
  reset_process_state(std::max(1u, std::thread::hardware_concurrency()), true);
  const ObsSweep sweep;
  return paired_ab(31, [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const double ms = sweep.run_cold_ms();
    obs::set_enabled(true);
    return ms;
  });
}

/// The batched sweep with vs without an active flight-recorder journal.
std::optional<Metrics> sweep_journal() {
  reset_process_state(kDefaultThreads, true);
  const ObsSweep sweep;
  const char* journal_path = "BENCH_perf_smoke_journal.tmp.jsonl";
  Metrics metrics = paired_ab(31, [&](bool with_journal) {
    std::unique_ptr<obs::RunJournal> recorder;
    if (with_journal) {
      recorder = obs::RunJournal::open(journal_path);
      obs::set_active_journal(recorder.get());
    }
    const double ms = sweep.run_cold_ms();
    obs::set_active_journal(nullptr);
    return ms;
  });
  std::remove(journal_path);
  return metrics;
}

// ---------------------------------------------------------------------------
// The scenario table.

/// `metric` must reach `value` (a floor) or stay at or under it (a ceiling).
struct Bound {
  const char* metric;
  bool floor;
  double value;
};

constexpr bool kFloor = true;
constexpr bool kCeiling = false;

struct Scenario {
  const char* name;
  std::optional<Metrics> (*run)();
  std::vector<Bound> bounds;
  const char* reason;
};

const Scenario kScenarios[] = {
    {"stall_heavy",
     [] { return kernel_scenario(stall_heavy_setup()); },
     {{"accesses_per_sec", kFloor, 480'000.0}},
     "a development machine reaches ~1.5M accesses/s; only a real kernel regression trips "
     "the floor"},
    {"compute_bound",
     [] { return kernel_scenario(compute_bound_setup()); },
     {{"accesses_per_sec", kFloor, 192'000.0}},
     "a development machine reaches ~600k accesses/s; only a real kernel regression trips "
     "the floor"},
    // Fig. 12 case study (fluidanimate-like, N = 4), the Fig. 7
    // dependent-chase extreme (N = 8) and a wide chip (N = 16) whose
    // 36-point class splits into 16+16+4 power-of-two batch units.
    {"neighborhood_n4",
     [] {
       return batched_scenario(
           neighborhood_sweep(make_fluidanimate_like_workload(1u << 19), 4.0));
     },
     {{"accesses_per_sec", kFloor, 320'000.0}, {"speedup", kFloor, 2.0}},
     "~1.1M accesses/s at 3.5x on a development machine; the speedup floor gates the "
     "batching win itself"},
    {"neighborhood_n8",
     [] {
       return batched_scenario(neighborhood_sweep(make_pointer_chase_workload(1u << 20), 8.0));
     },
     {{"accesses_per_sec", kFloor, 200'000.0}, {"speedup", kFloor, 7.2}},
     "~720k accesses/s at 18x; losing the lockstep kernel or the once-per-call class trace "
     "drops the speedup toward ~10x"},
    {"neighborhood_n16",
     [] {
       return batched_scenario(
           neighborhood_sweep(make_fluidanimate_like_workload(1u << 19), 16.0));
     },
     {{"accesses_per_sec", kFloor, 200'000.0}, {"speedup", kFloor, 2.0}},
     "~780k accesses/s at 4.7x on a development machine; the speedup floor gates the "
     "batching win itself"},
    {"neighborhood_n12_saturated",
     [] { return batched_scenario(neighborhood_n12_saturated()); },
     {{"accesses_per_sec", kFloor, 800'000.0}},
     "~2.0M accesses/s on a development machine for the aps_t1 neighborhood; its ~2.5x "
     "speedup is not gated"},
    // One memory-bound and one compute-lean study; power and bandwidth
    // both reject real slices of the grid, area always participates.
    {"pareto_fluidanimate",
     [] { return pareto_scenario(make_fluidanimate_like_workload(1u << 16)); },
     {{"overhead_pct", kCeiling, 15.0}},
     "-7% to +3% on a development machine (median of 5 paired ratios); catches a quadratic "
     "frontier pass over the full grid or a second simulation sweep"},
    {"pareto_stencil",
     [] { return pareto_scenario(make_stencil_workload(96)); },
     {{"overhead_pct", kCeiling, 15.0}},
     "-7% to +3% on a development machine (median of 5 paired ratios); catches a quadratic "
     "frontier pass over the full grid or a second simulation sweep"},
    {"surrogate_stencil", surrogate_stencil,
     {{"points_simulated_pct", kCeiling, 2.5}, {"classes_simulated_pct", kCeiling, 40.0}},
     "1.87% of points and 2 of 7 classes at any thread count; losing the pruning, a wider "
     "band or a larger fallback pass simulates more"},
    {"mlp_predict_batch", mlp_predict_batch,
     {{"speedup", kFloor, 0.68}},
     "~3x at 4 threads, ~1x at 1; guards against the batch path becoming slower than the "
     "loop it replaces"},
    {"warm_restart_dse", warm_restart_dse,
     {{"restart_over_memory", kCeiling, 1.25},
      {"disk_misses", kCeiling, 0.0},
      {"simulations", kCeiling, 0.0}},
     "a restart reads ~1.05x the in-memory sweep on a development machine; a slower disk-tier "
     "lookup trips the ratio, and one miss or simulation means the cache key or record codec "
     "drifted"},
    {"surrogate_warm_restart", surrogate_warm_restart,
     {{"fits_trained", kCeiling, 0.0}},
     "a restart restores every MLP fit from its fit file; one trained fit means the fit "
     "key or the fit-file codec drifted"},
    {"telemetry_runtime_toggle", telemetry_runtime_toggle,
     {{"overhead_pct", kCeiling, 2.0}},
     "the repo-wide 2% observability budget on the single-threaded simulator hot loop"},
    {"telemetry_runtime_toggle_mt", telemetry_runtime_toggle_mt,
     {{"overhead_pct", kCeiling, 2.0}},
     "the 2% budget at full pool width, where a shared registry slot would serialize the "
     "workers"},
    {"sweep_journal", sweep_journal,
     {{"overhead_pct", kCeiling, 2.0}},
     "the 2% budget for an active flight-recorder journal on a batched sweep"},
};

/// One line per bound, in `<verdict> <scenario>: <metric> <value> (<bound>)`
/// form, and the scenario's reason under a failing one; true if the bound
/// holds.
bool check(const Scenario& scenario, const Metrics& metrics, const Bound& bound) {
  const auto found = std::find_if(metrics.begin(), metrics.end(),
                                  [&](const auto& m) { return m.first == bound.metric; });
  if (found == metrics.end()) {
    std::printf("FAIL %s: bound names missing metric %s\n", scenario.name, bound.metric);
    return false;
  }
  const double value = found->second;
  const bool ok = bound.floor ? value >= bound.value : value <= bound.value;
  std::printf(bound.floor ? "%-4s %s: %s %.2f (floor %.2f)\n"
                          : "%-4s %s: %s %+.2f (ceiling %.2f)\n",
              ok ? "ok" : "FAIL", scenario.name, bound.metric, value, bound.value);
  if (!ok) std::printf("     (%s)\n", scenario.reason);
  return ok;
}

void write_json(const std::vector<std::optional<Metrics>>& results) {
  std::FILE* out = std::fopen("BENCH_perf_smoke.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_perf_smoke.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf_smoke\",\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out, "    {\"name\": \"%s\"", kScenarios[i].name);
    if (results[i])
      for (const auto& [metric, value] : *results[i])
        std::fprintf(out, ", \"%s\": %.10g", metric.c_str(), value);
    else
      std::fprintf(out, ", \"identity_failed\": true");
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("[json] BENCH_perf_smoke.json\n");
}

}  // namespace
}  // namespace c2b::bench

int main() {
  using namespace c2b;
  using namespace c2b::bench;

  std::vector<std::optional<Metrics>> results;
  for (const Scenario& scenario : kScenarios) {
    std::printf("[run] %s\n", scenario.name);
    std::fflush(stdout);
    const auto start = Clock::now();
    results.push_back(scenario.run());
    std::printf("[done] %s in %.1f s\n", scenario.name, wall_ms(start) / 1e3);
    std::fflush(stdout);
  }

  Table table({"scenario", "metric", "value"}, 8);
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i])
      for (const auto& [metric, value] : *results[i])
        table.add_row({std::string(kScenarios[i].name), metric, value});
  print_table("Perf smoke", table);
  write_json(results);

  std::printf("\n");
  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Scenario& scenario = kScenarios[i];
    if (!results[i]) {
      std::printf("FAIL %s: identity check\n", scenario.name);
      ok = false;
      continue;
    }
    for (const Bound& bound : scenario.bounds) ok = check(scenario, *results[i], bound) && ok;
  }
  return ok ? 0 : 1;
}
