#include "c2b/aps/characterize.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "c2b/common/assert.h"
#include "c2b/common/math_util.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/batched.h"

namespace c2b {
namespace {

/// Merge per-simpoint detector metrics into one weighted TimelineMetrics.
TimelineMetrics weighted_merge(const std::vector<TimelineMetrics>& parts,
                               const std::vector<double>& weights) {
  C2B_ASSERT(parts.size() == weights.size() && !parts.empty(), "bad merge input");
  TimelineMetrics merged;
  double hit_time = 0, ch = 0, pmr = 0, pamp = 0, cm = 0, mr = 0, amp = 0;
  double camat_direct = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const TimelineMetrics& m = parts[i];
    const double w = weights[i];
    merged.accesses += m.accesses;
    merged.misses += m.misses;
    merged.pure_misses += m.pure_misses;
    merged.memory_active_cycles += m.memory_active_cycles;
    hit_time += w * m.camat_params.hit_time;
    ch += w * m.camat_params.hit_concurrency;
    pmr += w * m.camat_params.pure_miss_rate;
    pamp += w * m.camat_params.pure_miss_penalty;
    cm += w * m.camat_params.miss_concurrency;
    mr += w * m.amat_params.miss_rate;
    amp += w * m.amat_params.miss_penalty;
    camat_direct += w * m.camat_direct;
  }
  merged.camat_params = {.hit_time = hit_time,
                         .hit_concurrency = std::max(1.0, ch),
                         .pure_miss_rate = clamp(pmr, 0.0, 1.0),
                         .pure_miss_penalty = pamp,
                         .miss_concurrency = std::max(1.0, cm)};
  merged.amat_params = {.hit_time = hit_time, .miss_rate = clamp(mr, 0.0, 1.0),
                        .miss_penalty = amp};
  merged.amat_value = amat(merged.amat_params);
  merged.camat_value = camat(merged.camat_params);
  merged.camat_direct = camat_direct;
  merged.apc = merged.camat_direct > 0.0 ? 1.0 / merged.camat_direct : 0.0;
  merged.concurrency_c =
      merged.camat_value > 0.0 ? merged.amat_value / merged.camat_value : 1.0;
  return merged;
}

}  // namespace

Characterization characterize(const WorkloadSpec& spec, const sim::SystemConfig& baseline,
                              const CharacterizeOptions& options) {
  C2B_REQUIRE(options.instructions >= 1000, "characterization window too small");
  C2B_SPAN("aps/characterize");
  Characterization out;

  auto generator = spec.make_generator(1.0, options.seed);
  const Trace trace = generator->generate(options.instructions);

  // ---- Which windows to simulate ----
  // Without simpoints the one window is the trace itself, read in place.
  std::vector<Trace> intervals;
  std::vector<const Trace*> windows;
  std::vector<double> weights;
  if (options.use_simpoints) {
    const SimPointResult sp = pick_simpoints(trace, options.simpoint);
    for (const SimPoint& p : sp.points) {
      intervals.push_back(extract_interval(trace, p.interval_index,
                                           options.simpoint.interval_length));
      weights.push_back(p.weight);
    }
    for (const Trace& interval : intervals) windows.push_back(&interval);
  } else {
    windows.push_back(&trace);
    weights.push_back(1.0);
  }

  // ---- Simulate each window on the real and on the perfect hierarchy ----
  std::vector<TimelineMetrics> metrics;
  double cpi_real = 0.0, cpi_perfect = 0.0, f_mem = 0.0;
  sim::SystemConfig perfect = baseline;
  perfect.hierarchy.perfect_memory = true;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Trace& window = *windows[i];
    const sim::SystemResult real = sim::simulate_single_core(baseline, window);
    // Only cpi and memory_accesses are read from the perfect-memory run, so
    // it runs timing-only: bit-identical to simulate_single_core on every
    // field but the C-AMAT metrics it would measure.
    VectorTraceCursor window_cursor(window);
    const sim::SystemResult ideal = std::move(
        sim::simulate_system_batched({perfect}, {{&window_cursor}},
                                     sim::ReplayMode::kTimingOnly)
            .front());
    out.simulation_runs += 2;
    C2B_COUNTER_ADD("aps.characterize.simulations", 2);
    out.simulated_instructions += window.records.size();
    out.memory_accesses +=
        real.cores[0].memory_accesses + ideal.cores[0].memory_accesses;
    metrics.push_back(real.cores[0].camat);
    cpi_real += weights[i] * real.cores[0].cpi;
    cpi_perfect += weights[i] * ideal.cores[0].cpi;
    f_mem += weights[i] * real.cores[0].f_mem;
    if (i == 0) out.hierarchy = real.hierarchy;
  }
  out.camat = weighted_merge(metrics, weights);
  out.measured_cpi = cpi_real;
  out.cpi_exe = cpi_perfect;

  // ---- Stack-distance miss curve over the whole trace ----
  StackDistanceAnalyzer stack(baseline.hierarchy.l1_geometry.line_bytes);
  stack.consume(trace);
  out.l1_power_law = fit_miss_power_law(stack.miss_ratio_curve());

  // ---- Assemble the AppProfile ----
  AppProfile app;
  app.ic0 = static_cast<double>(spec.base_instructions);
  app.f_mem = f_mem;
  app.f_seq = spec.f_seq;
  app.g = spec.g;
  // Every distinct line's first touch is a cold miss, so the analyzer has
  // already counted the trace's distinct lines.
  app.working_set_lines0 = std::max<double>(1.0, static_cast<double>(stack.cold_miss_count()));
  app.hit_concurrency = out.camat.camat_params.hit_concurrency;
  app.miss_concurrency = out.camat.camat_params.miss_concurrency;

  const double mr = out.camat.amat_params.miss_rate;
  const double amp = out.camat.amat_params.miss_penalty;
  app.pure_miss_fraction =
      mr > 0.0 ? clamp(out.camat.camat_params.pure_miss_rate / mr, 0.0, 1.0) : 0.6;
  app.pure_penalty_fraction =
      amp > 0.0 ? clamp(out.camat.camat_params.pure_miss_penalty / amp, 0.0, 1.5) : 0.8;

  // Overlap ratio (Eq. 7 rearranged): the share of the concurrent stall the
  // OoO core hides behind computation.
  const double camat_v = out.camat.camat_value;
  if (f_mem > 0.0 && camat_v > 0.0) {
    const double apparent_stall = std::max(0.0, cpi_real - cpi_perfect);
    app.overlap_ratio = clamp(1.0 - apparent_stall / (f_mem * camat_v), 0.0, 1.0);
  } else {
    app.overlap_ratio = 0.0;
  }
  out.app = app;
  return out;
}

}  // namespace c2b
