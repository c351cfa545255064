#include "c2b/aps/dse.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "c2b/aps/surrogate.h"
#include "c2b/common/assert.h"
#include "c2b/common/math_util.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"
#include "c2b/obs/progress.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/chunk_store.h"
#include "c2b/trace/cursor.h"

namespace c2b {
namespace {

/// Round a byte capacity up to a power of two, clamped so the geometry
/// stays valid for the given line size and associativity. Rounding *up*
/// (not to nearest) guarantees the built cache never holds less than the
/// area budget paid for — nearest-rounding silently shrank capacities
/// whose log2 fraction was below 0.5 (e.g. 68 KiB -> 64 KiB).
std::uint64_t pow2_capacity(double bytes, std::uint32_t line_bytes, std::uint32_t assoc) {
  const std::uint64_t min_bytes = static_cast<std::uint64_t>(line_bytes) * assoc;
  if (bytes <= static_cast<double>(min_bytes)) return min_bytes;
  auto exponent = static_cast<unsigned>(std::lround(std::log2(bytes)));
  while ((static_cast<double>(std::uint64_t{1} << exponent)) < bytes) ++exponent;
  return std::max<std::uint64_t>(min_bytes, std::uint64_t{1} << exponent);
}

// --- canonical simulation-cache key ---------------------------------------
// Every field a design's simulated time depends on, spelled out
// exactly; see c2b/exec/sim_cache.h for the contract.

void key_append(std::string& key, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64 "|", v);
  key += buf;
}

void key_append(std::string& key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g|", v);
  key += buf;
}

void key_append(std::string& key, const sim::SystemConfig& config) {
  key_append(key, std::uint64_t{config.core.issue_width});
  key_append(key, std::uint64_t{config.core.rob_size});
  key_append(key, std::uint64_t{config.core.functional_units});
  const sim::HierarchyConfig& h = config.hierarchy;
  key_append(key, std::uint64_t{h.cores});
  for (const sim::CacheGeometry& geometry : {h.l1_geometry, h.l2_geometry}) {
    key_append(key, geometry.size_bytes);
    key_append(key, std::uint64_t{geometry.line_bytes});
    key_append(key, std::uint64_t{geometry.associativity});
  }
  key_append(key, std::uint64_t{h.l1_hit_latency});
  key_append(key, std::uint64_t{h.l1_banks});
  key_append(key, std::uint64_t{h.l1_ports_per_bank});
  key_append(key, std::uint64_t{h.l1_mshr_entries});
  key_append(key, std::uint64_t{h.l2_hit_latency});
  key_append(key, std::uint64_t{h.l2_banks});
  key_append(key, std::uint64_t{h.l2_ports_per_bank});
  key_append(key, std::uint64_t{h.l2_mshr_entries});
  key_append(key, std::uint64_t{h.noc.nodes});
  key_append(key, std::uint64_t{h.noc.hop_latency});
  key_append(key, std::uint64_t{h.noc.injection_latency});
  key_append(key, h.noc.congestion_per_load);
  key_append(key, std::uint64_t{h.dram.banks});
  key_append(key, std::uint64_t{h.dram.lines_per_row});
  key_append(key, std::uint64_t{h.dram.t_cas});
  key_append(key, std::uint64_t{h.dram.t_rcd});
  key_append(key, std::uint64_t{h.dram.t_rp});
  key_append(key, std::uint64_t{h.dram.t_bus});
  key_append(key, std::uint64_t{h.perfect_memory ? 1u : 0u});
  key_append(key, static_cast<std::uint64_t>(h.l1_prefetch.kind));
  key_append(key, std::uint64_t{h.l1_prefetch.degree});
  key_append(key, std::uint64_t{h.l1_prefetch.stream_table});
  key_append(key, std::uint64_t{h.l1_prefetch.confidence});
  key_append(key, std::uint64_t{h.coherence ? 1u : 0u});
}

/// Empty when the workload carries no uid (hand-rolled spec: caching off).
/// Layout: the stream-determining prefix (trace_class_key) followed by the
/// timing-only config fields — so two keys share a prefix exactly when the
/// designs share trace streams.
std::string simulation_cache_key(const DseContext& context, const sim::SystemConfig& config) {
  if (context.workload.uid.empty()) return {};
  std::string key = trace_class_key(context, config.hierarchy.cores);
  key_append(key, config);
  return key;
}

/// The per-phase simulation setup a design's time derives from
/// (context, N): instruction counts, footprint scales, and capped windows.
/// Shared by the batched and reference paths so both simulate the exact
/// same streams; a window of 0 means the phase does not run.
struct PhasePlan {
  double n_d = 1.0;
  double g_n = 1.0;  ///< g(N), the work factor the time is normalized by
  double serial_ic = 0.0;
  double parallel_ic_per_core = 0.0;
  double serial_footprint_scale = 1.0;
  double per_core_footprint_scale = 1.0;
  std::uint64_t serial_window = 0;
  std::uint64_t parallel_window = 0;
};

PhasePlan make_phase_plan(const DseContext& context, std::uint32_t cores) {
  PhasePlan plan;
  plan.n_d = static_cast<double>(cores);
  const ScalingFunction& g = context.workload.g;
  const double f_seq = context.workload.f_seq;
  plan.g_n = g(plan.n_d);

  // Sun-Ni scaled problem: IC = g(N) * IC0; footprint grows by
  // memory_scale(N) and is partitioned across the N cores.
  const double ic_total = plan.g_n * static_cast<double>(context.instructions0);
  plan.serial_ic = f_seq * ic_total;
  plan.parallel_ic_per_core = (1.0 - f_seq) * ic_total / plan.n_d;
  plan.serial_footprint_scale = std::max(1.0, g.memory_scale(plan.n_d));
  plan.per_core_footprint_scale = std::max(1.0, g.memory_scale(plan.n_d) / plan.n_d);
  if (plan.serial_ic >= 1.0)
    plan.serial_window = static_cast<std::uint64_t>(
        clamp(plan.serial_ic, 1000.0, static_cast<double>(context.per_core_cap)));
  if (plan.parallel_ic_per_core >= 1.0)
    plan.parallel_window = static_cast<std::uint64_t>(
        clamp(plan.parallel_ic_per_core, 1000.0, static_cast<double>(context.per_core_cap)));
  return plan;
}

/// The serial phase's one stream: whole-footprint working set.
std::unique_ptr<TraceGenerator> make_serial_generator(const DseContext& context,
                                                      const PhasePlan& plan) {
  return context.workload.make_generator(plan.serial_footprint_scale, context.seed);
}

/// Parallel-phase core `core`'s stream. Generators are seeded
/// independently per core (splitmix-derived, so (seed, core) pairs never
/// alias).
std::unique_ptr<TraceGenerator> make_parallel_generator(const DseContext& context,
                                                        const PhasePlan& plan,
                                                        std::uint32_t core) {
  return context.workload.make_generator(
      plan.per_core_footprint_scale,
      Rng::derive_stream_seed(context.seed, static_cast<std::uint64_t>(core)));
}

/// One design's time per unit work from its phase results: the serial
/// phase contributes CPI x serial instruction count, the parallel phase
/// its makespan extrapolated linearly from the simulated window to the
/// full per-core share. Null marks a phase that does not run. Every
/// simulation path (batched and reference) folds through here.
BatchSimOutcome fold_phases(const PhasePlan& plan, const sim::SystemResult* serial,
                            const sim::SystemResult* parallel) {
  double total_cycles = 0.0;
  BatchSimOutcome out;
  if (serial != nullptr) {
    total_cycles += serial->cores[0].cpi * plan.serial_ic;
    out.memory_accesses += serial->cores[0].memory_accesses;
  }
  if (parallel != nullptr) {
    for (const sim::CoreResult& core : parallel->cores) out.memory_accesses += core.memory_accesses;
    const double scale = plan.parallel_ic_per_core / static_cast<double>(plan.parallel_window);
    total_cycles += static_cast<double>(parallel->cycles) * scale;
  }
  C2B_ASSERT(total_cycles > 0.0, "design produced zero execution time");
  // Time per unit work: divide by the work factor so rankings agree with
  // the throughput objective of case I (see header).
  out.time = total_cycles / plan.g_n;
  return out;
}

}  // namespace

std::string trace_class_key(const DseContext& context, std::uint32_t cores) {
  std::string key;
  key.reserve(256);
  key += context.workload.uid;
  key += '|';
  key_append(key, context.workload.f_seq);
  key += context.workload.g.description();
  key += '|';
  // description() alone can alias: ScalingFunction::custom accepts any
  // (fn, description) pair, so two numerically different laws may share a
  // label. Sampling g and memory_scale at fixed points — and at the actual
  // core count, which is what the windows and footprint scales are derived
  // from — pins the numeric behavior into the key.
  for (const double n : {1.0, 2.0, 7.0, 64.0}) {
    key_append(key, context.workload.g(n));
    key_append(key, context.workload.g.memory_scale(n));
  }
  const double n_d = static_cast<double>(cores);
  key_append(key, context.workload.g(n_d));
  key_append(key, context.workload.g.memory_scale(n_d));
  key_append(key, context.seed);
  key_append(key, context.instructions0);
  key_append(key, context.per_core_cap);
  key_append(key, std::uint64_t{cores});
  return key;
}

GridSpace make_design_space(const DseAxes& axes) {
  return GridSpace({GridAxis{"a0", axes.a0}, GridAxis{"a1", axes.a1}, GridAxis{"a2", axes.a2},
                    GridAxis{"n", axes.n}, GridAxis{"issue", axes.issue},
                    GridAxis{"rob", axes.rob}});
}

DseAxes make_large_axes() {
  DseAxes axes;
  axes.a0 = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0};
  axes.a1 = {0.125, 0.25, 0.375, 0.5, 0.75, 1.0, 1.5, 2.0};
  axes.a2 = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0};
  // The dense core-count axis is what makes this preset surrogate-friendly:
  // each N is its own trace-equivalence class, and simulation cost grows
  // with N, so pruning the predicted-cold large-N classes is where the
  // wall-clock lives.
  axes.n = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
  axes.issue = {1, 2, 4, 8};
  axes.rob = {16, 32, 64, 128, 192, 256};
  return axes;
}

sim::SystemConfig config_for_design(const DseContext& context,
                                    const std::vector<double>& point) {
  C2B_REQUIRE(point.size() == 6, "design point must have 6 coordinates");
  const double a0 = point[kAxisA0];
  const double a1 = point[kAxisA1];
  const double a2 = point[kAxisA2];
  const auto n = static_cast<std::uint32_t>(std::lround(point[kAxisN]));
  const auto issue = static_cast<std::uint32_t>(std::lround(point[kAxisIssue]));
  const auto rob = static_cast<std::uint32_t>(std::lround(point[kAxisRob]));
  C2B_REQUIRE(n >= 1 && issue >= 1 && rob >= issue, "invalid discrete design values");

  sim::SystemConfig config = context.base;
  config.core.issue_width = issue;
  config.core.rob_size = rob;
  config.core.functional_units = static_cast<std::uint32_t>(
      clamp(std::lround(2.0 * std::sqrt(a0)), 1, 16));

  config.hierarchy.cores = n;
  const std::uint32_t line = config.hierarchy.l1_geometry.line_bytes;
  config.hierarchy.l1_geometry.size_bytes =
      pow2_capacity(context.chip.l1_capacity_lines(a1) * line, line,
                    config.hierarchy.l1_geometry.associativity);
  config.hierarchy.l2_geometry.size_bytes =
      pow2_capacity(context.chip.l2_capacity_lines(a2) * line * n, line,
                    config.hierarchy.l2_geometry.associativity);
  return config;
}

DesignPoint design_point_of(const std::vector<double>& point) {
  C2B_REQUIRE(point.size() == 6, "design point must have 6 coordinates");
  return DesignPoint{.n_cores = point[kAxisN],
                     .a0 = point[kAxisA0],
                     .a1 = point[kAxisA1],
                     .a2 = point[kAxisA2]};
}

ConstraintSet design_constraints(const DseContext& context) {
  ConstraintSet set;
  // Area first: its evaluate/budget/tolerance reproduce the historical
  // inline filter n*(a0+a1+a2) + Ac <= A + 1e-9 bit for bit, so a context
  // with every budget infinite behaves exactly like the pre-constraint-set
  // DSE (the regression guard in test_core_constraints pins this).
  set.add(make_area_constraint(context.chip));
  if (std::isfinite(context.power_budget))
    set.add(make_power_constraint(context.cost.power, context.chip.shared_area,
                                  context.power_budget));
  if (std::isfinite(context.bw_budget))
    set.add(make_bandwidth_constraint(context.cost.bandwidth, context.bw_budget));
  if (std::isfinite(context.noc_budget))
    set.add(make_noc_constraint(context.cost.noc, context.noc_budget));
  return set;
}

bool design_feasible(const DseContext& context, const std::vector<double>& point) {
  return design_feasible(design_constraints(context), point);
}

bool design_feasible(const ConstraintSet& constraints, const std::vector<double>& point) {
  C2B_REQUIRE(point.size() == 6, "design point must have 6 coordinates");
  if (point[kAxisRob] < point[kAxisIssue]) return false;
  return constraints.feasible(design_point_of(point));
}

namespace {

/// Lanes one work unit may replay: members x cores stays within this, so
/// the K simulator instances' working sets stay cache-resident and a wide
/// class splits into enough units to feed the thread pool.
constexpr std::size_t kUnitLanes = 32;
/// Members one work unit may hold, whatever its core count.
constexpr std::size_t kMaxUnitMembers = 16;

/// The largest power of two of members, at most kMaxUnitMembers, whose
/// members x cores fits kUnitLanes (at least one member).
std::size_t unit_member_cap(std::uint32_t cores) {
  std::size_t cap = kMaxUnitMembers;
  while (cap > 1 && cap * cores > kUnitLanes) cap >>= 1;
  return cap;
}

/// Every stream of one trace-equivalence class, generated once per call and
/// read by all of the class's units: the serial phase's stream (when that
/// phase runs) is stream 0, the parallel phase's per-core streams follow.
struct ClassTrace {
  std::uint32_t cores = 0;
  PhasePlan plan;
  TraceChunkStore store;
  std::size_t first_parallel = 0;  ///< stream id of parallel core 0
};

std::unique_ptr<ClassTrace> make_class_trace(const DseContext& context, std::uint32_t cores) {
  auto trace = std::make_unique<ClassTrace>();
  trace->cores = cores;
  trace->plan = make_phase_plan(context, cores);
  const PhasePlan& plan = trace->plan;
  if (plan.serial_window != 0)
    trace->store.add_stream(make_serial_generator(context, plan), plan.serial_window);
  trace->first_parallel = trace->store.stream_count();
  if (plan.parallel_window != 0)
    for (std::uint32_t c = 0; c < cores; ++c)
      trace->store.add_stream(make_parallel_generator(context, plan, c), plan.parallel_window);
  return trace;
}

struct BatchUnit {
  std::vector<std::size_t> members;
  std::size_t class_index = 0;  ///< which trace-equivalence class this unit belongs to
};

struct BatchUnitResult {
  std::vector<BatchSimOutcome> outcomes;  ///< parallel to the unit's members
  sim::BatchKernelStats kernel;
};

/// Simulate one unit: replay all members in lockstep over their class's
/// shared streams. This is the only production simulation path of a
/// design. The replay is timing-only: fold_phases reads cycles, CPI and
/// access counts, never C-AMAT.
BatchUnitResult run_batch_unit(const std::vector<sim::SystemConfig>& configs,
                               const BatchUnit& unit, const ClassTrace& trace) {
  const std::size_t k = unit.members.size();
  std::vector<sim::SystemConfig> member_configs;
  member_configs.reserve(k);
  for (const std::size_t index : unit.members) member_configs.push_back(configs[index]);

  BatchUnitResult out;
  // One phase: every member gets its own cursors over streams
  // [first, first + streams) of the class trace.
  const auto replay = [&](std::size_t first, std::uint32_t streams) {
    std::vector<ChunkCursor> cursors;
    cursors.reserve(k * streams);
    std::vector<std::vector<TraceCursor*>> member_cursors(k);
    for (std::size_t m = 0; m < k; ++m) {
      member_cursors[m].reserve(streams);
      for (std::uint32_t c = 0; c < streams; ++c) {
        cursors.emplace_back(trace.store, first + c);
        member_cursors[m].push_back(&cursors.back());
      }
    }
    return sim::simulate_system_batched(member_configs, member_cursors,
                                        sim::ReplayMode::kTimingOnly, &out.kernel);
  };
  std::vector<sim::SystemResult> serial;
  if (trace.plan.serial_window != 0) serial = replay(0, 1);
  std::vector<sim::SystemResult> parallel;
  if (trace.plan.parallel_window != 0) parallel = replay(trace.first_parallel, trace.cores);

  out.outcomes.reserve(k);
  for (std::size_t m = 0; m < k; ++m)
    out.outcomes.push_back(fold_phases(trace.plan, serial.empty() ? nullptr : &serial[m],
                                       parallel.empty() ? nullptr : &parallel[m]));
  return out;
}

}  // namespace

BatchSimOutcome simulate_design_time_reference(const DseContext& context,
                                               const std::vector<double>& point) {
  const sim::SystemConfig config = config_for_design(context, point);
  const PhasePlan plan = make_phase_plan(context, config.hierarchy.cores);
  std::optional<sim::SystemResult> serial;
  if (plan.serial_window != 0)
    serial = sim::simulate_system_reference(
        config, {make_serial_generator(context, plan)->generate(plan.serial_window)});
  std::optional<sim::SystemResult> parallel;
  if (plan.parallel_window != 0) {
    std::vector<Trace> traces;
    traces.reserve(config.hierarchy.cores);
    for (std::uint32_t c = 0; c < config.hierarchy.cores; ++c)
      traces.push_back(make_parallel_generator(context, plan, c)->generate(plan.parallel_window));
    parallel = sim::simulate_system_reference(config, traces);
  }
  return fold_phases(plan, serial ? &*serial : nullptr, parallel ? &*parallel : nullptr);
}

std::vector<BatchSimOutcome> simulate_design_times_batched(const DseContext& context,
                                                           const std::vector<std::vector<double>>& points,
                                                           BatchReplayStats* stats) {
  C2B_SPAN("aps/batched_replay");
  BatchReplayStats local;
  std::vector<BatchSimOutcome> outcomes(points.size());
  if (points.empty()) {
    if (stats != nullptr) *stats = local;
    return outcomes;
  }

  obs::RunJournal* const journal = obs::active_journal();
  if (obs::ProgressMeter* progress = obs::active_progress())
    progress->add_total(static_cast<double>(points.size()));
  // Per-point peel flags, tracked only while recording so the hot path
  // stays untouched without a journal.
  std::vector<unsigned char> peeled;
  if (journal != nullptr) peeled.assign(points.size(), 0);

  // Peel sim-cache hits up front so only genuinely new designs reach the
  // batching machinery, fold equal-key misses onto one representative, and
  // classify the representatives by core count. Within one context the
  // trace-equivalence key varies only through N (see trace_class_key), so
  // N *is* the class — std::map keeps class order deterministic and
  // independent of the point order hash.
  std::vector<sim::SystemConfig> configs;
  configs.reserve(points.size());
  std::vector<std::string> keys(points.size());
  exec::SimCache& cache = exec::SimCache::global();
  std::map<std::uint32_t, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < points.size(); ++i) {
    configs.push_back(config_for_design(context, points[i]));
    keys[i] = simulation_cache_key(context, configs[i]);
  }
  // One bulk probe for the whole sweep: find_many takes each shard lock
  // once (and the disk-tier index lock once) instead of once per point.
  std::uint64_t peel_disk_hits = 0;
  const auto cached = cache.find_many(keys, &peel_disk_hits);
  local.cache_hits_disk = static_cast<std::size_t>(peel_disk_hits);
  // Equal simulation keys simulate bit-identically (the SimCache contract),
  // so the first miss of each key in point order is the only one replayed;
  // later ones are (alias, representative) pairs resolved after the unit
  // sweep. Points without a key (no workload uid) are never folded. The
  // fold is serial, so the unit layout still depends only on the point list.
  std::unordered_map<std::string_view, std::size_t> representative_of;
  std::vector<std::pair<std::size_t, std::size_t>> aliases;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (cached[i].has_value()) {
      // Replayed accesses never reach sim.l1.*; this counter closes the
      // telemetry ledger (see the header).
      C2B_COUNTER_ADD("exec.simcache.replayed_accesses", cached[i]->memory_accesses);
      outcomes[i] = {cached[i]->time, cached[i]->memory_accesses};
      keys[i].clear();  // nothing to insert later
      ++local.cache_hits;
      if (!peeled.empty()) peeled[i] = 1;
      continue;
    }
    if (!keys[i].empty()) {
      const auto [it, first] = representative_of.try_emplace(keys[i], i);
      if (!first) {
        aliases.emplace_back(i, it->second);
        continue;
      }
    }
    classes[configs[i].hierarchy.cores].push_back(i);
  }
  local.members = points.size() - local.cache_hits;
  local.simulated = local.members - aliases.size();

  if (journal != nullptr)
    journal->emit(obs::JournalEvent("cache_peel")
                      .count("points", points.size())
                      .count("hits", local.cache_hits)
                      .count("disk_hits", local.cache_hits_disk)
                      .count("misses", local.members)
                      .count("shared", aliases.size()));
  if (local.cache_hits > 0)
    if (obs::ProgressMeter* progress = obs::active_progress())
      progress->advance(static_cast<double>(local.cache_hits));

  // Split each class into lane-bounded units, greedily taking the largest
  // power of two <= min(remaining, unit_member_cap(cores)) so unit widths
  // are powers of two wherever the class size allows (N=2, 36 members ->
  // 16,16,4; N=12, 21 members -> ten 2s and a 1). Then order the units
  // longest-first by lanes (members x cores; stable, so ties keep class
  // order): the pool deals units out in index order, so the widest start
  // first and the call's span stays near one unit. The layout depends only
  // on the point list (never on thread count), so the units, and therefore
  // every simulated stream pairing, are deterministic.
  std::vector<std::uint32_t> class_cores;
  std::vector<BatchUnit> units;
  for (const auto& [cores, members] : classes) {
    const std::size_t class_index = class_cores.size();
    class_cores.push_back(cores);
    const std::size_t cap = unit_member_cap(cores);
    std::size_t begin = 0;
    while (begin < members.size()) {
      std::size_t take = cap;
      while (take > members.size() - begin) take >>= 1;
      const std::size_t end = begin + take;
      units.push_back(BatchUnit{{members.begin() + static_cast<std::ptrdiff_t>(begin),
                                 members.begin() + static_cast<std::ptrdiff_t>(end)},
                                class_index});
      begin = end;
    }
  }
  local.classes = class_cores.size();
  const auto lanes = [&](const BatchUnit& unit) {
    return unit.members.size() * class_cores[unit.class_index];
  };
  std::stable_sort(units.begin(), units.end(), [&](const BatchUnit& a, const BatchUnit& b) {
    return lanes(a) > lanes(b);
  });

  // Generate every class's streams once, on the pool (one task per class),
  // before the unit sweep; units then only read them.
  const std::vector<std::unique_ptr<ClassTrace>> traces =
      exec::ThreadPool::global().parallel_map<std::unique_ptr<ClassTrace>>(
          class_cores.size(),
          [&](std::size_t class_index) { return make_class_trace(context, class_cores[class_index]); });

  // Scheduled events go out serially in unit order (the layout above is
  // thread-count independent, so this stream is deterministic).
  if (journal != nullptr)
    for (std::size_t u = 0; u < units.size(); ++u)
      journal->emit(obs::JournalEvent("class_scheduled")
                        .count("unit", u)
                        .count("cores", class_cores[units[u].class_index])
                        .count("members", units[u].members.size()));

  // One unit per pool task; parallel_map keeps results in unit order, and
  // each unit only writes its own slot, so the reduction below is serial
  // and index-ordered.
  const std::vector<BatchUnitResult> unit_results =
      exec::ThreadPool::global().parallel_map<BatchUnitResult>(
          units.size(), [&](std::size_t u) {
            const BatchUnit& unit = units[u];
            const auto start = std::chrono::steady_clock::now();
            BatchUnitResult result = run_batch_unit(configs, unit, *traces[unit.class_index]);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            C2B_HISTOGRAM_RECORD("aps.batch.unit_wall_ms", 0.0, 250.0, 50, wall_ms);
            // Completed events come from pool workers: per-event order is
            // arbitrary, but the (unit, cores, members, config) multiset is
            // identical for every thread count (wall_ms is wall clock and
            // of course is not).
            if (obs::RunJournal* active = obs::active_journal()) {
              const std::vector<double>& point = points[unit.members.front()];
              char config_buf[96];
              std::snprintf(config_buf, sizeof config_buf,
                            "n=%.0f a0=%g a1=%g a2=%g issue=%.0f rob=%.0f",
                            point[kAxisN], point[kAxisA0], point[kAxisA1],
                            point[kAxisA2], point[kAxisIssue], point[kAxisRob]);
              active->emit(
                  obs::JournalEvent("class_completed")
                      .count("unit", u)
                      .count("cores", class_cores[unit.class_index])
                      .count("members", unit.members.size())
                      .num("wall_ms", wall_ms)
                      .str("config", config_buf));
              active->snapshot_metrics();
            }
            if (obs::ProgressMeter* progress = obs::active_progress())
              progress->advance(static_cast<double>(unit.members.size()));
            return result;
          });

  for (std::size_t u = 0; u < units.size(); ++u) {
    const BatchUnit& unit = units[u];
    const BatchUnitResult& result = unit_results[u];
    for (std::size_t m = 0; m < unit.members.size(); ++m) outcomes[unit.members[m]] = result.outcomes[m];
    local.simd_steps += result.kernel.simd_steps;
    local.simd_peels += result.kernel.simd_peels;
    local.simd_lanes_active += result.kernel.simd_lanes_active;
  }
  // Every member reads all of its class's trace; each one after the first
  // read it instead of regenerating it. Inserts go in class order.
  std::vector<std::pair<std::string, exec::SimCache::Value>> inserts;
  inserts.reserve(points.size());
  std::size_t class_index = 0;
  for (const auto& [cores, members] : classes) {
    (void)cores;
    const ChunkStoreStats& generated = traces[class_index++]->store.stats();
    const std::uint64_t later_readers = members.size() - 1;
    local.records_generated += generated.records_generated;
    local.chunks_shared += later_readers * generated.chunks_generated;
    local.regen_avoided_accesses += later_readers * generated.accesses_generated;
    for (const std::size_t index : members)
      if (!keys[index].empty())
        inserts.emplace_back(std::move(keys[index]),
                             exec::SimCache::Value{outcomes[index].time,
                                                   outcomes[index].memory_accesses});
  }
  cache.insert_many(inserts);

  // Aliases take their representative's outcome. Their accesses never reach
  // sim.l1.*; exec.batch.shared_accesses closes the ledger (see the header).
  std::uint64_t shared_accesses = 0;
  for (const auto& [alias, representative] : aliases) {
    outcomes[alias] = outcomes[representative];
    shared_accesses += outcomes[alias].memory_accesses;
  }
  if (!aliases.empty())
    if (obs::ProgressMeter* progress = obs::active_progress())
      progress->advance(static_cast<double>(aliases.size()));

  // Per-point outcomes, emitted serially in point order after the scatter —
  // this is the stream `c2b report` builds its objective heatmap from.
  if (journal != nullptr)
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::vector<double>& point = points[i];
      journal->emit(obs::JournalEvent("point")
                        .num("n", point[kAxisN])
                        .num("a0", point[kAxisA0])
                        .num("a1", point[kAxisA1])
                        .num("a2", point[kAxisA2])
                        .num("issue", point[kAxisIssue])
                        .num("rob", point[kAxisRob])
                        .num("objective", outcomes[i].time)
                        .count("cached", peeled[i]));
    }

  C2B_COUNTER_ADD("exec.batch.classes", local.classes);
  C2B_COUNTER_ADD("exec.batch.members", local.members);
  C2B_COUNTER_ADD("exec.batch.simulated", local.simulated);
  C2B_COUNTER_ADD("exec.batch.shared_accesses", shared_accesses);
  C2B_COUNTER_ADD("exec.batch.chunks_shared", local.chunks_shared);
  C2B_COUNTER_ADD("exec.batch.regen_avoided_accesses", local.regen_avoided_accesses);
  // exec.batch.simd.* are bumped inside the replay kernel itself.
  if (stats != nullptr) *stats = local;
  return outcomes;
}

namespace {

/// j strictly dominates i under minimize-(time, power, area): no worse in
/// every coordinate and strictly better in at least one. Points equal in
/// all three dominate nothing, so exact ties survive together.
bool dominates(const FrontierPoint& a, const FrontierPoint& b) {
  if (a.time > b.time || a.power > b.power || a.area > b.area) return false;
  return a.time < b.time || a.power < b.power || a.area < b.area;
}

/// A frontier point "binds" a constraint when its demand sits within 5%
/// relative slack of the budget — the resource the designer would have to
/// grow to move that point.
constexpr double kBindingSlackFraction = 0.05;

}  // namespace

ParetoDseResult run_pareto_dse(const DseContext& context, const GridSpace& space) {
  C2B_SPAN("aps/pareto_dse");
  ParetoDseResult result;
  result.grid_points = space.size();
  const ConstraintSet set = design_constraints(context);
  result.usage.reserve(set.size());
  for (const Constraint& constraint : set.constraints())
    result.usage.push_back(ConstraintUsage{constraint.name, constraint.budget, 0, 0});

  // Plan: the same serial factorial filter run_full_dse uses, but checking
  // every constraint per point so each one's rejection count is exact (a
  // point violating several budgets is charged to each).
  std::vector<std::size_t> flats;
  std::vector<std::vector<double>> points;
  {
    obs::PhaseScope phase("plan");
    space.for_each([&](std::size_t flat, const std::vector<double>& point) {
      if (point[kAxisRob] < point[kAxisIssue]) return;
      const DesignPoint d = design_point_of(point);
      bool feasible = true;
      for (std::size_t c = 0; c < set.size(); ++c) {
        if (!set.constraints()[c].satisfied(d)) {
          ++result.usage[c].infeasible;
          feasible = false;
        }
      }
      if (!feasible) return;
      flats.push_back(flat);
      points.push_back(point);
    });
  }
  result.feasible_count = flats.size();
  result.simulations = flats.size();
  C2B_REQUIRE(result.feasible_count > 0, "no feasible design in the space");

  // The analytic objective coordinates are cheap; compute them for every
  // feasible point up front — the surrogate's dominance pruning needs them
  // before any simulation happens, and the frontier attachment reuses them.
  std::vector<double> powers(points.size());
  std::vector<double> areas(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignPoint d = design_point_of(points[i]);
    powers[i] = context.cost.power.total(d, context.chip.shared_area);
    areas[i] = d.n_cores * (d.a0 + d.a1 + d.a2) + context.chip.shared_area;
  }

  // Sweep: identical engine, identical streams, identical cache keys as the
  // plain DSE — a Pareto run after a plain run is all cache hits. With the
  // surrogate enabled, classes confidently dominated by the simulated
  // frontier are skipped; `simulated` marks which outcomes are real.
  std::vector<BatchSimOutcome> outcomes;
  std::vector<std::uint8_t> simulated;  // empty = every point was simulated
  {
    obs::PhaseScope phase("sweep");
    if (context.surrogate_enabled) {
      const SurrogateObjectives objectives{powers, areas};
      SurrogateSweepResult sweep = surrogate_sweep(context, points, &objectives);
      outcomes = std::move(sweep.outcomes);
      simulated = std::move(sweep.simulated);
      result.batch = sweep.batch;
      result.surrogate = sweep.stats;
      result.simulations = sweep.stats.points_simulated;
    } else {
      outcomes = simulate_design_times_batched(context, points, &result.batch);
    }
  }

  // Frontier: attach the analytic power/area coordinates to each simulated
  // time and keep the non-dominated set. O(n^2) pairwise on the feasible
  // list — serial and index-ordered, so the frontier is a pure function of
  // the grid and bit-identical at any thread count.
  obs::PhaseScope phase("frontier");
  std::vector<FrontierPoint> candidates;
  candidates.reserve(flats.size());
  for (std::size_t i = 0; i < flats.size(); ++i) {
    if (!simulated.empty() && !simulated[i]) continue;  // surrogate-pruned
    FrontierPoint fp;
    fp.flat_index = flats[i];
    fp.point = points[i];
    fp.time = outcomes[i].time;
    fp.power = powers[i];
    fp.area = areas[i];
    candidates.push_back(std::move(fp));
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (j != i && dominates(candidates[j], candidates[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.frontier.push_back(candidates[i]);
  }
  std::sort(result.frontier.begin(), result.frontier.end(),
            [](const FrontierPoint& a, const FrontierPoint& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.power != b.power) return a.power < b.power;
              if (a.area != b.area) return a.area < b.area;
              return a.flat_index < b.flat_index;
            });

  for (const FrontierPoint& fp : result.frontier) {
    const DesignPoint d = design_point_of(fp.point);
    for (std::size_t c = 0; c < set.size(); ++c) {
      const Constraint& constraint = set.constraints()[c];
      if (constraint.budget > 0.0 &&
          constraint.evaluate(d) >= (1.0 - kBindingSlackFraction) * constraint.budget)
        ++result.usage[c].binding;
    }
  }

  if (obs::RunJournal* journal = obs::active_journal()) {
    for (const FrontierPoint& fp : result.frontier)
      journal->emit(obs::JournalEvent("frontier_point")
                        .num("n", fp.point[kAxisN])
                        .num("a0", fp.point[kAxisA0])
                        .num("a1", fp.point[kAxisA1])
                        .num("a2", fp.point[kAxisA2])
                        .num("issue", fp.point[kAxisIssue])
                        .num("rob", fp.point[kAxisRob])
                        .num("time", fp.time)
                        .num("power", fp.power)
                        .num("area", fp.area));
    for (const ConstraintUsage& usage : result.usage)
      journal->emit(obs::JournalEvent("constraint")
                        .str("name", usage.name)
                        .num("budget", usage.budget)
                        .count("infeasible", usage.infeasible)
                        .count("binding", usage.binding));
    journal->emit(obs::JournalEvent("pareto_summary")
                      .count("frontier", result.frontier.size())
                      .count("feasible", result.feasible_count)
                      .count("grid_points", result.grid_points));
  }
  C2B_COUNTER_ADD("aps.pareto.frontier_points", result.frontier.size());
  return result;
}

}  // namespace c2b
