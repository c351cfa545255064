#pragma once

// The six-parameter CMP design space of the paper's Fig. 12 case study
// (A0, A1, A2, N, issue width, ROB size), the mapping from a design point
// to a simulator configuration, and the ground-truth evaluation of one
// design: the Sun-Ni-scaled problem's execution time on the cycle-level
// simulator (serial phase on one core + SPMD parallel phase on N cores,
// linearly extrapolated from capped simulation windows so a full factorial
// traversal stays affordable).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "c2b/core/chip.h"
#include "c2b/core/constraints.h"
#include "c2b/sim/system/system.h"
#include "c2b/solver/grid.h"
#include "c2b/trace/workloads.h"

namespace c2b {

/// Axis order inside the grid: a0, a1, a2, n, issue, rob.
enum DseAxisIndex : std::size_t {
  kAxisA0 = 0,
  kAxisA1 = 1,
  kAxisA2 = 2,
  kAxisN = 3,
  kAxisIssue = 4,
  kAxisRob = 5,
};

struct DseAxes {
  std::vector<double> a0{0.5, 1.0, 2.0, 4.0};
  std::vector<double> a1{0.25, 0.5, 1.0, 2.0};
  std::vector<double> a2{0.5, 1.0, 2.0, 4.0};
  std::vector<double> n{1, 2, 4, 8};
  std::vector<double> issue{2, 4, 8};
  std::vector<double> rob{32, 128, 256};
};

/// Fig.-12-scale preset: the paper's 10^6-point study sampled at
/// (near-)power-of-two steps — 8x8x8 area splits x 10 core counts x 4
/// issue widths x 6 ROB sizes = 122,880 raw grid points, with the many-N
/// axis giving the surrogate driver real trace classes to prune. Exhaust
/// this grid only through surrogate-guided or heavily budget-filtered
/// sweeps.
DseAxes make_large_axes();

GridSpace make_design_space(const DseAxes& axes);

struct DseContext {
  ChipConstraints chip{};            ///< densities for area -> capacity
  sim::SystemConfig base{};          ///< latencies / DRAM / NoC template
  WorkloadSpec workload;             ///< what runs on each candidate
  std::uint64_t instructions0 = 60'000;  ///< IC0 of the scaled-down study
  std::uint64_t per_core_cap = 40'000;   ///< simulation window cap per core
  std::uint64_t seed = 99;
  // Multi-resource budgets (+infinity = that resource is unconstrained)
  // and the analytic demand models behind them. Budgets only *filter* the
  // design space — they never change what a simulation computes, so they
  // are deliberately absent from trace-class and sim-cache keys.
  double power_budget = std::numeric_limits<double>::infinity();
  double bw_budget = std::numeric_limits<double>::infinity();
  double noc_budget = std::numeric_limits<double>::infinity();
  ConstraintModels cost{};
  // Surrogate-guided sweep pruning (c2b/aps/surrogate.h): when enabled,
  // run_full_dse / run_pareto_dse train an MLP on streaming batched-replay
  // results and skip trace classes predicted to be more than a fixed
  // relative band away from the incumbent optimum/frontier.
  // The reported optimum is always simulator ground truth (an exact
  // fallback pass re-simulates the predicted neighborhood), and every
  // decision is a serial function of deterministic simulation results, so
  // sweeps stay bit-identical at any thread count. Pruned points are the
  // only observable difference: their times stay +infinity.
  bool surrogate_enabled = false;
};

/// The DesignPoint view of a 6-coordinate grid point (issue/ROB carry no
/// resource demand in any current model).
DesignPoint design_point_of(const std::vector<double>& point);

/// Assemble the context's declarative constraint set: area always (the
/// historical Eq. (12) filter, bit-identical), then power / bandwidth /
/// NoC for each finite budget, in that order. A context with all budgets
/// infinite yields exactly the single area constraint.
ConstraintSet design_constraints(const DseContext& context);

/// Translate a design point to a full simulator configuration. Cache sizes
/// are rounded to powers of two (hardware-buildable geometry); functional
/// units follow Pollack: fu = clamp(round(2 sqrt(A0)), 1, 16).
sim::SystemConfig config_for_design(const DseContext& context,
                                    const std::vector<double>& point);

/// The constraint set as a grid filter: a candidate is buildable iff
/// ROB >= issue width and every member of design_constraints(context) is
/// satisfied — Eq. (12) area always, plus power/bandwidth/NoC when their
/// budgets are finite. The paper's design space is a chip's design space —
/// configurations that do not fit the die (or its power/BW/NoC envelopes)
/// are not simulated by any method.
bool design_feasible(const DseContext& context, const std::vector<double>& point);
/// The same filter against a set already built by design_constraints, so
/// a loop over the grid builds it once rather than once per point.
bool design_feasible(const ConstraintSet& constraints, const std::vector<double>& point);

/// Stream-determining key of a design: every field that decides which trace
/// records the simulator consumes — workload uid + numeric g/memory_scale
/// samples (including at the actual core count), f_seq, seed, IC0, window
/// cap, and N. Cache geometry / issue width / ROB size are absent on
/// purpose: they change how the streams are *timed*, never their contents.
/// Designs with equal keys form one trace-equivalence class and can replay
/// a single shared stream. With an empty workload uid the key only
/// identifies streams within one DseContext (uids pin the generator family
/// across contexts).
std::string trace_class_key(const DseContext& context, std::uint32_t cores);

/// Ground-truth cost of one design: execution time (cycles) of the
/// capacity-scaled problem divided by its work factor g(N) — i.e. inverse
/// throughput, time per unit work. Lower is better. Normalizing by g(N)
/// makes the metric consistent across core counts for BOTH cases of the
/// paper's split (for fixed g it is plain time; for scalable g it ranks by
/// W/T, which is what case I optimizes). `memory_accesses` counts the
/// demand memory accesses the underlying simulations issued.
struct BatchSimOutcome {
  double time = 0.0;
  std::uint64_t memory_accesses = 0;
};

/// The differential baseline for simulate_design_times_batched: the same
/// phase plan and extrapolation, but over materialized traces on the
/// per-cycle reference kernel (sim::simulate_system_reference), with no sim
/// cache. The `kernel` oracle family requires the production path to equal
/// it bitwise. Not for production use — it walks every cycle.
BatchSimOutcome simulate_design_time_reference(const DseContext& context,
                                               const std::vector<double>& point);

/// What a batched sweep did, for CLI summaries and tests (the same numbers
/// are emitted as exec.batch.* telemetry counters).
struct BatchReplayStats {
  std::size_t classes = 0;     ///< trace-equivalence classes simulated
  std::size_t members = 0;     ///< points the sim cache did not serve; all resolved by batched replay
  std::size_t simulated = 0;   ///< distinct simulation keys among members: the ones replayed
  std::size_t cache_hits = 0;  ///< points peeled off by the sim cache (either tier)
  std::size_t cache_hits_disk = 0;  ///< the subset of cache_hits served from the disk tier
  // Trace sharing. Each class's trace is generated once per call and every
  // member reads all of it, so every member after a class's first reads its
  // chunks (and their accesses) instead of regenerating them.
  std::uint64_t records_generated = 0;        ///< trace records generated, all classes
  std::uint64_t chunks_shared = 0;            ///< chunks read from a class trace after its first member
  std::uint64_t regen_avoided_accesses = 0;   ///< the accesses in those chunks
  // Replay-kernel accounting (sim::BatchKernelStats, summed over units).
  std::uint64_t simd_steps = 0;
  std::uint64_t simd_peels = 0;
  std::uint64_t simd_lanes_active = 0;

  void merge(const BatchReplayStats& other) {
    classes += other.classes;
    members += other.members;
    simulated += other.simulated;
    cache_hits += other.cache_hits;
    cache_hits_disk += other.cache_hits_disk;
    records_generated += other.records_generated;
    chunks_shared += other.chunks_shared;
    regen_avoided_accesses += other.regen_avoided_accesses;
    simd_steps += other.simd_steps;
    simd_peels += other.simd_peels;
    simd_lanes_active += other.simd_lanes_active;
  }
};

/// What the surrogate driver did over one sweep (all zero when
/// surrogate_enabled is false). The same numbers are emitted as
/// exec.surrogate.* telemetry and journaled as surrogate_round /
/// surrogate_summary events. A class counts as *simulated* when every one
/// of its members was simulated (admitted by the band test, or so small the
/// warmup covered it); otherwise it is *pruned* — even though the warmup
/// and fallback passes may still have sampled a few of its members.
struct SurrogateStats {
  std::size_t classes_total = 0;
  std::size_t classes_simulated = 0;
  std::size_t classes_pruned = 0;
  std::size_t points_total = 0;      ///< feasible points handed to the driver
  std::size_t points_simulated = 0;  ///< ground-truth simulations performed
  std::size_t warmup_sims = 0;       ///< per-class seeding samples
  std::size_t fallback_sims = 0;     ///< exact pass over the predicted neighborhood
  std::size_t trained_samples = 0;   ///< (point -> time) pairs the MLP saw
  std::size_t rounds = 0;            ///< scheduling rounds (training epochs batches)
  double mre = 0.0;  ///< final model mean relative error on simulated points
  // One MLP fit per round; with a disk tier attached each is memoized in
  // a fit file (surrogate.h, memoized_fit), so fits_trained + fits_cached
  // == rounds. Only these three differ between a cold and a warm run.
  std::size_t fits_trained = 0;  ///< fits computed by Mlp::fit
  std::size_t fits_cached = 0;   ///< fits restored from a fit file
  std::size_t fit_drops = 0;     ///< fit files skipped as torn, corrupt or foreign
};

/// The one way to evaluate design points (one BatchSimOutcome per point,
/// in order; a single design is a one-point call). Sim-cache hits are
/// peeled off up front, the misses are grouped into trace-equivalence
/// classes (see trace_class_key), and each class generates its streams once
/// per call into an immutable chunk store that all of its members read.
/// Classes are split into lane-bounded work units (members x cores <= 32,
/// at most 16 members) that replay in lockstep
/// (sim::simulate_system_batched) on the exec thread pool, widest first.
/// A call therefore holds sum over its classes of (1 + N) x window trace
/// records (~20 B each) until it returns. The unit layout is a pure
/// function of the point list, so results are bit-identical at any thread
/// count and batch width — and bit-identical to
/// simulate_design_time_reference (the `kernel` oracle family enforces
/// this). Misses with equal simulation keys (the SimCache key: equal keys
/// simulate bit-identically) are replayed once per call: the first in point
/// order is the representative, the rest copy its outcome after the unit
/// sweep. Points of a workload without a uid have no key and never fold.
/// Results are bulk-inserted into exec::SimCache::global() afterwards, one
/// insert per key. Neither a cache hit nor a folded point touches the
/// simulator, so the telemetry ledger is sim.l1.hit + sim.l1.miss +
/// exec.simcache.replayed_accesses + exec.batch.shared_accesses == reported
/// accesses.
std::vector<BatchSimOutcome> simulate_design_times_batched(
    const DseContext& context, const std::vector<std::vector<double>>& points,
    BatchReplayStats* stats = nullptr);

/// One member of the Pareto frontier: the grid point plus its three
/// objective coordinates (all minimized).
struct FrontierPoint {
  std::size_t flat_index = 0;        ///< row-major index into the grid space
  std::vector<double> point;         ///< the 6 axis values (DseAxisIndex order)
  double time = 0.0;                 ///< simulated time-per-work (ground truth)
  double power = 0.0;                ///< analytic PowerModel::total
  double area = 0.0;                 ///< N (A0+A1+A2) + Ac
};

/// Per-constraint accounting over one Pareto sweep.
struct ConstraintUsage {
  std::string name;
  double budget = 0.0;
  std::size_t infeasible = 0;  ///< grid points this constraint rejects
  std::size_t binding = 0;     ///< frontier points within 5% relative slack
};

struct ParetoDseResult {
  std::vector<FrontierPoint> frontier;  ///< sorted by (time, power, area, index)
  std::vector<ConstraintUsage> usage;   ///< one entry per set member, set order
  std::size_t grid_points = 0;          ///< full factorial size
  std::size_t feasible_count = 0;       ///< points passing rob>=issue + the set
  /// Feasible points actually simulated: == feasible_count for exhaustive
  /// sweeps, fewer when context.surrogate_enabled pruned classes.
  std::size_t simulations = 0;
  BatchReplayStats batch;
  SurrogateStats surrogate;  ///< all zero unless context.surrogate_enabled
};

/// Pareto-frontier DSE: filter the factorial grid by design_constraints
/// (counting per-constraint rejections), evaluate every feasible point with
/// the batched replay engine (sim cache and trace classing unchanged),
/// attach analytic power and area to each simulated time, and keep the
/// non-dominated set under minimize-(time, power, area). Ties equal in all
/// three coordinates are all kept. The frontier is sorted by
/// (time, power, area, flat_index), so the result is bit-identical at any
/// thread count and across warm/cold caches — the `constraint` oracle
/// family and the parallel-determinism tests enforce this. Emits
/// frontier_point / constraint / pareto_summary journal events when a
/// flight recorder is active. With context.surrogate_enabled, classes
/// confidently dominated by the simulated frontier are pruned instead of
/// simulated (see c2b/aps/surrogate.h); the `surrogate` oracle family
/// checks the returned frontier stays identical to the exhaustive one.
ParetoDseResult run_pareto_dse(const DseContext& context, const GridSpace& space);

}  // namespace c2b
