#pragma once

// Post-mortem over a run journal: `c2b report` replays the JSONL event
// stream written by RunJournal and aggregates it into a RunReport — phase
// time breakdown, cache/batch effectiveness, per-unit sim-time percentiles
// with the slowest work units, each batched call's replay balance, and an
// objective heatmap over the
// explored (n_cores × cache split) plane. The builder is generic over
// JournalRecord fields (it depends only on obs, not on aps), so journals
// from future producers replay with the same tool.

#include <cstddef>
#include <string>
#include <vector>

#include "c2b/obs/journal.h"

namespace c2b::obs {

struct RunReport {
  // --- run header (from `run_begin` / `run_end`) ---
  std::string command;
  std::string workload;
  std::string workload_uid;
  double threads = 0.0;
  double total_wall_ms = 0.0;     ///< run_end wall, else last event ts
  bool saw_run_end = false;       ///< false = journal ends mid-run (crash?)

  // --- phase breakdown (from `phase_end`, first-seen order) ---
  struct Phase {
    std::string name;
    double wall_ms = 0.0;
    std::size_t count = 0;  ///< phase_end events folded into this row
  };
  std::vector<Phase> phases;

  // --- work units (from `class_completed`, sorted by wall desc) ---
  struct UnitStat {
    double cores = 0.0;
    double members = 0.0;
    double wall_ms = 0.0;
    std::string config;  ///< producer-provided summary of one member config
  };
  std::vector<UnitStat> units;
  double unit_wall_p50 = 0.0;
  double unit_wall_p90 = 0.0;
  double unit_wall_p99 = 0.0;
  double simulated_members = 0.0;  ///< sum of members over completed work units
  double simulated_wall_ms = 0.0;  ///< sum of unit wall times

  // --- replay balance, one entry per batched call that replayed units (a
  // `cache_peel` opens a call; its `class_completed` events follow) ---
  struct ReplayCall {
    double units = 0.0;
    double wall_ms = 0.0;     ///< cache_peel to the call's last completed unit
    double unit_ms = 0.0;     ///< summed unit wall time
    double longest_ms = 0.0;  ///< the slowest unit: the call's span
    double threads = 0.0;     ///< pool width (`pool_start`, else `run_begin`)
    /// Share of the call's thread time spent in units: unit_ms / (wall_ms x threads).
    double efficiency() const {
      return wall_ms > 0.0 && threads > 0.0 ? unit_ms / (wall_ms * threads) : 0.0;
    }
  };
  std::vector<ReplayCall> replay_calls;

  // --- cache/batch effectiveness (from `cache_peel` / `batch_stats`) ---
  double points = 0.0;             ///< design points entering the sweep
  double cache_hits = 0.0;         ///< points peeled by the sim cache (any tier)
  double cache_hits_disk = 0.0;    ///< the subset served by the disk tier
  double shared = 0.0;             ///< misses folded onto an equal-key member in the same call
  double chunks_shared = 0.0;
  double regen_avoided_accesses = 0.0;
  double est_saved_ms = 0.0;       ///< (cache_hits + shared) × mean per-member sim wall
  double est_saved_mem_ms = 0.0;   ///< attribution: memory-tier hits' share
  double est_saved_disk_ms = 0.0;  ///< attribution: disk-tier hits' share
  double batch_speedup = 1.0;      ///< (sim wall + est saved) / sim wall

  // --- two-tier sim cache (from the end-of-sweep `cache_tiers` snapshot;
  // counters are process-wide, last snapshot wins) ---
  bool cache_tiers_seen = false;
  bool disk_attached = false;
  double mem_hits = 0.0;
  double mem_misses = 0.0;        ///< missed every attached tier
  double mem_entries = 0.0;
  double evictions = 0.0;
  double disk_hits = 0.0;
  double disk_misses = 0.0;
  double disk_entries = 0.0;
  double disk_flushes = 0.0;
  double disk_drops = 0.0;        ///< corrupt/stale/overflowed records skipped
  // Replay-kernel accounting (exec.batch.simd.*).
  double simd_steps = 0.0;
  double simd_peels = 0.0;
  double simd_lanes_active = 0.0;

  // --- explored space (from `point`) ---
  struct PointSample {
    double n_cores = 0.0;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0;
    double objective = 0.0;
    bool cached = false;
  };
  std::vector<PointSample> explored;

  // --- Pareto frontier (from `frontier_point` / `constraint` /
  // `pareto_summary`, emitted by the Pareto DSE mode) ---
  struct FrontierSample {
    double n_cores = 0.0;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0;
    double time = 0.0;
    double power = 0.0;
    double area = 0.0;
  };
  std::vector<FrontierSample> frontier;
  struct ConstraintStat {
    std::string name;
    double budget = 0.0;
    double infeasible = 0.0;  ///< grid points the constraint rejected
    double binding = 0.0;     ///< frontier points within 5% of the budget
  };
  std::vector<ConstraintStat> constraints;
  double pareto_feasible = 0.0;
  double pareto_grid_points = 0.0;

  // --- surrogate pruning (from `surrogate_round` / `surrogate_summary`,
  // emitted by the surrogate-guided sweep driver) ---
  struct SurrogateRound {
    double round = 0.0;
    double class_n = 0.0;          ///< core count of the admitted class
    double class_members = 0.0;    ///< members simulated by the admission
    double predicted_best = 0.0;   ///< model's best guess that triggered it
    double incumbent = 0.0;        ///< best ground-truth time before the round
    double trained_samples = 0.0;
  };
  std::vector<SurrogateRound> surrogate_rounds;
  bool surrogate_seen = false;  ///< a surrogate_summary event was journaled
  double surrogate_classes_total = 0.0;
  double surrogate_classes_simulated = 0.0;
  double surrogate_classes_pruned = 0.0;
  double surrogate_points_total = 0.0;
  double surrogate_points_simulated = 0.0;
  double surrogate_warmup_sims = 0.0;
  double surrogate_fallback_sims = 0.0;
  double surrogate_trained_samples = 0.0;
  double surrogate_rounds_total = 0.0;
  double surrogate_mre = 0.0;
  double surrogate_fits_trained = 0.0;
  double surrogate_fits_cached = 0.0;
  double surrogate_fit_drops = 0.0;

  JournalReadStats read_stats;
};

/// Exact quantile (linear interpolation) of an unsorted sample; the
/// reference implementation histogram percentiles are tested against.
double exact_quantile(std::vector<double> values, double q);

RunReport build_report(const std::vector<JournalRecord>& records,
                       JournalReadStats stats = {});

/// Human-readable post-mortem (top_k bounds the slowest-unit table).
std::string render_report(const RunReport& report, std::size_t top_k = 10);

/// CSV heatmap: rows = n_cores, columns = (a1,a2) cache splits, cell =
/// min objective over every other axis. Empty string when no points.
std::string heatmap_csv(const RunReport& report);

}  // namespace c2b::obs
