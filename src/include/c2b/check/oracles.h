#pragma once

// Differential oracle harness: seven oracle families that check the
// analytic model, the cycle-level simulator, and the parallel execution
// layer on *randomly sampled* configurations (seed-driven, so every failure
// replays from the seed). Each family tests the path that ships against a
// deliberately simple reference or a contract:
//
//   1. analytic-vs-simulator — the calibrated C²-Bound model's predicted
//      time-per-work vs the simulator (one simulate_design_times_batched
//      call per workload) across sampled designs, with a per-workload
//      tolerance band asserted and exportable as JSON;
//   2. serial-vs-parallel — the determinism contract (thread counts 1/2/8
//      bit-identical, warm sim-cache replay identity) on random DSE/APS
//      scenarios instead of hand-picked ones;
//   3. invariant registry — the telemetry ledger (sim.l1.hit + sim.l1.miss
//      + exec.simcache.replayed_accesses + exec.batch.shared_accesses ==
//      reported memory accesses),
//      area conservation at every optimizer iterate (Eq. 12), and the
//      model's structural bounds (C-AMAT <= AMAT, C >= 1, Pollack CPI
//      monotone in area, time monotone in area at fixed N);
//   4. kernel equivalence — the one replay kernel vs the retained per-cycle
//      reference kernel, every SystemResult field compared bitwise: K=1 on
//      random configurations (coherence and prefetch included) and random
//      traces with the per-run demand-access ledger, and batch widths
//      {1,2,4,8,16} over shared chunk-store streams (the first set always
//      longer than one chunk); then the DSE layer — the shipped
//      simulate_design_times_batched, one point per call and whole sets at
//      every thread count, vs simulate_design_time_reference on random
//      design-point sets (each with one equal-key twin appended, which a
//      whole-set run must fold, not replay), times and access counts
//      bitwise, cold and warm sim cache (each warm one-point call exactly
//      one cache hit), with the telemetry ledger balanced;
//   5. constraint ground truth — on random small spaces with finite
//      power/bandwidth/NoC budgets, a serial full-factorial enumeration
//      filtered Eq.-(12)-style by the constraint set is the oracle: the
//      constrained DSE optimum and the Pareto mode's frontier (membership
//      and every time/power/area coordinate, bitwise) must match it at
//      every thread count, and warm sim-cache replays must reproduce the
//      cold frontier exactly;
//   6. surrogate pruning — the MLP-guided sweep pruner vs the exhaustive
//      sweep: on a fixed multi-class space that provably prunes at least
//      one class and on random scenarios, the surrogate run's optimum
//      (index and time, bitwise) and Pareto frontier (membership and every
//      coordinate, bitwise) must equal the exhaustive ground truth at
//      every thread count, cold and warm sim-cache, and every simulated
//      point's time must be bitwise equal to its exhaustive counterpart;
//   7. persistent cache — the two-tier SimCache's cross-run contract: on
//      random scenarios, each swept with the surrogate off and on, a
//      no-cache reference sweep, a cold disk-backed sweep, warm *restarts*
//      (memory tier dropped, disk tier re-attached — the process-restart
//      emulation) at every thread count and a warm in-memory replay must
//      all be bitwise identical, surrogate statistics included; with the
//      surrogate on, every warm run restores every MLP fit from its fit
//      file and a cache-off run reads and writes none; a corrupted cache
//      directory (bit flips, truncated tails) must degrade to a cold run
//      with the damage counted as drops (fit files included), never change
//      a result and never error.
//
// The oracles mutate process-global execution state (thread count, the
// global sim cache, telemetry counters) and restore defaults on exit; do
// not run them concurrently with other work in the same process.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace c2b::check {

/// Each family runs at fixed sizes (constants in oracles.cpp); only the
/// seed varies between runs.
struct OracleOptions {
  std::uint64_t seed = 42;
};

/// Observed vs asserted model-simulator agreement for one workload.
struct ToleranceBand {
  std::string workload;
  std::size_t samples = 0;
  double mean_abs_rel_error = 0.0;  ///< mean |analytic - sim| / sim
  double max_abs_rel_error = 0.0;
  double mean_tolerance = 0.0;  ///< asserted bound on the mean
  double max_tolerance = 0.0;   ///< asserted bound on the max
  bool passed = false;
};

struct OracleReport {
  std::string family;
  std::size_t checks = 0;  ///< individual comparisons performed
  std::vector<std::string> failures;
  std::vector<ToleranceBand> bands;  ///< analytic-vs-sim only
  bool passed() const noexcept { return failures.empty(); }
};

OracleReport run_analytic_vs_sim_oracle(const OracleOptions& options = {});
OracleReport run_determinism_oracle(const OracleOptions& options = {});
OracleReport run_invariant_oracle(const OracleOptions& options = {});
OracleReport run_kernel_equivalence_oracle(const OracleOptions& options = {});
OracleReport run_constraint_oracle(const OracleOptions& options = {});
OracleReport run_surrogate_oracle(const OracleOptions& options = {});
OracleReport run_persistent_cache_oracle(const OracleOptions& options = {});

/// One `c2b check --family` choice: the flag value that selects it, the
/// name its report carries (the two differ for analytic_vs_sim and
/// persistent_cache), and its runner.
struct OracleFamily {
  std::string_view flag;
  std::string_view report_name;
  OracleReport (*run)(const OracleOptions&);
};

/// The seven families in run order.
const std::array<OracleFamily, 7>& oracle_families();

/// All seven families in order; never throws on oracle failure (inspect
/// the reports).
std::vector<OracleReport> run_all_oracles(const OracleOptions& options = {});

/// The command that reruns the family whose report is named `report_name`
/// at `seed`, with the failing case's stream id after it, e.g.
/// "c2b check --family kernel --seed 7 (case 50003)". Every oracle
/// failure ends with this repro.
std::string repro_command(std::string_view report_name, std::uint64_t seed,
                          std::size_t case_id);

/// Export tolerance bands as a JSON array. Returns false on I/O failure.
bool write_tolerance_bands_json(const std::string& path,
                                const std::vector<ToleranceBand>& bands);

}  // namespace c2b::check
