#pragma once

// APS (Analysis Plus Simulation, paper Fig. 6) and the Fig. 12 comparison:
//
//   * full factorial — simulate every grid point (the paper's 10^6-point
//     ground truth, scaled to a traversable grid);
//   * APS — characterize, solve the C²-Bound optimization analytically,
//     snap (A0, A1, A2, N) to the grid, and simulate only the issue/ROB
//     cross at (optionally a radius-1 neighborhood of) that point;
//   * ANN — the machine-learning baseline: train an MLP on randomly sampled
//     simulations until its chosen design is as good as APS's, counting how
//     many simulations that took (the paper's 613 vs APS's 100).
//
// "Error" follows the paper's usage: the per-point relative prediction
// error of the method's performance estimate, summarized over the space
// (for APS, at its chosen design vs ground truth; for ANN, mean relative
// prediction error + chosen-design regret).

#include <cstdint>
#include <optional>
#include <vector>

#include "c2b/ann/mlp.h"
#include "c2b/aps/characterize.h"
#include "c2b/aps/dse.h"
#include "c2b/core/optimizer.h"

namespace c2b {

struct FullDseResult {
  /// Ground-truth time per flat grid index; +infinity marks designs that
  /// violate the chip's Eq. (12) area budget (never simulated by anyone) —
  /// and, under context.surrogate_enabled, feasible designs the surrogate
  /// pruned (also never simulated; best_index/best_time stay ground truth).
  std::vector<double> times;
  std::size_t best_index = 0;
  double best_time = 0.0;
  std::size_t simulations = 0;     ///< feasible designs actually simulated
  std::size_t feasible_count = 0;
  /// How the batched replay engine covered the sweep (classes, shared
  /// chunks, sim-cache peels).
  BatchReplayStats batch;
  SurrogateStats surrogate;  ///< all zero unless context.surrogate_enabled
};

/// Traverse the whole space (the brute-force baseline) — or, with
/// context.surrogate_enabled, only the classes the surrogate driver admits
/// plus its exact fallback pass (see c2b/aps/surrogate.h). A surrogate
/// result is not a ground-truth table for run_ann_dse: pruned entries are
/// +infinity, not times.
FullDseResult run_full_dse(const DseContext& context, const GridSpace& space);

/// The feasible designs of a space in flat order: run_full_dse's plan.
struct FeasibleDesigns {
  std::vector<std::size_t> flats;
  std::vector<std::vector<double>> points;  ///< parallel to flats
};
/// Every point of `space` that passes design_feasible, checked against one
/// constraint set built for the whole pass.
FeasibleDesigns feasible_designs(const DseContext& context, const GridSpace& space);

struct ApsOptions {
  /// Radius (in grid steps, min 1) of the A1/A2 cache-split neighborhood
  /// that simulation refines around the analytic optimum.
  std::size_t neighborhood_radius = 1;
  CharacterizeOptions characterize{};
};

struct ApsResult {
  Characterization characterization;
  OptimalDesign analytic;             ///< continuous C²-Bound optimum
  std::size_t snapped_index = 0;      ///< analytic optimum snapped to the grid
  std::vector<std::size_t> simulated_indices;
  std::size_t best_index = 0;
  double best_time = 0.0;
  std::size_t simulations = 0;        ///< incl. characterization runs
  /// Demand memory accesses across every simulation the run performed
  /// (characterization + neighborhood). Memoized neighborhood hits replay
  /// the recorded count without re-running the simulator, so this total is
  /// cache-invariant while the sim.l1.* telemetry counters only advance on
  /// actual simulations.
  std::uint64_t memory_accesses = 0;
  /// Design-space narrowing factor: |space| / |simulated region|.
  double narrowing_factor = 0.0;
  /// How the batched replay engine covered the neighborhood sweep.
  BatchReplayStats batch;
};

/// Run the APS algorithm over the same space.
ApsResult run_aps(const DseContext& context, const GridSpace& space,
                  const ApsOptions& options = {});

/// The calibrated analytic model APS feeds its optimizer (Fig. 6 step 2):
/// detector concurrency clamped to the baseline's structural limits (MSHRs,
/// L1 ports), Pollack anchored at the baseline core, miss power laws
/// rebased from the stack-distance fit, and the stall term scaled so the
/// model's CPI reproduces the measured CPI at the baseline configuration.
/// Exposed so the differential oracles can compare this exact model — not a
/// re-derivation — against the cycle-level simulator.
C2BoundModel build_calibrated_model(const DseContext& context, const Characterization& c);

struct AnnDseOptions {
  std::size_t initial_samples = 32;
  std::size_t batch_size = 16;
  std::size_t max_samples = 4096;
  int epochs_per_round = 400;
  std::vector<std::size_t> hidden_layers{16, 16};
  std::uint64_t seed = 5;
};

struct AnnDseResult {
  std::size_t simulations = 0;   ///< training samples consumed
  std::size_t best_index = 0;    ///< ANN-predicted best design
  double best_time = 0.0;        ///< its ground-truth time
  double mean_relative_error = 0.0;  ///< prediction error over the space
  bool reached_target = false;
};

/// Grow a random training set until the ANN's chosen design performs within
/// `target_regret` of the true optimum (relative), mimicking Ipek-style
/// predictive DSE. `truth` supplies ground-truth times (from run_full_dse)
/// so no extra simulation bookkeeping is needed beyond the training draws.
AnnDseResult run_ann_dse(const GridSpace& space, const FullDseResult& truth,
                         double target_regret, const AnnDseOptions& options = {});

/// Relative regret of choosing `index` instead of the true best.
double design_regret(const FullDseResult& truth, std::size_t index);

}  // namespace c2b
