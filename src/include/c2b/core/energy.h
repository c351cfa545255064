#pragma once

// Energy-aware extension of C²-Bound (paper Section VII future work: "the
// object function in Eq. (10) can be reshaped to achieve a balance among
// performance, power, energy and temperature"; lineage of Woo & Lee [7]
// and Cho & Melhem [34]).
//
// Energy model (abstract energy units):
//   * core dynamic:  EPI(A0) = epi_base * A0^epi_area_exponent per
//     instruction — bigger OoO cores burn superlinearly more per op;
//   * cache dynamic: per-access energy grows with sqrt(capacity) (bitline/
//     wordline scaling), separately for L1 and the L2 slice;
//   * DRAM dynamic:  flat per off-chip access;
//   * static:        leakage_per_area_cycle * occupied area * runtime.
// Combined with the Eq. (10) time model this yields E, EDP, ED²P and a
// time/energy Pareto front over core counts.

#include <vector>

#include "c2b/core/c2bound.h"
#include "c2b/core/optimizer.h"

namespace c2b {

struct EnergyModel {
  double epi_base = 1.0;            ///< core energy/instruction at A0 = 1
  double epi_area_exponent = 0.5;   ///< EPI ~ A0^this
  double l1_access_base = 0.2;      ///< per L1 access at 1 KiB
  double l2_access_base = 0.6;      ///< per L2 access at 1 KiB
  double cache_energy_exponent = 0.5;  ///< per-access ~ capacity^this (KiB)
  double dram_access_energy = 60.0;    ///< per off-chip line transfer
  double leakage_per_area_cycle = 2e-4;  ///< static power per area unit

  void validate() const;
};

struct EnergyEvaluation {
  Evaluation performance;  ///< the plain Eq. (10) evaluation
  double core_dynamic = 0.0;
  double l1_dynamic = 0.0;
  double l2_dynamic = 0.0;
  double dram_dynamic = 0.0;
  double static_energy = 0.0;
  double total_energy = 0.0;
  double average_power = 0.0;  ///< total_energy / execution_time
  double edp = 0.0;            ///< energy * time
  double ed2p = 0.0;           ///< energy * time^2
};

enum class DesignObjective { kTime, kEnergy, kEdp, kEd2p };

class EnergyAwareModel {
 public:
  EnergyAwareModel(C2BoundModel model, EnergyModel energy);

  /// Full performance + energy evaluation of a design point.
  EnergyEvaluation evaluate(const DesignPoint& d) const;

  /// Scalar value of the chosen objective at a design point (lower better).
  double objective_value(const DesignPoint& d, DesignObjective objective) const;

  const C2BoundModel& model() const noexcept { return model_; }

 private:
  C2BoundModel model_;
  EnergyModel energy_;
};

struct EnergyOptimum {
  EnergyEvaluation best;
  DesignObjective objective = DesignObjective::kEdp;
  std::vector<EnergyEvaluation> per_core_count;
};

/// One non-dominated (time, energy) trade point.
struct ParetoPoint {
  EnergyEvaluation eval;
};

class EnergyAwareOptimizer {
 public:
  explicit EnergyAwareOptimizer(EnergyAwareModel model, OptimizerOptions options = {});

  /// Best area split at fixed N under the chosen objective.
  EnergyEvaluation best_allocation(long long n_cores, DesignObjective objective) const;

  /// Scan N under the chosen objective (all objectives are minimized; the
  /// g(N) case split does not apply to energy metrics, which remain
  /// bounded even for superlinear g).
  EnergyOptimum optimize(DesignObjective objective) const;

  /// Time/energy Pareto front over core counts: each N's time-optimal and
  /// energy-optimal allocations enter the candidate pool; dominated points
  /// are filtered. Sorted by execution time.
  std::vector<ParetoPoint> pareto_front() const;

 private:
  EnergyAwareModel model_;
  OptimizerOptions options_;
};

}  // namespace c2b
