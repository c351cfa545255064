#pragma once

// Asymmetric CMP extension of C²-Bound (paper Section VII: "The extension
// of C²-Bound to asymmetric CMP DSE is straightforward"; design style of
// Hill & Marty [6]).
//
// The chip carries ONE big core plus n small cores. Following Hill-Marty,
// the big core's area is r "small-core units"; the per-core area split
// between core logic / L1 / L2 slice is shared by both core types (one
// simplex of fractions), so a design is (n, r, f1, f2) and the Eq. (12)
// budget divides as
//
//     unit u = (A - Ac) / (n + r),   small core = u,   big core = r * u.
//
// Execution model:
//   * the sequential fraction runs on the big core alone;
//   * the parallel, capacity-scaled fraction g(N) (N = n + 1 compute/memory
//     units) runs on all cores, completing at their aggregate instruction
//     throughput  1/(CPI_big + stall_big) + n / (CPI_small + stall_small).
// Both phases use the same analytic C-AMAT machinery as the symmetric
// model, evaluated at each core type's own cache areas.

#include "c2b/core/c2bound.h"
#include "c2b/core/optimizer.h"

namespace c2b {

struct AsymmetricDesign {
  long long n_small = 1;    ///< number of small cores (the big core is extra)
  double big_core_ratio = 4.0;  ///< r: big core area in small-core units
  double l1_fraction = 0.2;     ///< f1 of each core's area
  double l2_fraction = 0.4;     ///< f2 of each core's area

  double core_fraction() const noexcept { return 1.0 - l1_fraction - l2_fraction; }
};

struct AsymmetricEvaluation {
  AsymmetricDesign design;
  DesignPoint big;    ///< resolved areas of the big core
  DesignPoint small;  ///< resolved areas of one small core
  double cpi_big = 0.0;
  double cpi_small = 0.0;
  double camat_big = 0.0;
  double camat_small = 0.0;
  double serial_time = 0.0;
  double parallel_time = 0.0;
  double execution_time = 0.0;
  double problem_size = 0.0;
  double throughput = 0.0;
  /// Speedup over running the same scaled problem on the big core alone.
  double speedup_vs_big_serial = 0.0;
};

class AsymmetricC2BoundModel {
 public:
  AsymmetricC2BoundModel(AppProfile app, MachineProfile machine);

  /// Evaluate one asymmetric design (throws if the areas collapse below the
  /// chip minimums).
  AsymmetricEvaluation evaluate(const AsymmetricDesign& d) const;

  const AppProfile& app() const noexcept { return model_.app(); }
  const MachineProfile& machine() const noexcept { return model_.machine(); }

 private:
  C2BoundModel model_;
};

struct AsymmetricOptimum {
  AsymmetricEvaluation best;
  OptimizationCase opt_case = OptimizationCase::kMinimizeTime;
  std::vector<AsymmetricEvaluation> per_small_count;  ///< frontier over n
};

/// Optimize (r, f1, f2) per small-core count and scan n like the symmetric
/// optimizer, with the same g(N)-driven case split.
class AsymmetricOptimizer {
 public:
  explicit AsymmetricOptimizer(AsymmetricC2BoundModel model, OptimizerOptions options = {});

  AsymmetricEvaluation best_allocation(long long n_small) const;
  AsymmetricOptimum optimize() const;

 private:
  AsymmetricC2BoundModel model_;
  OptimizerOptions options_;
};

}  // namespace c2b
