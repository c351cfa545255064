#pragma once

// The C²-Bound model proper (paper Section III).
//
// Ties together:
//   * an application profile (characterized from traces: f_mem, f_seq,
//     overlap ratio, concurrency structure, working set, g(N)),
//   * a machine profile (Pollack core, hierarchy latencies, miss models,
//     chip area constraints),
// and evaluates the execution-time objective
//
//   J_D = IC0 * (CPI_exe(A0) + f_mem * C-AMAT(A1, A2, N) * (1 - ov))
//             * (f_seq + g(N) (1 - f_seq) / N)                     (Eq. 10)
//
// plus the throughput W/T = g(N) * IC0 / J_D used in case I of the APS
// algorithm. C-AMAT is assembled from the analytic miss models per Eq. (2);
// CPI_exe from Pollack's rule (Eq. 11); areas obey Eq. (12).

#include "c2b/core/chip.h"
#include "c2b/core/miss_model.h"
#include "c2b/laws/pollack.h"
#include "c2b/laws/scaling.h"
#include "c2b/metrics/amat.h"

namespace c2b {

/// Application-side inputs (everything APS characterization produces).
struct AppProfile {
  double ic0 = 1e6;             ///< dynamic instructions at N = 1
  double f_mem = 0.3;           ///< memory instructions per instruction
  double f_seq = 0.02;          ///< sequential (non-parallelizable) fraction
  double overlap_ratio = 0.3;   ///< Eq. (7) compute/memory-stall overlap
  double working_set_lines0 = 1 << 15;  ///< footprint at N = 1, in lines
  ScalingFunction g = ScalingFunction::power(1.5);

  // Concurrency structure measured by the detector (hardware- and
  // program-dependent, area-independent to first order).
  double hit_concurrency = 2.0;       ///< C_H
  double miss_concurrency = 2.0;      ///< C_M
  double pure_miss_fraction = 0.6;    ///< pMR / MR
  double pure_penalty_fraction = 0.8; ///< pAMP / AMP

  /// APS calibration anchor: the analytic stall term of Eq. (10) is
  /// multiplied by this factor so that, at the characterized baseline
  /// configuration, the model's CPI reproduces the measured CPI exactly.
  /// The miss power laws then drive only the *relative* change across the
  /// design space — the paper's "derive program-specific model parameters
  /// from traces" made explicit. 1.0 = no calibration.
  double stall_scale = 1.0;

  void validate() const;
};

/// Machine-side inputs.
struct MachineProfile {
  PollackCore pollack{.k0 = 1.0, .phi0 = 0.25};
  double l1_hit_time = 3.0;       ///< H, cycles
  double l2_latency = 18.0;       ///< L1-miss service from L2 (incl. NoC)
  double memory_latency = 140.0;  ///< L2-miss service from DRAM
  MissModel l1_miss{.alpha = 0.04, .beta = 0.5, .mr_cap = 0.8, .mr_floor = 1e-4};
  MissModel l2_miss{.alpha = 0.5, .beta = 0.6, .mr_cap = 1.0, .mr_floor = 1e-3};
  ChipConstraints chip{};
  double cycle_time = 1.0;
  /// Off-chip queueing coefficient: the effective DRAM penalty is inflated
  /// by 1 + memory_contention * (N-1) * f_mem * MR1 * MR2_local — all N
  /// cores share the memory controllers, so per-miss delay grows with the
  /// chip's aggregate off-chip traffic. Divided down by C_M inside Eq. (2),
  /// this is what makes W/T saturate early at C = 1 (paper Fig. 10: "about
  /// one hundred cores are enough") while higher concurrency keeps scaling.
  /// 0 disables contention (single-core studies, unit tests).
  double memory_contention = 0.0;

  void validate() const;
};

/// Everything the model derives for one design point.
struct Evaluation {
  DesignPoint design;
  double cpi_exe = 0.0;
  double l1_miss_rate = 0.0;
  double l2_local_miss_rate = 0.0;
  AmatParams amat_params;
  CamatParams camat_params;
  double amat = 0.0;
  double camat = 0.0;
  double concurrency_c = 1.0;  ///< AMAT / C-AMAT
  double stall_per_instruction = 0.0;
  double execution_time = 0.0;  ///< J_D (Eq. 10)
  double problem_size = 0.0;    ///< W = g(N) * IC0
  double throughput = 0.0;      ///< W / T
  double speedup_vs_serial = 0.0;
};

class C2BoundModel {
 public:
  C2BoundModel(AppProfile app, MachineProfile machine);

  /// Per-core working set at core count n (lines): ws0 * mem_scale(n) / n.
  double per_core_working_set(double n) const;

  /// The analytic C-AMAT at a design point (Eq. 2 assembled from the miss
  /// models); exposed separately for tests and for the figure harnesses.
  CamatParams camat_at(const DesignPoint& d) const;

  /// Full evaluation of Eq. (10) and derived quantities at a design point.
  /// Requires a1/a2/a0 positive; does NOT require area feasibility (the
  /// optimizer enforces Eq. 12; raw evaluation is useful for sweeps).
  Evaluation evaluate(const DesignPoint& d) const;

  const AppProfile& app() const noexcept { return app_; }
  const MachineProfile& machine() const noexcept { return machine_; }

 private:
  double contention_multiplier(double n, double mr1, double mr2_local) const;

  AppProfile app_;
  MachineProfile machine_;
};

}  // namespace c2b
