#pragma once

// AMAT / C-AMAT / APC formula layer (paper Eqs. 1–3 and Section V).
//
// AMAT   = H + MR * AMP                         (Eq. 1)
// C-AMAT = H/C_H + pMR * pAMP / C_M             (Eq. 2)
// C      = AMAT / C-AMAT                        (Eq. 3), C >= 1
// APC    = accesses per memory-active cycle; C-AMAT = 1/APC.
//
// These pure functions take parameter structs so they can be fed either from
// the timeline analyzer (measured) or from the analytic cache model
// (predicted); both producers share the same consumer code.

#include <vector>

#include "c2b/common/assert.h"

namespace c2b {

/// Parameters of the sequential AMAT model (Eq. 1).
struct AmatParams {
  double hit_time = 1.0;      ///< H, cycles per hit
  double miss_rate = 0.0;     ///< MR in [0, 1]
  double miss_penalty = 0.0;  ///< AMP, average penalty cycles per miss
};

/// Parameters of the concurrent C-AMAT model (Eq. 2).
struct CamatParams {
  double hit_time = 1.0;          ///< H, cycles per hit (same as AMAT's H)
  double hit_concurrency = 1.0;   ///< C_H >= 1
  double pure_miss_rate = 0.0;    ///< pMR in [0, MR]
  double pure_miss_penalty = 0.0; ///< pAMP, pure-miss cycles per pure miss
  double miss_concurrency = 1.0;  ///< C_M >= 1
};

/// Eq. (1).
[[nodiscard]] double amat(const AmatParams& p);

/// Eq. (2).
[[nodiscard]] double camat(const CamatParams& p);

/// Eq. (3): data-access concurrency C = AMAT / C-AMAT (>= 1 in practice).
[[nodiscard]] double concurrency(const AmatParams& a, const CamatParams& c);

/// Degenerate check: with C_H = C_M = 1, pMR = MR, pAMP = AMP, C-AMAT
/// collapses to AMAT (the paper's "AMAT is a special case of C-AMAT").
[[nodiscard]] CamatParams camat_from_sequential(const AmatParams& p);

/// Concurrency-aware stall contribution used in Eq. (7):
/// f_mem * C-AMAT * (1 - overlap_ratio_cm), where overlap_ratio_cm is the
/// fraction of pure-miss-induced stall hidden behind computation.
[[nodiscard]] double data_stall_camat(double f_mem, double camat_cycles, double overlap_ratio_cm);

/// One layer of the recursive multi-level C-AMAT formulation
/// (Sun & Wang [15]): the pure-miss penalty of layer i is the next layer's
/// C-AMAT scaled by the inter-layer overlap factor kappa_i, so
///     C-AMAT_i = H_i / C_H_i + pMR_i * kappa_i * C-AMAT_{i+1}.
/// This is how the paper's "memory system means the whole hierarchy" cashes
/// out: one formula per level, composed bottom-up from DRAM.
struct CamatLevel {
  double hit_time = 1.0;         ///< H_i
  double hit_concurrency = 1.0;  ///< C_H_i
  double pure_miss_rate = 0.0;   ///< pMR_i
  double kappa = 1.0;            ///< inter-layer overlap factor (<= 1 hides)
};

/// Compose the hierarchy top-down: levels[0] is L1; `memory_camat` is the
/// terminal access time below the last cache level (DRAM C-AMAT). Returns
/// the application-visible C-AMAT_1.
[[nodiscard]] double recursive_camat(const std::vector<CamatLevel>& levels,
                                     double memory_camat);

}  // namespace c2b
