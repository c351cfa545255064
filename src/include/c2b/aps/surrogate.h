#pragma once

// Surrogate-guided sweep pruning: fuse the paper's Fig.-12 ANN baseline
// (Ipek-style MLP, src/ann) into the DSE driver so 10^6-point spaces run
// at interactive latency. The driver
//
//   1. seeds itself with a deterministic strided *warmup* sample from every
//      trace-equivalence class and trains the MLP on (log2 design point ->
//      log time) as those batched-replay results stream in;
//   2. each scheduling round, ranks the still-unexplored classes by the
//      predicted time of their best member and *admits* the most promising
//      one — but only while that prediction falls within a relative error
//      band of the incumbent optimum (or, in Pareto mode, while some member
//      is not confidently dominated by the simulated frontier); admitted
//      members are simulated exactly and become new training data (batched
//      epochs between rounds);
//   3. when no class survives the band test, runs a guaranteed *exact
//      fallback pass*: the top predicted neighborhood of the incumbent plus
//      the predicted-best member of every pruned class are simulated for
//      real. The returned optimum is therefore always simulator ground
//      truth, never a prediction — the band and the fallback only decide
//      how much of the space pays for that proof.
//
// Every decision is a serial function of batched-replay results (which are
// bit-identical at any thread count) and a seed derived from the context,
// so a surrogate sweep is reproducible at threads {1,2,8}, warm or cold
// cache — the `surrogate` oracle family enforces that pruned and
// exhaustive sweeps select identical optima and identical Pareto frontiers
// on seeded spaces.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "c2b/ann/mlp.h"
#include "c2b/aps/dse.h"

namespace c2b {

/// Analytic objective coordinates for Pareto-aware pruning, parallel to
/// the point list handed to surrogate_sweep: with these present a class is
/// kept alive while any member could still join the (time, power, area)
/// frontier; without them only proximity to the time optimum matters.
struct SurrogateObjectives {
  std::vector<double> power;
  std::vector<double> area;
};

/// One surrogate-guided sweep over a feasible point list. `outcomes[i]` is
/// only meaningful where `simulated[i]` is nonzero; pruned points were
/// never simulated by anyone.
struct SurrogateSweepResult {
  std::vector<BatchSimOutcome> outcomes;
  std::vector<std::uint8_t> simulated;
  SurrogateStats stats;
  BatchReplayStats batch;
};

/// The exact fallback pass's global top K: the `k` entries of `pending`
/// (distinct point indices) that come first when sorted by
/// (predicted[index], index), in unspecified order. Only the set is
/// needed, so it is partitioned out rather than sorted.
std::vector<std::size_t> fallback_top_k(std::vector<std::size_t> pending,
                                        const std::vector<double>& predicted, std::size_t k);

/// What one memoized_fit call did.
struct FitMemoOutcome {
  bool cached = false;   ///< the fit was restored from a fit file
  bool dropped = false;  ///< a fit file was there but unusable, so the fit ran
};

/// The libm-dispatch tag every fit file's key carries, computed once per
/// process: the glibc version, the x86-64 CPU features glibc's libm IFUNCs
/// select on (FMA, FMA4, AVX2, SSE4.1), and the snapshot of one tiny
/// canary fit. std::tanh's bits follow that dispatch (DESIGN.md), and the
/// canary also changes with any change to the training code, so fit files
/// from another libm, CPU or build of Mlp::fit are never served.
const std::string& fit_libm_tag();

/// The key a fit file is stored under: Mlp::fit_key's bytes followed by
/// the libm tag.
std::string fit_memo_key(const std::string& fit_key, const std::string& libm_tag = fit_libm_tag());

/// model.fit(inputs, targets, epochs), memoized in the fit files of
/// exec::SimCache::global()'s disk tier: a fit file whose stored key equals
/// fit_memo_key(model.fit_key(...)) is restored instead of training, and a
/// trained fit is written back. Either way the net ends bitwise as fit()
/// leaves it. With the cache disabled or no disk tier attached this is
/// exactly model.fit(...) and touches no file.
FitMemoOutcome memoized_fit(Mlp& model, const std::vector<Vector>& inputs,
                            const std::vector<double>& targets, int epochs);

/// Run the surrogate driver over `points` (already feasibility-filtered,
/// as produced by the run_full_dse / run_pareto_dse plan phase). Pass
/// `pareto` to prune against the simulated frontier instead of the scalar
/// incumbent.
SurrogateSweepResult surrogate_sweep(const DseContext& context,
                                     const std::vector<std::vector<double>>& points,
                                     const SurrogateObjectives* pareto = nullptr);

}  // namespace c2b
