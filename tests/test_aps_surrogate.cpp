#include "c2b/aps/surrogate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/obs.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

bool bit_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Multi-class stencil space with a steep time gradient across N: the
/// small-N classes are several times slower than the incumbent, so the
/// pruner has something real to skip, while the grid stays test-sized.
DseContext stratified_context() {
  DseContext context;
  context.base.core.issue_width = 4;
  context.base.core.rob_size = 128;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.base.hierarchy.coherence = false;
  context.workload = make_stencil_workload(64);
  context.instructions0 = 2'000;
  context.per_core_cap = 1'000;
  context.seed = 77;
  context.chip.shared_area = 2.0;
  context.chip.total_area = 10.0;
  return context;
}

DseAxes stratified_axes() {
  DseAxes axes;
  axes.a0 = {0.25, 0.5, 1.0};
  axes.a1 = {0.125, 0.25};
  axes.a2 = {0.25, 0.5};
  axes.n = {1, 2, 4, 8};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

/// Restores the process-global knobs each test twiddles.
struct ExecGuard {
  bool cache_was_enabled = exec::SimCache::global().enabled();
  ~ExecGuard() {
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(cache_was_enabled);
    exec::SimCache::global().clear();
  }
};

TEST(SurrogateSweep, EmptyPointListIsANoOp) {
  const SurrogateSweepResult result = surrogate_sweep(stratified_context(), {});
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_TRUE(result.simulated.empty());
  EXPECT_EQ(result.stats.points_total, 0u);
  EXPECT_EQ(result.stats.classes_total, 0u);
}

TEST(SurrogateSweep, MatchesExhaustiveOptimumAndPrunesClasses) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  const DseContext context = stratified_context();
  const GridSpace space = make_design_space(stratified_axes());

  const FullDseResult truth = run_full_dse(context, space);

  DseContext surrogate_context = context;
  surrogate_context.surrogate_enabled = true;
  const FullDseResult pruned = run_full_dse(surrogate_context, space);

  EXPECT_EQ(pruned.best_index, truth.best_index);
  EXPECT_TRUE(bit_equal(pruned.best_time, truth.best_time));
  EXPECT_EQ(pruned.feasible_count, truth.feasible_count);
  // Everything the surrogate simulated is bitwise the exhaustive truth;
  // pruned entries stay +infinity.
  ASSERT_EQ(pruned.times.size(), truth.times.size());
  std::size_t finite = 0;
  for (std::size_t flat = 0; flat < truth.times.size(); ++flat)
    if (std::isfinite(pruned.times[flat])) {
      EXPECT_TRUE(bit_equal(pruned.times[flat], truth.times[flat])) << "flat " << flat;
      ++finite;
    }
  EXPECT_EQ(finite, pruned.surrogate.points_simulated);
  EXPECT_GE(pruned.surrogate.classes_pruned, 1u);
  EXPECT_LT(pruned.simulations, truth.simulations);
}

TEST(SurrogateSweep, StatsAccountingIsConsistent) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  DseContext context = stratified_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(stratified_axes());
  const FullDseResult result = run_full_dse(context, space);
  const SurrogateStats& stats = result.surrogate;

  EXPECT_EQ(stats.classes_simulated + stats.classes_pruned, stats.classes_total);
  EXPECT_EQ(stats.points_total, result.feasible_count);
  EXPECT_LE(stats.points_simulated, stats.points_total);
  EXPECT_LE(stats.warmup_sims + stats.fallback_sims, stats.points_simulated);
  EXPECT_GE(stats.rounds, 1u);  // the warmup fit counts as round 1
  EXPECT_GT(stats.trained_samples, 0u);
  EXPECT_GE(stats.mre, 0.0);
  EXPECT_EQ(result.simulations, stats.points_simulated);
}

TEST(SurrogateSweep, ParetoFrontierIdenticalToExhaustive) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  const DseContext context = stratified_context();
  const GridSpace space = make_design_space(stratified_axes());

  const ParetoDseResult truth = run_pareto_dse(context, space);

  DseContext surrogate_context = context;
  surrogate_context.surrogate_enabled = true;
  const ParetoDseResult pruned = run_pareto_dse(surrogate_context, space);

  EXPECT_EQ(pruned.feasible_count, truth.feasible_count);
  ASSERT_EQ(pruned.frontier.size(), truth.frontier.size());
  for (std::size_t p = 0; p < truth.frontier.size(); ++p) {
    EXPECT_EQ(pruned.frontier[p].flat_index, truth.frontier[p].flat_index) << "point " << p;
    EXPECT_TRUE(bit_equal(pruned.frontier[p].time, truth.frontier[p].time));
    EXPECT_TRUE(bit_equal(pruned.frontier[p].power, truth.frontier[p].power));
    EXPECT_TRUE(bit_equal(pruned.frontier[p].area, truth.frontier[p].area));
  }
}

TEST(SurrogateSweep, DeterministicAcrossThreadCountsAndWarmCache) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  cache.set_enabled(false);
  DseContext context = stratified_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(stratified_axes());

  exec::set_thread_count(1);
  const FullDseResult reference = run_full_dse(context, space);

  auto expect_same = [&](const FullDseResult& other, const std::string& what) {
    EXPECT_EQ(other.best_index, reference.best_index) << what;
    EXPECT_TRUE(bit_equal(other.best_time, reference.best_time)) << what;
    ASSERT_EQ(other.times.size(), reference.times.size());
    for (std::size_t flat = 0; flat < reference.times.size(); ++flat)
      EXPECT_TRUE(bit_equal(other.times[flat], reference.times[flat]))
          << what << " flat " << flat;
    EXPECT_EQ(other.surrogate.points_simulated, reference.surrogate.points_simulated)
        << what;
    EXPECT_EQ(other.surrogate.classes_pruned, reference.surrogate.classes_pruned) << what;
    EXPECT_EQ(other.surrogate.rounds, reference.surrogate.rounds) << what;
  };

  for (const std::size_t threads : {2UL, 8UL}) {
    exec::set_thread_count(threads);
    expect_same(run_full_dse(context, space), "threads=" + std::to_string(threads));
  }

  // Warm cache: the replayed results are bitwise identical, so the
  // scheduler must take the exact same admit/prune path.
  cache.set_enabled(true);
  cache.clear();
  exec::set_thread_count(8);
  expect_same(run_full_dse(context, space), "cold cached");
  expect_same(run_full_dse(context, space), "warm replay");
}

/// The fallback ranking as a full sort: every pending point ordered by
/// (prediction, index), the first k kept.
std::vector<std::size_t> sorted_top_k(std::vector<std::size_t> pending,
                                      const std::vector<double>& predicted, std::size_t k) {
  std::sort(pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
    if (predicted[a] != predicted[b]) return predicted[a] < predicted[b];
    return a < b;
  });
  pending.resize(std::min(k, pending.size()));
  return pending;
}

TEST(SurrogateSweep, FallbackTopKMatchesFullSort) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    // Few prediction levels, so most entries tie with many others, and
    // +inf (an overflowed exp) at about one entry in five.
    const std::size_t n = rng.uniform_below(200);
    const std::uint64_t levels = 1 + rng.uniform_below(6);
    std::vector<double> predicted(n);
    for (double& p : predicted)
      p = rng.bernoulli(0.2) ? inf : 0.5 * static_cast<double>(rng.uniform_below(levels));
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.7)) pending.push_back(i);
    if (rng.bernoulli(0.5)) std::reverse(pending.begin(), pending.end());
    const std::size_t k = rng.uniform_below(n + 8);

    std::vector<std::size_t> got = fallback_top_k(pending, predicted, k);
    std::vector<std::size_t> want = sorted_top_k(pending, predicted, k);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "trial " << trial << " n " << n << " k " << k;
  }
}

/// The perfbench `dse_cold` study: the CLI's default machine on the
/// Fig.-12-scale grid, surrogate on.
DseContext dse_cold_context(std::uint64_t seed) {
  DseContext context;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.workload = make_stencil_workload();
  context.instructions0 = 20'000;
  context.per_core_cap = 10'000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  context.seed = seed;
  context.surrogate_enabled = true;
  return context;
}

TEST(SurrogateSweep, PredictsThePointListOncePerRound) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  obs::set_enabled(true);
  obs::Registry& registry = obs::Registry::global();
  registry.reset_values();
  const FullDseResult result =
      run_full_dse(dse_cold_context(99), make_design_space(make_large_axes()));
  // Each round (the warmup fit is round 1) reranks the point list once;
  // the fallback pass reuses the last round's ranking. The round count
  // follows the MLP, whose bits follow the host's libm (DESIGN.md), so
  // only "at least one admitted class" is pinned; glibc 2.36 gives 3.
  EXPECT_GE(result.surrogate.rounds, 2u);
  EXPECT_EQ(registry.counter("exec.surrogate.predict_passes").value(), result.surrogate.rounds);
}

}  // namespace
}  // namespace c2b
