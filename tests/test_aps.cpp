#include "c2b/aps/aps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "c2b/aps/characterize.h"
#include "c2b/aps/dse.h"

namespace c2b {
namespace {

sim::SystemConfig baseline_system() {
  sim::SystemConfig config;
  config.core.issue_width = 4;
  config.core.rob_size = 128;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 256 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

// ---------------------------------------------------------------------------
// Characterization

TEST(Characterize, ProducesSaneProfile) {
  WorkloadSpec spec = make_fluidanimate_like_workload(1 << 14);
  CharacterizeOptions options;
  options.instructions = 120000;
  const Characterization c = characterize(spec, baseline_system(), options);

  EXPECT_GT(c.app.f_mem, 0.2);
  EXPECT_LT(c.app.f_mem, 0.8);
  EXPECT_GE(c.app.hit_concurrency, 1.0);
  EXPECT_GE(c.app.miss_concurrency, 1.0);
  EXPECT_GE(c.app.overlap_ratio, 0.0);
  EXPECT_LE(c.app.overlap_ratio, 1.0);
  EXPECT_GT(c.app.working_set_lines0, 100.0);
  EXPECT_GT(c.cpi_exe, 0.0);
  EXPECT_GE(c.measured_cpi, c.cpi_exe);  // memory can only slow things down
  EXPECT_EQ(c.simulation_runs, 2u);
  EXPECT_GT(c.l1_power_law.beta, 0.0);
}

TEST(Characterize, SimPointsReduceSimulatedInstructions) {
  WorkloadSpec spec = make_fluidanimate_like_workload(1 << 14);
  CharacterizeOptions full;
  full.instructions = 200000;
  CharacterizeOptions sampled = full;
  sampled.use_simpoints = true;
  sampled.simpoint.interval_length = 25000;
  sampled.simpoint.max_clusters = 3;

  const Characterization c_full = characterize(spec, baseline_system(), full);
  const Characterization c_sampled = characterize(spec, baseline_system(), sampled);
  EXPECT_LT(c_sampled.simulated_instructions, c_full.simulated_instructions);
  // The sampled estimate should be in the ballpark of the full one.
  EXPECT_NEAR(c_sampled.app.f_mem, c_full.app.f_mem, 0.15);
  EXPECT_NEAR(c_sampled.measured_cpi / c_full.measured_cpi, 1.0, 0.5);
}

TEST(Characterize, PointerChaseShowsLowConcurrency) {
  const Characterization chase =
      characterize(make_pointer_chase_workload(1 << 12), baseline_system(),
                   {.instructions = 60000});
  const Characterization stream =
      characterize(make_fluidanimate_like_workload(1 << 14), baseline_system(),
                   {.instructions = 60000});
  EXPECT_LT(chase.camat.concurrency_c, stream.camat.concurrency_c);
}

// ---------------------------------------------------------------------------
// Design space mapping

DseAxes tiny_axes() {
  DseAxes axes;
  axes.a0 = {1.0, 4.0};
  axes.a1 = {0.5, 1.0};
  axes.a2 = {1.0, 2.0};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

DseContext tiny_context() {
  DseContext context;
  context.base = baseline_system();
  context.workload = make_stencil_workload(96);
  context.instructions0 = 20000;
  context.per_core_cap = 10000;
  context.chip.total_area = 9.0;  // at N=2 only lean combos fit (Eq. 12)
  context.chip.shared_area = 1.0;
  return context;
}

TEST(Dse, ConfigMappingHonorsAxes) {
  const DseContext context = tiny_context();
  const sim::SystemConfig config =
      config_for_design(context, {4.0, 1.0, 2.0, 2.0, 4.0, 64.0});
  EXPECT_EQ(config.hierarchy.cores, 2u);
  EXPECT_EQ(config.core.issue_width, 4u);
  EXPECT_EQ(config.core.rob_size, 64u);
  EXPECT_EQ(config.core.functional_units, 4u);  // 2*sqrt(4)
  // a1 = 1.0 area * 16 KiB = 16 KiB L1.
  EXPECT_EQ(config.hierarchy.l1_geometry.size_bytes, 16u * 1024u);
  // a2 = 2.0 area * 48 KiB * 2 cores = 192 KiB -> rounds to 256 KiB.
  EXPECT_EQ(config.hierarchy.l2_geometry.size_bytes, 256u * 1024u);
}

/// The median of `values` (upper median for even sizes).
double median_of(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

TEST(Dse, FeasiblePlanMatchesPerPointFilter) {
  DseContext context = tiny_context();
  const GridSpace space = make_design_space(make_large_axes());
  auto per_point_flats = [&] {
    std::vector<std::size_t> flats;
    space.for_each([&](std::size_t flat, const std::vector<double>& point) {
      if (design_feasible(context, point)) flats.push_back(flat);
    });
    return flats;
  };
  auto expect_plan_matches = [&](const std::vector<std::size_t>& want, const char* what) {
    const FeasibleDesigns plan = feasible_designs(context, space);
    EXPECT_EQ(plan.flats, want) << what;
    ASSERT_EQ(plan.points.size(), plan.flats.size()) << what;
    for (std::size_t i = 0; i < plan.flats.size(); ++i)
      EXPECT_EQ(plan.points[i], space.point(plan.flats[i])) << what << " flat " << plan.flats[i];
  };

  // Every budget infinite: the area filter alone.
  const std::vector<std::size_t> area_only = per_point_flats();
  ASSERT_FALSE(area_only.empty());
  expect_plan_matches(area_only, "area only");

  // Finite power, bandwidth and NoC budgets, each at its median demand over
  // the area-feasible points, so every one of them rejects designs.
  std::vector<double> power, bandwidth, noc;
  for (const std::size_t flat : area_only) {
    const DesignPoint d = design_point_of(space.point(flat));
    power.push_back(context.cost.power.total(d, context.chip.shared_area));
    bandwidth.push_back(context.cost.bandwidth.demand(d));
    noc.push_back(context.cost.noc.per_link_load(d));
  }
  context.power_budget = median_of(power);
  context.bw_budget = median_of(bandwidth);
  context.noc_budget = median_of(noc);
  ASSERT_EQ(design_constraints(context).size(), 4u);
  const std::vector<std::size_t> budgeted = per_point_flats();
  ASSERT_FALSE(budgeted.empty());
  EXPECT_LT(budgeted.size(), area_only.size());
  expect_plan_matches(budgeted, "all budgets finite");
}

TEST(Dse, CacheCapacityRoundsUpNotToNearest) {
  const DseContext context = tiny_context();
  // a1 = 1.1 area * 16 KiB = 17.6 KiB: nearest power of two is 16 KiB,
  // which would build less cache than the area budget pays for. The mapper
  // must round up to 32 KiB instead.
  const sim::SystemConfig config =
      config_for_design(context, {1.0, 1.1, 1.4, 1.0, 2.0, 32.0});
  EXPECT_EQ(config.hierarchy.l1_geometry.size_bytes, 32u * 1024u);
  // a2 = 1.4 area * 48 KiB * 1 core = 67.2 KiB: nearest rounding gave
  // 64 KiB (below budget); ceiling gives 128 KiB.
  EXPECT_EQ(config.hierarchy.l2_geometry.size_bytes, 128u * 1024u);
}

TEST(Dse, ExactPowerOfTwoCapacityIsPreserved) {
  const DseContext context = tiny_context();
  // a1 = 1.0 * 16 KiB and a2 = 2.0 * 48 KiB * 2 = 192 KiB -> 256 KiB; the
  // exact-power case must not be bumped one level up by the ceiling.
  const sim::SystemConfig config =
      config_for_design(context, {4.0, 1.0, 2.0, 2.0, 4.0, 64.0});
  EXPECT_EQ(config.hierarchy.l1_geometry.size_bytes, 16u * 1024u);
  EXPECT_EQ(config.hierarchy.l2_geometry.size_bytes, 256u * 1024u);
}

TEST(Dse, CacheSizesNeverBelowMinimumGeometry) {
  const DseContext context = tiny_context();
  const sim::SystemConfig config =
      config_for_design(context, {0.5, 0.001, 0.001, 1.0, 2.0, 32.0});
  config.hierarchy.l1_geometry.validate();
  config.hierarchy.l2_geometry.validate();
}

/// One design's time through the shipped evaluator (a one-point batch).
double simulate_one(const DseContext& context, const std::vector<double>& point) {
  return simulate_design_times_batched(context, {point}).front().time;
}

TEST(Dse, SimulatedTimeIsPositiveAndDeterministic) {
  const DseContext context = tiny_context();
  const std::vector<double> point{1.0, 0.5, 1.0, 2.0, 2.0, 32.0};
  const double t1 = simulate_one(context, point);
  const double t2 = simulate_one(context, point);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(Dse, BetterHardwareIsNotSlower) {
  const DseContext context = tiny_context();
  const double weak = simulate_one(context, {1.0, 0.5, 1.0, 1.0, 2.0, 32.0});
  const double strong = simulate_one(context, {4.0, 1.0, 2.0, 1.0, 4.0, 64.0});
  EXPECT_LT(strong, weak * 1.05);
}

// ---------------------------------------------------------------------------
// Full DSE + APS + ANN comparison on a tiny space

TEST(ApsIntegration, NarrowsSpaceAndStaysNearOptimum) {
  const DseContext context = tiny_context();
  const GridSpace space = make_design_space(tiny_axes());
  ASSERT_EQ(space.size(), 64u);

  const FullDseResult truth = run_full_dse(context, space);
  // The Eq. (12) filter must bite: some grid combos exceed the chip area.
  EXPECT_LT(truth.feasible_count, 64u);
  EXPECT_GT(truth.feasible_count, 8u);
  EXPECT_EQ(truth.simulations, truth.feasible_count);
  EXPECT_GT(truth.best_time, 0.0);
  EXPECT_TRUE(std::isfinite(truth.best_time));

  ApsOptions options;
  options.characterize.instructions = 60000;
  const ApsResult aps = run_aps(context, space, options);
  EXPECT_LT(aps.simulations, truth.simulations);
  EXPECT_GE(aps.narrowing_factor, 3.9);
  // APS only proposes buildable chips.
  for (const std::size_t flat : aps.simulated_indices)
    EXPECT_TRUE(design_feasible(context, space.point(flat)));

  // APS's choice should be competitive: within 60% of the true optimum on
  // this deliberately coarse grid (the paper reports ~6% on its own space;
  // the tolerance here mostly guards against gross mis-navigation).
  const double regret = design_regret(truth, aps.best_index);
  EXPECT_LT(regret, 0.6);
  EXPECT_GE(regret, 0.0);
}

TEST(ApsIntegration, AnnReachesTargetWithMoreSimulations) {
  const DseContext context = tiny_context();
  const GridSpace space = make_design_space(tiny_axes());
  const FullDseResult truth = run_full_dse(context, space);

  AnnDseOptions options;
  options.initial_samples = 8;
  options.batch_size = 8;
  options.epochs_per_round = 150;
  const AnnDseResult ann = run_ann_dse(space, truth, 0.25, options);
  EXPECT_GT(ann.simulations, 0u);
  EXPECT_LE(ann.simulations, space.size());
  if (ann.reached_target) {
    EXPECT_LE(design_regret(truth, ann.best_index), 0.25);
  }
  EXPECT_GT(ann.mean_relative_error, 0.0);
}

TEST(ApsIntegration, RegretHelperValidates) {
  FullDseResult truth;
  truth.times = {10.0, 12.0, 15.0};
  truth.best_index = 0;
  truth.best_time = 10.0;
  EXPECT_DOUBLE_EQ(design_regret(truth, 0), 0.0);
  EXPECT_DOUBLE_EQ(design_regret(truth, 2), 0.5);
  EXPECT_THROW((void)design_regret(truth, 5), std::invalid_argument);
}

}  // namespace
}  // namespace c2b
