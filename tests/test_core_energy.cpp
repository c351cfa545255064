#include "c2b/core/energy.h"

#include <gtest/gtest.h>

namespace c2b {
namespace {

AppProfile app_profile() {
  AppProfile app;
  app.ic0 = 1e6;
  app.f_mem = 0.35;
  app.f_seq = 0.05;
  app.overlap_ratio = 0.3;
  app.working_set_lines0 = 1 << 15;
  app.g = ScalingFunction::linear();
  app.hit_concurrency = 2.0;
  app.miss_concurrency = 3.0;
  app.pure_miss_fraction = 0.6;
  app.pure_penalty_fraction = 0.8;
  return app;
}

MachineProfile machine_profile() {
  MachineProfile machine;
  machine.chip.total_area = 96.0;
  machine.chip.shared_area = 8.0;
  machine.memory_contention = 0.05;
  return machine;
}

EnergyAwareModel make_model() {
  return EnergyAwareModel(C2BoundModel(app_profile(), machine_profile()), EnergyModel{});
}

TEST(Energy, ComponentsSumToTotal) {
  const EnergyAwareModel model = make_model();
  const EnergyEvaluation e =
      model.evaluate({.n_cores = 8, .a0 = 2.0, .a1 = 1.0, .a2 = 2.0});
  EXPECT_NEAR(e.total_energy,
              e.core_dynamic + e.l1_dynamic + e.l2_dynamic + e.dram_dynamic + e.static_energy,
              e.total_energy * 1e-12);
  EXPECT_GT(e.core_dynamic, 0.0);
  EXPECT_GT(e.l1_dynamic, 0.0);
  EXPECT_GT(e.static_energy, 0.0);
  EXPECT_NEAR(e.edp, e.total_energy * e.performance.execution_time, e.edp * 1e-12);
  EXPECT_NEAR(e.ed2p, e.edp * e.performance.execution_time, e.ed2p * 1e-12);
  EXPECT_NEAR(e.average_power * e.performance.execution_time, e.total_energy,
              e.total_energy * 1e-9);
}

TEST(Energy, BiggerCoresBurnMorePerInstruction) {
  const EnergyAwareModel model = make_model();
  const EnergyEvaluation small =
      model.evaluate({.n_cores = 4, .a0 = 1.0, .a1 = 1.0, .a2 = 2.0});
  const EnergyEvaluation big =
      model.evaluate({.n_cores = 4, .a0 = 8.0, .a1 = 1.0, .a2 = 2.0});
  EXPECT_GT(big.core_dynamic, small.core_dynamic);
  EXPECT_LT(big.performance.execution_time, small.performance.execution_time);
}

TEST(Energy, BiggerCachesCostEnergyButCutDramEnergy) {
  const EnergyAwareModel model = make_model();
  const EnergyEvaluation lean =
      model.evaluate({.n_cores = 4, .a0 = 4.0, .a1 = 0.2, .a2 = 0.5});
  const EnergyEvaluation cached =
      model.evaluate({.n_cores = 4, .a0 = 4.0, .a1 = 2.0, .a2 = 6.0});
  EXPECT_GT(cached.l1_dynamic / lean.l1_dynamic, 1.0);  // pricier accesses
  EXPECT_LT(cached.dram_dynamic, lean.dram_dynamic);    // fewer of them
}

TEST(Energy, ObjectiveValuesMatchEvaluation) {
  const EnergyAwareModel model = make_model();
  const DesignPoint d{.n_cores = 8, .a0 = 2.0, .a1 = 1.0, .a2 = 2.0};
  const EnergyEvaluation e = model.evaluate(d);
  EXPECT_DOUBLE_EQ(model.objective_value(d, DesignObjective::kTime),
                   e.performance.execution_time);
  EXPECT_DOUBLE_EQ(model.objective_value(d, DesignObjective::kEnergy), e.total_energy);
  EXPECT_DOUBLE_EQ(model.objective_value(d, DesignObjective::kEdp), e.edp);
  EXPECT_DOUBLE_EQ(model.objective_value(d, DesignObjective::kEd2p), e.ed2p);
}

TEST(Energy, InvalidModelRejected) {
  EnergyModel bad;
  bad.epi_base = 0.0;
  EXPECT_THROW(EnergyAwareModel(C2BoundModel(app_profile(), machine_profile()), bad),
               std::invalid_argument);
}

TEST(Energy, OptimizerObjectivesOrderSensibly) {
  OptimizerOptions options;
  options.n_max = 24;
  options.nelder_mead_restarts = 2;
  const EnergyAwareOptimizer opt(make_model(), options);

  const EnergyOptimum fastest = opt.optimize(DesignObjective::kTime);
  const EnergyOptimum frugal = opt.optimize(DesignObjective::kEnergy);
  const EnergyOptimum balanced = opt.optimize(DesignObjective::kEdp);

  // Each specialist wins its own metric.
  EXPECT_LE(fastest.best.performance.execution_time,
            frugal.best.performance.execution_time * (1.0 + 1e-6));
  EXPECT_LE(frugal.best.total_energy, fastest.best.total_energy * (1.0 + 1e-6));
  // EDP sits between the extremes on both axes (within optimizer slack).
  EXPECT_LE(balanced.best.edp, fastest.best.edp * (1.0 + 1e-6));
  EXPECT_LE(balanced.best.edp, frugal.best.edp * (1.0 + 1e-6));
}

// The reproduction's ext_energy setup: a fixed-size problem with heavy
// leakage, where feasible ED^2P values run past 1e16. The infeasible
// region must still score worse than every feasible design, or the
// ED^2P search drifts into it and loses to the min-time chip.
TEST(Energy, Ed2pOptimumBeatsMinTimeDesignOnEd2p) {
  AppProfile app = app_profile();
  app.g = ScalingFunction::fixed();
  EnergyModel energy;
  energy.leakage_per_area_cycle = 5e-3;
  const EnergyAwareModel model(C2BoundModel(app, machine_profile()), energy);
  OptimizerOptions options;
  options.n_max = 32;
  options.nelder_mead_restarts = 5;
  const EnergyAwareOptimizer opt(model, options);

  const EnergyOptimum ed2p = opt.optimize(DesignObjective::kEd2p);
  const EnergyOptimum fastest = opt.optimize(DesignObjective::kTime);
  EXPECT_LE(ed2p.best.ed2p, fastest.best.ed2p);
}

TEST(Energy, ParetoFrontIsNonDominatedAndSorted) {
  OptimizerOptions options;
  options.n_max = 16;
  options.nelder_mead_restarts = 1;
  const EnergyAwareOptimizer opt(make_model(), options);
  const std::vector<ParetoPoint> front = opt.pareto_front();
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].eval.performance.execution_time,
              front[i - 1].eval.performance.execution_time);
    EXPECT_LT(front[i].eval.total_energy, front[i - 1].eval.total_energy);
  }
}

}  // namespace
}  // namespace c2b
