#include "c2b/core/c2bound.h"

#include <gtest/gtest.h>

#include "c2b/core/capacity.h"
#include "c2b/core/miss_model.h"

namespace c2b {
namespace {

AppProfile demo_app() {
  AppProfile app;
  app.ic0 = 1e6;
  app.f_mem = 0.3;
  app.f_seq = 0.05;
  app.overlap_ratio = 0.3;
  app.working_set_lines0 = 1 << 16;
  app.g = ScalingFunction::power(1.5);
  app.hit_concurrency = 2.0;
  app.miss_concurrency = 2.0;
  app.pure_miss_fraction = 0.6;
  app.pure_penalty_fraction = 0.8;
  return app;
}

MachineProfile demo_machine() { return MachineProfile{}; }

// ---------------------------------------------------------------------------
// Miss model

TEST(MissModel, PowerLawShape) {
  const MissModel m{.alpha = 0.1, .beta = 0.5, .mr_cap = 1.0, .mr_floor = 0.001};
  // At S == W the floor applies (working set fits).
  EXPECT_DOUBLE_EQ(m.miss_rate(1024, 1024), 0.001);
  // Quarter-capacity doubles the miss rate under beta = 0.5.
  const double mr_half = m.miss_rate(512, 1024);
  const double mr_quarter = m.miss_rate(256, 1024);
  EXPECT_NEAR(mr_quarter / mr_half, std::sqrt(2.0), 1e-9);
}

TEST(MissModel, ClampsToCapAndFloor) {
  const MissModel m{.alpha = 0.5, .beta = 1.0, .mr_cap = 0.9, .mr_floor = 0.01};
  EXPECT_DOUBLE_EQ(m.miss_rate(1, 1 << 20), 0.9);       // cap
  EXPECT_DOUBLE_EQ(m.miss_rate(1 << 21, 1 << 20), 0.01);  // floor
  EXPECT_THROW((void)m.miss_rate(0.0, 10.0), std::invalid_argument);
}

TEST(MissModel, MonotoneInCapacity) {
  const MissModel m{.alpha = 0.08, .beta = 0.6, .mr_cap = 1.0, .mr_floor = 0.0};
  double prev = 1.1;
  for (double s = 64; s <= (1 << 20); s *= 2) {
    const double mr = m.miss_rate(s, 1 << 18);
    EXPECT_LE(mr, prev);
    prev = mr;
  }
}

// ---------------------------------------------------------------------------
// Chip constraints (Eq. 12)

TEST(Chip, AreaBookkeeping) {
  ChipConstraints chip;
  chip.total_area = 100.0;
  chip.shared_area = 10.0;
  chip.validate();
  EXPECT_DOUBLE_EQ(chip.per_core_budget(9.0), 10.0);
  const DesignPoint d{.n_cores = 9, .a0 = 4, .a1 = 2, .a2 = 4};
  EXPECT_NEAR(chip.area_residual(d), 0.0, 1e-12);
  EXPECT_TRUE(chip.feasible(d));
  const DesignPoint over{.n_cores = 9, .a0 = 5, .a1 = 2, .a2 = 4};
  EXPECT_FALSE(chip.feasible(over));
}

TEST(Chip, CapacityConversions) {
  ChipConstraints chip;
  chip.l1_kib_per_area = 16.0;
  chip.line_bytes = 64;
  // 1 area unit -> 16 KiB -> 256 lines.
  EXPECT_DOUBLE_EQ(chip.l1_capacity_lines(1.0), 256.0);
  EXPECT_GT(chip.l2_capacity_lines(1.0), chip.l1_capacity_lines(1.0));  // denser
}

TEST(Chip, MaxCores) {
  ChipConstraints chip;
  chip.total_area = 100.0;
  chip.shared_area = 0.0;
  chip.min_core_area = 0.5;
  chip.min_l1_area = 0.25;
  chip.min_l2_area = 0.25;
  EXPECT_EQ(chip.max_cores(), 100);
}

// ---------------------------------------------------------------------------
// C2BoundModel / Eq. 10

TEST(C2Bound, PerCoreWorkingSet) {
  const C2BoundModel model(demo_app(), demo_machine());
  // Capacity-driven g: per-core working set is constant in N.
  EXPECT_DOUBLE_EQ(model.per_core_working_set(1.0), 1 << 16);
  EXPECT_DOUBLE_EQ(model.per_core_working_set(16.0), 1 << 16);

  AppProfile fixed = demo_app();
  fixed.g = ScalingFunction::fixed();
  const C2BoundModel fixed_model(fixed, demo_machine());
  EXPECT_DOUBLE_EQ(fixed_model.per_core_working_set(16.0), (1 << 16) / 16.0);
}

TEST(C2Bound, EvaluationStructure) {
  const C2BoundModel model(demo_app(), demo_machine());
  const DesignPoint d{.n_cores = 16, .a0 = 2.0, .a1 = 1.0, .a2 = 2.0};
  const Evaluation e = model.evaluate(d);

  // Eq. 10 reassembled by hand.
  const double time_factor = 0.05 + std::pow(16.0, 1.5) * 0.95 / 16.0;
  const double expected =
      1e6 * (e.cpi_exe + 0.3 * e.camat * (1.0 - 0.3)) * time_factor;
  EXPECT_NEAR(e.execution_time, expected, expected * 1e-12);
  EXPECT_NEAR(e.problem_size, 1e6 * std::pow(16.0, 1.5), 1.0);
  EXPECT_NEAR(e.throughput, e.problem_size / e.execution_time, 1e-9);
  EXPECT_GE(e.concurrency_c, 1.0);
  EXPECT_LE(e.camat, e.amat + 1e-12);
  EXPECT_GT(e.speedup_vs_serial, 1.0);
}

TEST(C2Bound, MoreCoreAreaLowersCpiExe) {
  const C2BoundModel model(demo_app(), demo_machine());
  const Evaluation small = model.evaluate({.n_cores = 4, .a0 = 0.5, .a1 = 1.0, .a2 = 2.0});
  const Evaluation big = model.evaluate({.n_cores = 4, .a0 = 4.0, .a1 = 1.0, .a2 = 2.0});
  EXPECT_GT(small.cpi_exe, big.cpi_exe);
}

TEST(C2Bound, MoreCacheAreaLowersCamat) {
  const C2BoundModel model(demo_app(), demo_machine());
  const Evaluation small = model.evaluate({.n_cores = 4, .a0 = 2.0, .a1 = 0.2, .a2 = 0.5});
  const Evaluation big = model.evaluate({.n_cores = 4, .a0 = 2.0, .a1 = 2.0, .a2 = 6.0});
  EXPECT_GT(small.camat, big.camat);
  EXPECT_GT(small.l1_miss_rate, big.l1_miss_rate);
}

TEST(C2Bound, HigherConcurrencyLowersCamat) {
  AppProfile high_c = demo_app();
  high_c.hit_concurrency = 4.0;
  high_c.miss_concurrency = 8.0;
  const C2BoundModel base(demo_app(), demo_machine());
  const C2BoundModel fast(high_c, demo_machine());
  const DesignPoint d{.n_cores = 8, .a0 = 1.0, .a1 = 1.0, .a2 = 2.0};
  EXPECT_GT(base.evaluate(d).camat, fast.evaluate(d).camat);
  EXPECT_GT(fast.evaluate(d).concurrency_c, base.evaluate(d).concurrency_c);
}

TEST(C2Bound, ExecutionTimeGrowsWithFmem) {
  AppProfile hungry = demo_app();
  hungry.f_mem = 0.9;
  const C2BoundModel base(demo_app(), demo_machine());
  const C2BoundModel mem(hungry, demo_machine());
  const DesignPoint d{.n_cores = 8, .a0 = 1.0, .a1 = 1.0, .a2 = 2.0};
  EXPECT_GT(mem.evaluate(d).execution_time, base.evaluate(d).execution_time);
  EXPECT_LT(mem.evaluate(d).throughput, base.evaluate(d).throughput);
}

TEST(C2Bound, ValidationCatchesBadProfiles) {
  AppProfile bad = demo_app();
  bad.f_mem = 1.5;
  EXPECT_THROW(C2BoundModel(bad, demo_machine()), std::invalid_argument);
  MachineProfile slow = demo_machine();
  slow.memory_latency = 1.0;  // faster than L2: nonsense
  EXPECT_THROW(C2BoundModel(demo_app(), slow), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Capacity bound (Section V)

TEST(Capacity, LinearWorkingSetInversion) {
  // Y(Z) = 2Z: bound = X/2.
  const double bound = capacity_bounded_problem_size([](double z) { return 2.0 * z; }, 1000.0);
  EXPECT_NEAR(bound, 500.0, 0.01);
}

TEST(Capacity, QuadraticWorkingSetInversion) {
  const double bound =
      capacity_bounded_problem_size([](double z) { return z * z; }, 10000.0, 1.0, 1e9);
  EXPECT_NEAR(bound, 100.0, 0.01);
}

TEST(Capacity, DegenerateBrackets) {
  // Nothing fits.
  EXPECT_DOUBLE_EQ(
      capacity_bounded_problem_size([](double) { return 1e12; }, 10.0, 1.0, 1e6), 1.0);
  // Everything fits.
  EXPECT_DOUBLE_EQ(capacity_bounded_problem_size([](double) { return 1.0; }, 10.0, 1.0, 1e6),
                   1e6);
}

TEST(Capacity, RegimeClassification) {
  EXPECT_EQ(classify_problem(100.0, 500.0), BoundRegime::kProcessorBound);
  EXPECT_EQ(classify_problem(1000.0, 500.0), BoundRegime::kMemoryBound);
}

}  // namespace
}  // namespace c2b
