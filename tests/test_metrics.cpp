#include <gtest/gtest.h>

#include <cmath>

#include "c2b/common/rng.h"
#include "c2b/metrics/amat.h"
#include "c2b/metrics/timeline.h"

namespace c2b {
namespace {

// ---------------------------------------------------------------------------
// Formula layer (Eqs. 1-3)

TEST(Amat, Equation1) {
  EXPECT_DOUBLE_EQ(amat({.hit_time = 3.0, .miss_rate = 0.4, .miss_penalty = 2.0}), 3.8);
  EXPECT_DOUBLE_EQ(amat({.hit_time = 1.0, .miss_rate = 0.0, .miss_penalty = 100.0}), 1.0);
}

TEST(Amat, RejectsInvalidInputs) {
  EXPECT_THROW((void)amat({.hit_time = 0.0, .miss_rate = 0.1, .miss_penalty = 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)amat({.hit_time = 1.0, .miss_rate = 1.5, .miss_penalty = 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)amat({.hit_time = 1.0, .miss_rate = 0.1, .miss_penalty = -1.0}),
               std::invalid_argument);
}

TEST(Camat, Equation2PaperExample) {
  // The worked Fig. 1 numbers: H=3, C_H=5/2, pMR=1/5, pAMP=2, C_M=1.
  const CamatParams p{.hit_time = 3.0,
                      .hit_concurrency = 2.5,
                      .pure_miss_rate = 0.2,
                      .pure_miss_penalty = 2.0,
                      .miss_concurrency = 1.0};
  EXPECT_DOUBLE_EQ(camat(p), 1.6);
}

TEST(Camat, SequentialSpecialCaseEqualsAmat) {
  const AmatParams a{.hit_time = 2.0, .miss_rate = 0.25, .miss_penalty = 8.0};
  EXPECT_DOUBLE_EQ(camat(camat_from_sequential(a)), amat(a));
}

TEST(Camat, RejectsSubUnityConcurrency) {
  EXPECT_THROW((void)camat({.hit_time = 1.0, .hit_concurrency = 0.5}), std::invalid_argument);
}

TEST(Concurrency, Equation3) {
  const AmatParams a{.hit_time = 3.0, .miss_rate = 0.4, .miss_penalty = 2.0};
  const CamatParams c{.hit_time = 3.0,
                      .hit_concurrency = 2.5,
                      .pure_miss_rate = 0.2,
                      .pure_miss_penalty = 2.0,
                      .miss_concurrency = 1.0};
  EXPECT_NEAR(concurrency(a, c), 3.8 / 1.6, 1e-12);
}

TEST(DataStall, Equations5Through7) {
  EXPECT_DOUBLE_EQ(data_stall_camat(0.3, 1.6, 0.25), 0.3 * 1.6 * 0.75);
  EXPECT_THROW((void)data_stall_camat(0.3, 1.6, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Timeline analyzer — the paper's Fig. 1 example, exactly.

TEST(Timeline, Figure1WorkedExample) {
  const TimelineMetrics m = analyze_timeline(figure1_example_timeline());
  EXPECT_EQ(m.accesses, 5u);
  EXPECT_EQ(m.misses, 2u);
  EXPECT_EQ(m.pure_misses, 1u);
  EXPECT_EQ(m.hit_cycle_count, 6u);
  EXPECT_EQ(m.hit_access_cycles, 15u);
  EXPECT_EQ(m.pure_miss_cycle_count, 2u);
  EXPECT_EQ(m.memory_active_cycles, 8u);

  EXPECT_DOUBLE_EQ(m.amat_params.hit_time, 3.0);
  EXPECT_DOUBLE_EQ(m.amat_params.miss_rate, 0.4);
  EXPECT_DOUBLE_EQ(m.amat_params.miss_penalty, 2.0);
  EXPECT_DOUBLE_EQ(m.amat_value, 3.8);

  EXPECT_DOUBLE_EQ(m.camat_params.hit_concurrency, 2.5);
  EXPECT_DOUBLE_EQ(m.camat_params.pure_miss_rate, 0.2);
  EXPECT_DOUBLE_EQ(m.camat_params.pure_miss_penalty, 2.0);
  EXPECT_DOUBLE_EQ(m.camat_params.miss_concurrency, 1.0);
  EXPECT_DOUBLE_EQ(m.camat_value, 1.6);
  EXPECT_DOUBLE_EQ(m.camat_direct, 1.6);
  EXPECT_DOUBLE_EQ(m.apc, 0.625);
  EXPECT_NEAR(m.concurrency_c, 3.8 / 1.6, 1e-12);
}

TEST(Timeline, SingleSequentialHit) {
  const TimelineMetrics m = analyze_timeline({{.start_cycle = 0, .hit_cycles = 2}});
  EXPECT_DOUBLE_EQ(m.amat_value, 2.0);
  EXPECT_DOUBLE_EQ(m.camat_value, 2.0);
  EXPECT_DOUBLE_EQ(m.concurrency_c, 1.0);
}

TEST(Timeline, SequentialAccessesCollapseToAmat) {
  // Strictly serialized accesses: C-AMAT must equal AMAT.
  std::vector<TimelineAccess> accesses;
  std::uint64_t t = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint32_t penalty = (i % 5 == 0) ? 7u : 0u;
    accesses.push_back({.start_cycle = t, .hit_cycles = 3, .miss_penalty_cycles = penalty});
    t += 3 + penalty;
  }
  const TimelineMetrics m = analyze_timeline(accesses);
  EXPECT_NEAR(m.camat_value, m.amat_value, 1e-12);
  EXPECT_NEAR(m.concurrency_c, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.camat_params.hit_concurrency, 1.0);
  EXPECT_DOUBLE_EQ(m.camat_params.miss_concurrency, 1.0);
}

TEST(Timeline, FullyOverlappedHitsDivideByConcurrency) {
  // k identical overlapping hits: C_H = k, C-AMAT = H/k.
  std::vector<TimelineAccess> accesses(4, {.start_cycle = 10, .hit_cycles = 3});
  const TimelineMetrics m = analyze_timeline(accesses);
  EXPECT_DOUBLE_EQ(m.camat_params.hit_concurrency, 4.0);
  EXPECT_DOUBLE_EQ(m.camat_value, 0.75);
}

TEST(Timeline, MissHiddenByHitIsNotPure) {
  // A miss whose penalty overlaps another access's hit window entirely.
  const TimelineMetrics m = analyze_timeline({
      {.start_cycle = 0, .hit_cycles = 2, .miss_penalty_cycles = 3},  // miss 2-4
      {.start_cycle = 2, .hit_cycles = 3, .miss_penalty_cycles = 0},  // hit 2-4
  });
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.pure_misses, 0u);
  EXPECT_DOUBLE_EQ(m.camat_params.pure_miss_rate, 0.0);
}

TEST(Timeline, EmptyThrows) { EXPECT_THROW(analyze_timeline({}), std::invalid_argument); }

TEST(Timeline, ZeroHitCyclesThrows) {
  EXPECT_THROW(analyze_timeline({{.start_cycle = 0, .hit_cycles = 0}}), std::invalid_argument);
}

// Property sweep: on random timelines the Eq. (2) decomposition must equal
// the direct measurement (C-AMAT = memory-active cycles / accesses), C >= 1,
// C-AMAT <= AMAT, and APC = 1/C-AMAT.
class TimelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineProperty, DecompositionIdentityHolds) {
  Rng rng(GetParam());
  std::vector<TimelineAccess> accesses;
  std::uint64_t t = 0;
  const int count = 20 + static_cast<int>(rng.uniform_below(200));
  for (int i = 0; i < count; ++i) {
    t += rng.uniform_below(4);  // bursty arrivals -> overlap
    TimelineAccess a;
    a.start_cycle = t;
    a.hit_cycles = 1 + static_cast<std::uint32_t>(rng.uniform_below(4));
    a.miss_penalty_cycles =
        rng.bernoulli(0.3) ? 1 + static_cast<std::uint32_t>(rng.uniform_below(20)) : 0;
    accesses.push_back(a);
  }
  const TimelineMetrics m = analyze_timeline(accesses);
  EXPECT_NEAR(m.camat_value, m.camat_direct, 1e-9) << "Eq. (2) decomposition broke";
  EXPECT_NEAR(m.apc * m.camat_direct, 1.0, 1e-9);
  EXPECT_GE(m.concurrency_c, 1.0 - 1e-9);
  EXPECT_LE(m.camat_value, m.amat_value + 1e-9);
  EXPECT_GE(m.camat_params.hit_concurrency, 1.0);
  EXPECT_GE(m.camat_params.miss_concurrency, 1.0 - 1e-12);
  EXPECT_LE(m.camat_params.pure_miss_rate, m.amat_params.miss_rate + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomTimelines, TimelineProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace c2b

namespace c2b {
namespace {

TEST(RecursiveCamat, SingleLevelMatchesTwoTermForm) {
  // One cache level over DRAM: C-AMAT = H/C_H + pMR * kappa * C-AMAT_mem,
  // the Eq. (2) shape with pAMP/C_M folded into kappa * C-AMAT_mem.
  const std::vector<CamatLevel> levels{{.hit_time = 3.0,
                                        .hit_concurrency = 2.5,
                                        .pure_miss_rate = 0.2,
                                        .kappa = 1.0}};
  EXPECT_DOUBLE_EQ(recursive_camat(levels, 10.0), 3.0 / 2.5 + 0.2 * 10.0);
}

TEST(RecursiveCamat, TwoLevelComposition) {
  const std::vector<CamatLevel> levels{
      {.hit_time = 3.0, .hit_concurrency = 3.0, .pure_miss_rate = 0.1, .kappa = 0.8},
      {.hit_time = 12.0, .hit_concurrency = 2.0, .pure_miss_rate = 0.3, .kappa = 0.9},
  };
  const double l2 = 12.0 / 2.0 + 0.3 * 0.9 * 100.0;
  EXPECT_DOUBLE_EQ(recursive_camat(levels, 100.0), 3.0 / 3.0 + 0.1 * 0.8 * l2);
}

TEST(RecursiveCamat, OverlapFactorHidesLatency) {
  std::vector<CamatLevel> levels{
      {.hit_time = 2.0, .hit_concurrency = 1.0, .pure_miss_rate = 0.5, .kappa = 1.0}};
  const double exposed = recursive_camat(levels, 50.0);
  levels[0].kappa = 0.2;  // deep overlap hides 80% of the lower level
  EXPECT_LT(recursive_camat(levels, 50.0), exposed);
}

TEST(RecursiveCamat, PerfectCacheIgnoresMemory) {
  const std::vector<CamatLevel> levels{
      {.hit_time = 1.0, .hit_concurrency = 2.0, .pure_miss_rate = 0.0, .kappa = 1.0}};
  EXPECT_DOUBLE_EQ(recursive_camat(levels, 1e9), 0.5);
}

TEST(RecursiveCamat, Validation) {
  EXPECT_THROW((void)recursive_camat({}, 10.0), std::invalid_argument);
  EXPECT_THROW((void)recursive_camat({{.hit_time = -1.0}}, 10.0), std::invalid_argument);
  EXPECT_THROW((void)recursive_camat({{.hit_time = 1.0}}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace c2b
