// Kernel-equivalence stress tests (ctest label: perf, excluded from the
// quick suite). The event-driven cycle-skipping kernel must be observably
// indistinguishable from the retained per-cycle reference kernel — every
// counter and every derived double bit-identical.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "c2b/check/oracles.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/chunk_store.h"
#include "c2b/trace/generators.h"

namespace c2b {
namespace {

void expect_bits_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

void expect_core_results_identical(const sim::CoreResult& a, const sim::CoreResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.cycles, b.cycles);
  expect_bits_equal(a.cpi, b.cpi, "cpi");
  expect_bits_equal(a.f_mem, b.f_mem, "f_mem");
  EXPECT_EQ(a.camat.accesses, b.camat.accesses);
  EXPECT_EQ(a.camat.misses, b.camat.misses);
  EXPECT_EQ(a.camat.pure_misses, b.camat.pure_misses);
  EXPECT_EQ(a.camat.hit_cycle_count, b.camat.hit_cycle_count);
  EXPECT_EQ(a.camat.hit_access_cycles, b.camat.hit_access_cycles);
  EXPECT_EQ(a.camat.pure_miss_cycle_count, b.camat.pure_miss_cycle_count);
  EXPECT_EQ(a.camat.pure_miss_access_cycles, b.camat.pure_miss_access_cycles);
  EXPECT_EQ(a.camat.memory_active_cycles, b.camat.memory_active_cycles);
  expect_bits_equal(a.camat.amat_value, b.camat.amat_value, "amat");
  expect_bits_equal(a.camat.camat_value, b.camat.camat_value, "camat");
  expect_bits_equal(a.camat.camat_direct, b.camat.camat_direct, "camat_direct");
  expect_bits_equal(a.camat.apc, b.camat.apc, "apc");
  expect_bits_equal(a.camat.concurrency_c, b.camat.concurrency_c, "concurrency_c");
  expect_bits_equal(a.camat.camat_params.hit_concurrency, b.camat.camat_params.hit_concurrency,
                    "hit_concurrency");
  expect_bits_equal(a.camat.camat_params.miss_concurrency, b.camat.camat_params.miss_concurrency,
                    "miss_concurrency");
}

// The full random sweep (coherence + prefetch + random replacement
// included, field-by-field bitwise diff; batch widths 1..16; DSE design
// sets at every thread count, cold and warm) is the oracle harness's
// kernel family; run it here at two seeds other than the `c2b check`
// default so the perf suite explores fresh cases, twice as many as one run.
TEST(KernelEquivalence, OracleStressOnRandomConfigs) {
  for (const std::uint64_t seed : {20'260'805ULL, 20'260'807ULL}) {
    const check::OracleReport report = check::run_kernel_equivalence_oracle({.seed = seed});
    for (const std::string& failure : report.failures) ADD_FAILURE() << failure;
    EXPECT_TRUE(report.passed()) << "seed " << seed;
    EXPECT_GT(report.checks, 0u);
  }
}

// Deterministic identity on a stall-heavy configuration, every observable
// bitwise against the reference kernel: the event kernel over the
// materialized traces (simulate_system) and over chunk-store cursors (the
// design-replay path; the 40k-record streams cross nine chunk edges).
TEST(KernelEquivalence, StallHeavyThreeWayBitwiseIdentity) {
  sim::SystemConfig config;
  config.core.issue_width = 4;
  config.core.rob_size = 64;
  config.hierarchy.cores = 4;
  config.hierarchy.l1_geometry = {.size_bytes = 8 * 1024, .line_bytes = 64, .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 128 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  config.hierarchy.l1_mshr_entries = 4;
  config.hierarchy.l2_mshr_entries = 8;
  config.hierarchy.dram.banks = 2;
  config.hierarchy.dram.t_cas = 40;
  config.hierarchy.dram.t_bus = 8;

  std::vector<Trace> traces;
  TraceChunkStore store;
  for (std::uint64_t c = 0; c < config.hierarchy.cores; ++c) {
    ZipfStreamGenerator::Params p;
    p.working_set_lines = 1 << 16;
    p.zipf_exponent = 0.3;
    p.f_mem = 0.35;
    p.seed = 900 + c;
    traces.push_back(ZipfStreamGenerator(p).generate(40'000));
    store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 40'000);
  }
  std::vector<ChunkCursor> cursors;
  cursors.reserve(traces.size());
  std::vector<TraceCursor*> cursor_ptrs;
  for (std::size_t c = 0; c < traces.size(); ++c) {
    cursors.emplace_back(store, c);
    cursor_ptrs.push_back(&cursors.back());
  }

  const sim::SystemResult event = sim::simulate_system(config, traces);
  const sim::SystemResult reference = sim::simulate_system_reference(config, traces);
  const sim::SystemResult chunked = std::move(
      sim::simulate_system_batched({config}, {cursor_ptrs}, sim::ReplayMode::kWithCamat)
          .front());

  ASSERT_EQ(event.cores.size(), reference.cores.size());
  ASSERT_EQ(chunked.cores.size(), reference.cores.size());
  EXPECT_EQ(event.cycles, reference.cycles);
  EXPECT_EQ(chunked.cycles, reference.cycles);
  for (std::size_t c = 0; c < reference.cores.size(); ++c) {
    expect_core_results_identical(event.cores[c], reference.cores[c]);
    expect_core_results_identical(chunked.cores[c], reference.cores[c]);
  }
  EXPECT_EQ(event.hierarchy.l1_accesses, reference.hierarchy.l1_accesses);
  EXPECT_EQ(event.hierarchy.l2_accesses, reference.hierarchy.l2_accesses);
  EXPECT_EQ(event.hierarchy.dram_accesses, reference.hierarchy.dram_accesses);
  expect_bits_equal(event.hierarchy.l1_miss_ratio, reference.hierarchy.l1_miss_ratio,
                    "l1_miss_ratio");
  expect_bits_equal(event.hierarchy.dram_average_latency,
                    reference.hierarchy.dram_average_latency, "dram_average_latency");
}

}  // namespace
}  // namespace c2b
