#include "c2b/sim/system/batched.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <memory>
#include <vector>

#include "argmin.h"
#include "c2b/common/rng.h"
#include "c2b/trace/chunk_store.h"
#include "c2b/trace/generators.h"

namespace c2b {
namespace {

ZipfStreamGenerator::Params zipf_params(std::uint64_t seed, double f_mem = 0.4) {
  ZipfStreamGenerator::Params p;
  p.working_set_lines = 1 << 10;
  p.zipf_exponent = 0.9;
  p.f_mem = f_mem;
  p.write_ratio = 0.3;
  p.seed = seed;
  return p;
}

void expect_results_bitwise_equal(const sim::SystemResult& a, const sim::SystemResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_EQ(a.cores[c].instructions, b.cores[c].instructions);
    EXPECT_EQ(a.cores[c].memory_accesses, b.cores[c].memory_accesses);
    EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cores[c].cpi),
              std::bit_cast<std::uint64_t>(b.cores[c].cpi));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cores[c].camat.camat_value),
              std::bit_cast<std::uint64_t>(b.cores[c].camat.camat_value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cores[c].camat.concurrency_c),
              std::bit_cast<std::uint64_t>(b.cores[c].camat.concurrency_c));
  }
  EXPECT_EQ(a.hierarchy.dram_accesses, b.hierarchy.dram_accesses);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.hierarchy.l1_miss_ratio),
            std::bit_cast<std::uint64_t>(b.hierarchy.l1_miss_ratio));
}

/// Per-member reference: the per-cycle reference kernel over the same
/// streams, materialized.
sim::SystemResult reference_run(const sim::SystemConfig& config, std::uint64_t seed,
                                std::uint64_t records) {
  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < config.hierarchy.cores; ++c)
    traces.push_back(ZipfStreamGenerator(zipf_params(seed + c)).generate(records));
  return sim::simulate_system_reference(config, traces);
}

TEST(SimulateBatched, MembersMatchPerPointRunsBitwise) {
  // Three members with different hardware over the same trace streams: the
  // canonical trace-equivalence-class shape. Each must match the reference
  // kernel run on its own.
  const std::uint64_t kSeed = 71;
  const std::uint64_t kRecords = 12'000;
  std::vector<sim::SystemConfig> configs(3);
  configs[0].core.issue_width = 2;
  configs[0].core.rob_size = 32;
  configs[1].core.issue_width = 4;
  configs[1].core.rob_size = 64;
  configs[2].core.issue_width = 4;
  configs[2].core.rob_size = 128;
  configs[2].hierarchy.l1_geometry.size_bytes = 64 * 1024;

  TraceChunkStore store;
  const std::size_t id = store.add_stream(
      std::make_unique<ZipfStreamGenerator>(zipf_params(kSeed)), kRecords);
  std::vector<ChunkCursor> cursors;
  cursors.reserve(3);
  std::vector<std::vector<TraceCursor*>> member_cursors(3);
  for (std::size_t m = 0; m < 3; ++m) {
    cursors.emplace_back(store, id);
    member_cursors[m] = {&cursors.back()};
  }

  const std::vector<sim::SystemResult> batched =
      sim::simulate_system_batched(configs, member_cursors, sim::ReplayMode::kWithCamat);
  ASSERT_EQ(batched.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    const sim::SystemResult ref = reference_run(configs[m], kSeed, kRecords);
    expect_results_bitwise_equal(batched[m], ref);
  }
  // One generation pass served all three members.
  EXPECT_EQ(store.stats().records_generated, kRecords);
}

TEST(SimulateBatched, MembersFinishingAtDifferentTimesStayCorrect) {
  // Width-8 member races far ahead in simulated work per record; the
  // lockstep driver must keep results right while members drain at very
  // different event rates, including after the fastest one finishes.
  // Streams several times the lockstep round (one 4096-record chunk) force
  // many rounds.
  const std::uint64_t kSeed = 90;
  const std::uint64_t kRecords = 40'000;
  std::vector<sim::SystemConfig> configs(2);
  configs[0].core.issue_width = 1;
  configs[0].core.rob_size = 16;
  configs[1].core.issue_width = 8;
  configs[1].core.rob_size = 192;
  TraceChunkStore store;
  const std::size_t id = store.add_stream(
      std::make_unique<ZipfStreamGenerator>(zipf_params(kSeed)), kRecords);
  ChunkCursor a(store, id), b(store, id);
  sim::BatchKernelStats kernel;
  const std::vector<sim::SystemResult> batched = sim::simulate_system_batched(
      configs, {{&a}, {&b}}, sim::ReplayMode::kWithCamat, &kernel);
  EXPECT_GE(kernel.simd_lanes_active, 2 * (kRecords / 4096));
  for (std::size_t m = 0; m < 2; ++m)
    expect_results_bitwise_equal(batched[m], reference_run(configs[m], kSeed, kRecords));
}

TEST(SimulateBatched, RejectsMalformedInputs) {
  sim::SystemConfig config;
  TraceChunkStore store;
  const std::size_t id =
      store.add_stream(std::make_unique<ZipfStreamGenerator>(zipf_params(99)), 100);
  ChunkCursor cursor(store, id);
  EXPECT_THROW(sim::simulate_system_batched({}, {}, sim::ReplayMode::kWithCamat),
               std::invalid_argument);
  EXPECT_THROW(sim::simulate_system_batched({config}, {{&cursor}, {&cursor}},
                                            sim::ReplayMode::kWithCamat),
               std::invalid_argument);
}

/// The kernel's next-event cycle of a core that has finished.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// The obvious argmin: first index of the smallest value.
std::size_t naive_argmin(const std::vector<std::uint64_t>& values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i)
    if (values[i] < values[best]) best = i;
  return best;
}

TEST(KernelArgmin, MatchesNaiveScanAtEveryWidth) {
  // Counts 1..64 cover the inline scan (<= kInlineArgminLanes) and the
  // dispatched wide path (portable blocked reduction or AVX2) on both
  // sides of the threshold and of the 8-lane block boundary.
  Rng rng(4242);
  const std::uint64_t kHigh = std::uint64_t{1} << 63;
  for (std::size_t count = 1; count <= 64; ++count) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint64_t> values(count);
      for (std::uint64_t& v : values) {
        switch (rng.uniform_below(4)) {
          case 0: v = rng.uniform_below(4); break;          // dense ties
          case 1: v = kNever; break;                        // finished cores
          case 2: v = kHigh + rng.uniform_below(4); break;  // AVX2 sign-bias range
          default: v = rng.next(); break;
        }
      }
      ASSERT_EQ(sim::detail::argmin_u64(values.data(), count), naive_argmin(values))
          << "count " << count << " trial " << trial;
    }
  }
}

TEST(KernelArgmin, TiesReturnTheLowestIndex) {
  for (std::size_t count = 1; count <= 64; ++count) {
    for (std::size_t first = 0; first < count; ++first) {
      // Every lane from `first` on holds the minimum; lanes before it are
      // larger — and values straddle 2^63 so a signed compare would lie.
      std::vector<std::uint64_t> values(count, std::uint64_t{1} << 63);
      for (std::size_t i = 0; i < first; ++i) values[i] = kNever - i;
      ASSERT_EQ(sim::detail::argmin_u64(values.data(), count), first) << "count " << count;
    }
    const std::vector<std::uint64_t> all_done(count, kNever);
    EXPECT_EQ(sim::detail::argmin_u64(all_done.data(), count), 0u) << "count " << count;
  }
}

}  // namespace
}  // namespace c2b
