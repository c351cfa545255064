#include "c2b/sim/system/batched.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#define C2B_ARGMIN_AVX2_DISPATCH 1
#endif

#include "argmin.h"
#include "batch_state.h"
#include "c2b/common/assert.h"
#include "c2b/obs/obs.h"
#include "c2b/trace/chunk_store.h"

// Event-driven cycle-skipping kernel.
//
// The seed kernel (system_reference.cpp) walks every cycle and visits every
// core. This kernel instead keeps one pending event per live core — the
// next cycle at which that core can change state — and advances time by
// processing the earliest event, lowest core index first among equal
// cycles (argmin.h).
//
// Why this is bit-identical to the per-cycle loop:
//
//  * All shared state (bank schedulers, MSHRs, L2, NoC, DRAM, directory,
//    APC counters) is touched exclusively through hierarchy.access(), and
//    the seed kernel performs those calls in lexicographic
//    (cycle, core index, issue slot) order. A core's *ability* to act at a
//    cycle depends only on core-local state: its ROB head completion, its
//    last memory completion (dependent loads), and the per-cycle width/FU
//    budgets, which reset every cycle. So each core's next actionable
//    cycle can be computed locally, and processing events in
//    (cycle, core) order reproduces the exact same access interleaving.
//  * Visits where a core can do nothing are pure in the seed kernel (no
//    state changes), so skipping them is unobservable. Conversely every
//    visit where the seed kernel's core acts is scheduled here: retirement
//    resumes exactly at the ROB head's completion cycle, issue resumes at
//    the dependent load's completion, at the next retirement (ROB full),
//    or next cycle (width/FU budget exhausted).
//  * CamatDetector::advance() folds each cycle exactly once with the same
//    classification for any valid watermark schedule (watermarks never
//    exceed the core's current cycle, and accesses never start before it),
//    so the detector's finalized metrics do not depend on the fold cadence.
//
// The compute fast paths additionally jump over whole batches of
// consecutive kCompute records (see detail::step_core in batch_state.h);
// they touch no shared state, so cross-core ordering is preserved.
//
// The detector only observes: no kernel decision reads it. So the
// timing-only instantiation (ReplayMode::kTimingOnly, no detectors)
// takes exactly the same steps and produces the same timing, hierarchy
// and telemetry as the C-AMAT one; only CoreResult::camat stays empty.
//
// Members of one batch share no simulator state, so interleaving their
// events in lockstep rounds is invisible to each member's result.

namespace c2b::sim {
namespace detail {

void MemberState::flush_kernel_counters() {
  C2B_COUNTER_ADD("sim.kernel.visited_cycles", visited_cycles);
  C2B_COUNTER_ADD("sim.kernel.skipped_cycles", skipped_cycles);
  C2B_HISTOGRAM_MERGE("sim.core.rob_occupancy", rob_occupancy);
  hierarchy.flush_telemetry();
}

SystemResult MemberState::build_result() {
  SystemResult result;
  result.cores.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    CoreResult r;
    r.instructions = lanes.retired[c];
    r.memory_accesses = lanes.memory_accesses[c];
    r.cycles = lanes.last_retire_cycle[c];
    r.cpi = lanes.retired[c] == 0
                ? 0.0
                : static_cast<double>(r.cycles) / static_cast<double>(lanes.retired[c]);
    r.f_mem = lanes.retired[c] == 0 ? 0.0
                                    : static_cast<double>(lanes.memory_accesses[c]) /
                                          static_cast<double>(lanes.retired[c]);
    if (!lanes.detectors.empty()) r.camat = lanes.detectors[c].finalize();
    result.cycles = std::max(result.cycles, r.cycles);
    result.cores.push_back(std::move(r));
  }
  result.hierarchy = hierarchy.stats();
  return result;
}

namespace {

/// Two-pass argmin: a blocked min reduction (lane accumulators in a
/// std::array so -O2 can vectorize the inner loop), then a scan for the
/// first occurrence of the min, so ties resolve to the lowest index.
std::size_t argmin_u64_portable(const std::uint64_t* values, std::size_t count) {
  constexpr std::size_t kBlock = 8;
  std::uint64_t best = values[0];
  std::size_t i = 1;
  if (count >= 2 * kBlock) {
    std::array<std::uint64_t, kBlock> acc;
    std::memcpy(acc.data(), values, kBlock * sizeof(std::uint64_t));
    for (i = kBlock; i + kBlock <= count; i += kBlock)
      for (std::size_t j = 0; j < kBlock; ++j) acc[j] = std::min(acc[j], values[i + j]);
    best = acc[0];
    for (std::size_t j = 1; j < kBlock; ++j) best = std::min(best, acc[j]);
  }
  for (; i < count; ++i) best = std::min(best, values[i]);
  for (std::size_t j = 0;; ++j)
    if (values[j] == best) return j;
}

#if defined(C2B_ARGMIN_AVX2_DISPATCH)
/// AVX2 min reduction. AVX2 has no unsigned 64-bit min, so compare through
/// a sign bias: x <u y  <=>  (x ^ 2^63) <s (y ^ 2^63).
__attribute__((target("avx2"))) std::size_t argmin_u64_avx2(const std::uint64_t* values,
                                                            std::size_t count) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  __m256i vmin = _mm256_set1_epi64x(-1);  // all-ones == u64 max in every lane
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i gt =
        _mm256_cmpgt_epi64(_mm256_xor_si256(vmin, bias), _mm256_xor_si256(x, bias));
    vmin = _mm256_blendv_epi8(vmin, x, gt);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  std::uint64_t best = std::min(std::min(lanes[0], lanes[1]), std::min(lanes[2], lanes[3]));
  for (; i < count; ++i) best = std::min(best, values[i]);
  for (std::size_t j = 0;; ++j)
    if (values[j] == best) return j;
}
#endif

using ArgminFn = std::size_t (*)(const std::uint64_t*, std::size_t);

ArgminFn pick_argmin() {
#if defined(C2B_ARGMIN_AVX2_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return argmin_u64_avx2;
#endif
  return argmin_u64_portable;
}

const ArgminFn g_argmin_wide = pick_argmin();

/// Lockstep round length: records each member may consume past the
/// previous common target before every member is caught up. One store
/// chunk keeps a unit's members within a chunk of each other on their
/// shared streams, so the records they read stay cache-warm.
constexpr std::uint64_t kLockstepRecords = TraceChunkStore::kChunkRecords;

/// The kernel loop, templated over the detector switch and the concrete
/// cursor type so step_core's peek/advance/compute_run/skip calls
/// devirtualize for ChunkCursor.
template <bool kCamat, typename Cursor>
std::vector<SystemResult> run_kernel(const std::vector<SystemConfig>& configs,
                                     const std::vector<std::vector<Cursor*>>& cursors,
                                     BatchKernelStats* kernel_stats) {
  const std::size_t k = configs.size();
  std::vector<MemberState> members;
  members.reserve(k);
  std::vector<std::size_t> offset(k + 1, 0);
  for (std::size_t m = 0; m < k; ++m) {
    members.emplace_back(configs[m], cursors[m].size(), kCamat);
    offset[m + 1] = offset[m] + cursors[m].size();
  }
  // Flat next-event cycles; member m's cores occupy [offset[m], offset[m+1]).
  // Every core starts pending at cycle 0.
  std::vector<std::uint64_t> next(offset[k], 0);

  // Active members, compacted as members finish so late lockstep rounds
  // only touch live lanes.
  std::vector<std::size_t> active(k);
  for (std::size_t m = 0; m < k; ++m) active[m] = m;

  std::uint64_t lanes_active_sum = 0;
  std::uint64_t target = 0;
  while (!active.empty()) {
    if (target >= std::numeric_limits<std::uint64_t>::max() - kLockstepRecords)
      target = std::numeric_limits<std::uint64_t>::max();
    else
      target += kLockstepRecords;
    lanes_active_sum += active.size();
    std::size_t live = 0;
    for (const std::size_t m : active) {
      MemberState& s = members[m];
      std::uint64_t* const lane = next.data() + offset[m];
      bool finished = false;
      for (;;) {
        const std::size_t c = argmin_u64(lane, s.n);
        const std::uint64_t cycle = lane[c];
        if (cycle == kNever) {
          finished = true;
          break;
        }
        if (s.consumed >= target) break;
        lane[c] = step_core<kCamat>(s, *cursors[m][c], cycle, c);
      }
      if (finished)
        s.flush_kernel_counters();
      else
        active[live++] = m;
    }
    active.resize(live);
  }

  std::uint64_t steps = 0;
  std::uint64_t peels = 0;
  for (const MemberState& s : members) {
    steps += s.steps;
    peels += s.peel_records;
  }
  C2B_COUNTER_ADD("exec.batch.simd.steps", steps);
  C2B_COUNTER_ADD("exec.batch.simd.peels", peels);
  C2B_COUNTER_ADD("exec.batch.simd.lanes_active", lanes_active_sum);
  if (kernel_stats != nullptr) {
    kernel_stats->simd_steps += steps;
    kernel_stats->simd_peels += peels;
    kernel_stats->simd_lanes_active += lanes_active_sum;
  }

  std::vector<SystemResult> results;
  results.reserve(k);
  for (MemberState& s : members) results.push_back(s.build_result());
  return results;
}

/// Picks the detector switch once per call.
template <typename Cursor>
std::vector<SystemResult> run_kernel_for(ReplayMode mode,
                                         const std::vector<SystemConfig>& configs,
                                         const std::vector<std::vector<Cursor*>>& cursors,
                                         BatchKernelStats* kernel_stats) {
  return mode == ReplayMode::kWithCamat
             ? run_kernel<true, Cursor>(configs, cursors, kernel_stats)
             : run_kernel<false, Cursor>(configs, cursors, kernel_stats);
}

}  // namespace

std::size_t argmin_u64_wide(const std::uint64_t* values, std::size_t count) {
  return g_argmin_wide(values, count);
}

}  // namespace detail

std::vector<SystemResult> simulate_system_batched(
    const std::vector<SystemConfig>& configs,
    const std::vector<std::vector<TraceCursor*>>& cursors, ReplayMode mode,
    BatchKernelStats* kernel_stats) {
  C2B_REQUIRE(!configs.empty(), "need at least one batch member");
  C2B_REQUIRE(configs.size() == cursors.size(), "one cursor set per config");
  C2B_SPAN("sim/simulate_system");
  for (std::size_t m = 0; m < configs.size(); ++m) {
    configs[m].validate();
    C2B_COUNTER_INC("sim.system.runs");
    C2B_REQUIRE(!cursors[m].empty(), "need at least one trace");
    C2B_REQUIRE(cursors[m].size() <= configs[m].hierarchy.cores,
                "more traces than cores in the hierarchy");
    for (TraceCursor* cursor : cursors[m])
      C2B_REQUIRE(cursor != nullptr && cursor->peek() != nullptr, "core trace must be non-empty");
  }

  // Devirtualize the hot path: the DSE driver hands out ChunkCursors, so
  // recover the concrete type when every cursor is one.
  std::vector<std::vector<ChunkCursor*>> chunk_cursors(cursors.size());
  for (std::size_t m = 0; m < cursors.size(); ++m) {
    chunk_cursors[m].reserve(cursors[m].size());
    for (TraceCursor* cursor : cursors[m]) {
      auto* chunk = dynamic_cast<ChunkCursor*>(cursor);
      if (chunk == nullptr) return detail::run_kernel_for(mode, configs, cursors, kernel_stats);
      chunk_cursors[m].push_back(chunk);
    }
  }
  return detail::run_kernel_for(mode, configs, chunk_cursors, kernel_stats);
}

}  // namespace c2b::sim
