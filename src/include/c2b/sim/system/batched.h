#pragma once

// Batched multi-config replay: the simulator's one production kernel.
//
// simulate_system_batched runs K >= 1 members (member k = configs[k] over
// cursors[k]) inside one event loop. Every member's per-core next-event
// cycles live in one flat array; each event is picked by an argmin over
// the member's slice and processed by the shared step body
// (detail::step_core). The per-point entry points in system.h
// (simulate_system, simulate_single_core) are K=1 calls into it.
//
// C-AMAT detection runs only where it is read. The caller states once per
// call whether it wants C-AMAT (ReplayMode), and the kernel is compiled
// twice from the one step body: with the per-core detectors, or without
// them (timing only). The system.h entry points — characterization's
// real-memory run, `c2b simulate`, the figure benches — measure C-AMAT.
// Design replay in the DSE layer is timing-only, because a design's score
// is its simulated execution time alone (the paper measures concurrency
// once, when it characterizes the application); so is characterization's
// perfect-memory run, read only for CPI_exe. Both modes do the same kernel
// work otherwise and publish identical telemetry.
//
// Members advance in lockstep over the shared trace streams: every member
// is driven to a common, monotonically growing record target before any
// member moves past it. Members therefore stay within ~one chunk of each
// other, so each chunk of a shared stream is read by all K members while
// it is hot in cache.

#include <cstdint>
#include <vector>

#include "c2b/sim/system/system.h"
#include "c2b/trace/cursor.h"

namespace c2b::sim {

/// Kernel accounting for one simulate_system_batched call. Also published
/// as the exec.batch.simd.{steps,peels,lanes_active} telemetry counters.
struct BatchKernelStats {
  std::uint64_t simd_steps = 0;  ///< events processed by the kernel
  /// Records issued through the scalar per-record path (the remainder went
  /// through closed-form compute jumps): the kernel's divergence rate is
  /// simd_peels / records consumed.
  std::uint64_t simd_peels = 0;
  /// Sum over lockstep rounds of live members — how compacted the batch
  /// stayed as members finished.
  std::uint64_t simd_lanes_active = 0;

  void merge(const BatchKernelStats& other) noexcept {
    simd_steps += other.simd_steps;
    simd_peels += other.simd_peels;
    simd_lanes_active += other.simd_lanes_active;
  }
};

/// Whether a replay measures C-AMAT.
enum class ReplayMode {
  kWithCamat,   ///< run the per-core C-AMAT detectors; CoreResult::camat is filled
  kTimingOnly,  ///< no detectors; CoreResult::camat stays default-constructed
};

/// Simulate `configs.size()` members in lockstep; member k runs
/// configs[k] over cursors[k]. Members may share cursor sources (e.g.
/// ChunkCursors over one TraceChunkStore stream) — each member owns its
/// *cursor objects*, never shares them. Returns one SystemResult per
/// member, each bit-identical to simulate_system_reference on that member
/// alone — on every field under kWithCamat, on every field but
/// CoreResult::camat under kTimingOnly. `kernel_stats`, when non-null,
/// accumulates (+=) the kernel accounting. Throws on an invalid config or
/// an empty trace.
std::vector<SystemResult> simulate_system_batched(
    const std::vector<SystemConfig>& configs,
    const std::vector<std::vector<TraceCursor*>>& cursors, ReplayMode mode,
    BatchKernelStats* kernel_stats = nullptr);

}  // namespace c2b::sim
