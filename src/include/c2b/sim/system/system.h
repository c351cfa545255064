#pragma once

// Trace-driven chip-multiprocessor simulator: N out-of-order cores (issue
// width + reorder buffer occupancy model) over the shared MemoryHierarchy,
// with a per-core on-line C-AMAT detector. This is the reproduction's
// GEM5 substitute: detailed exactly in the dimensions the paper's model
// consumes (CPI_exe, f_mem, C-AMAT and its five components, per-level APC,
// overlap ratio), and fast enough to ground-truth a full factorial DSE.
//
// Core model: in-order issue of up to `issue_width` instructions per cycle
// into a `rob_size` reorder buffer, out-of-order completion, in-order
// retirement of up to `issue_width` per cycle. Compute instructions
// complete next cycle (pipelined units); memory instructions complete when
// the hierarchy returns data. A memory instruction flagged
// depends_on_prev_mem cannot issue before the previous memory access
// completes (pointer chasing — the C -> 1 regime). Idle stretches are
// skipped event-style, so memory-bound simulations stay fast.

#include <cstdint>
#include <vector>

#include "c2b/metrics/timeline.h"
#include "c2b/sim/system/hierarchy.h"
#include "c2b/trace/trace.h"

namespace c2b::sim {

struct CoreConfig {
  std::uint32_t issue_width = 4;
  std::uint32_t rob_size = 128;
  /// Compute functional units: at most this many kCompute instructions can
  /// issue per cycle. This is how core area buys single-thread performance
  /// in the simulator (more area -> more FUs, with Pollack-style
  /// diminishing returns applied by the DSE mapping).
  std::uint32_t functional_units = 4;
  void validate() const;
};

struct SystemConfig {
  CoreConfig core{};
  HierarchyConfig hierarchy{};
  void validate() const;
};

struct CoreResult {
  std::uint64_t instructions = 0;
  std::uint64_t memory_accesses = 0;
  std::uint64_t cycles = 0;  ///< retirement cycle of the last instruction
  double cpi = 0.0;
  double f_mem = 0.0;
  /// Measured by the per-core detector. Empty (default-constructed,
  /// accesses == 0) in timing-only results: simulate_system_batched under
  /// ReplayMode::kTimingOnly, which is how design replay and
  /// characterization's perfect-memory run go. The entry points below
  /// always measure it.
  TimelineMetrics camat;
};

struct SystemResult {
  std::vector<CoreResult> cores;
  std::uint64_t cycles = 0;  ///< max over cores (makespan)
  HierarchyStats hierarchy;

  double total_instructions() const noexcept;
  double aggregate_ipc() const noexcept;
};

/// Run every core to the end of its trace. Cores without a trace (fewer
/// traces than cores) idle. Throws on invalid configuration. This and the
/// other per-point entry points are K=1 calls into the one replay kernel,
/// simulate_system_batched (batched.h).
SystemResult simulate_system(const SystemConfig& config, const std::vector<Trace>& per_core_traces);

/// The seed per-cycle kernel, retained verbatim as the differential
/// baseline for the replay kernel (`c2b check --family kernel` and the
/// equivalence tests compare every SystemResult field bitwise against it).
/// Not for production use — it walks every cycle and materialized traces
/// only.
SystemResult simulate_system_reference(const SystemConfig& config,
                                       const std::vector<Trace>& per_core_traces);

/// Single-core convenience wrapper.
SystemResult simulate_single_core(const SystemConfig& config, const Trace& trace);

}  // namespace c2b::sim
