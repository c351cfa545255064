#pragma once

// Two-level memory hierarchy with per-core private L1s, a shared NoC-sliced
// L2 (LLC), and a DRAM backend — the Intel-Core-i7-like setup of the
// paper's Section IV. Every concurrency feature C-AMAT measures is modeled:
// banked/ported L1 and L2 (hit concurrency), MSHR-bounded non-blocking
// misses (miss concurrency), bank-parallel DRAM with a serializing bus,
// and NoC hop latency between a core and a line's home slice.
//
// The hierarchy is a timing calculator: access() resolves a request's full
// path immediately, updating the resource-availability state (bank ports,
// MSHRs, row buffers, bus) so later requests observe the contention. Dirty
// victims write back through the hierarchy as off-critical-path traffic
// that still occupies L2 slots and DRAM bank/bus time.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include <optional>

#include "c2b/obs/registry.h"
#include "c2b/sim/cache/cache.h"
#include "c2b/sim/cache/coherence.h"
#include "c2b/sim/cache/prefetch.h"
#include "c2b/sim/detector/detector.h"
#include "c2b/sim/dram/dram.h"
#include "c2b/sim/noc/noc.h"

namespace c2b::sim {

struct HierarchyConfig {
  std::uint32_t cores = 1;

  CacheGeometry l1_geometry{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  std::uint32_t l1_hit_latency = 3;
  std::uint32_t l1_banks = 4;
  std::uint32_t l1_ports_per_bank = 2;
  std::uint32_t l1_mshr_entries = 8;

  /// Total shared L2 capacity (all slices together).
  CacheGeometry l2_geometry{.size_bytes = 2 * 1024 * 1024, .line_bytes = 64, .associativity = 16};
  std::uint32_t l2_hit_latency = 12;
  std::uint32_t l2_banks = 16;
  std::uint32_t l2_ports_per_bank = 1;
  std::uint32_t l2_mshr_entries = 32;

  NocConfig noc{};
  DramConfig dram{};

  /// When true every access is an L1 hit — used to measure CPI_exe.
  bool perfect_memory = false;

  /// Per-core L1 prefetching over the miss stream.
  PrefetcherConfig l1_prefetch{};

  /// Directory-based coherence over the private L1s (MESI-flavored).
  /// Writes to shared lines pay an upgrade round trip and invalidate the
  /// other copies; reads of remotely-modified lines fetch from the owner.
  /// Requires cores <= 64 when enabled.
  bool coherence = false;

  void validate() const;
};

enum class ServiceLevel : std::uint8_t { kL1 = 1, kL2 = 2, kMemory = 3 };

struct AccessOutcome {
  std::uint64_t start_cycle = 0;       ///< L1 lookup begins (after port arbitration)
  std::uint64_t completion_cycle = 0;  ///< data available to the core
  std::uint32_t hit_cycles = 0;        ///< L1 lookup duration (H)
  std::uint32_t miss_penalty_cycles = 0;  ///< completion - lookup end
  ServiceLevel level = ServiceLevel::kL1;
};

struct HierarchyStats {
  double l1_miss_ratio = 0.0;
  double l2_miss_ratio = 0.0;  ///< local: misses per L2 access
  double apc_l1 = 0.0;
  double apc_l2 = 0.0;
  double apc_mem = 0.0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t dram_accesses = 0;
  double dram_row_hit_ratio = 0.0;
  double dram_average_latency = 0.0;
  std::uint64_t l1_mshr_merges = 0;
  std::uint64_t l1_mshr_full_stalls = 0;
  double noc_average_hops = 0.0;
  std::uint64_t l1_writebacks = 0;  ///< dirty L1 victims pushed to L2
  std::uint64_t l2_writebacks = 0;  ///< dirty L2 victims pushed to DRAM
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetch_useful_hits = 0;  ///< hits on prefetched lines
  double prefetch_accuracy = 0.0;          ///< useful / issued
  // Coherence (zero when disabled).
  std::uint64_t coherence_invalidations = 0;
  std::uint64_t coherence_owner_transfers = 0;
  std::uint64_t coherence_upgrades = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  /// Resolve one access from `core` at or after `cycle`. With coherence
  /// enabled, writes to shared lines pay upgrade/invalidation fan-out and
  /// reads of remotely-modified lines pay an owner forward; otherwise reads
  /// and writes time identically.
  AccessOutcome access(std::uint32_t core, std::uint64_t address, bool is_write,
                       std::uint64_t cycle);

  HierarchyStats stats() const;
  const HierarchyConfig& config() const noexcept { return config_; }

  /// Publish this hierarchy's per-run telemetry to the registry: the
  /// sim.l1/sim.l2 hit, miss and eviction counters and the MSHR-occupancy,
  /// NoC round-trip and DRAM queue-depth histograms. access() only counts
  /// into plain members, so concurrent runs never contend on shared
  /// registry slots; call this exactly once, when the run finishes.
  void flush_telemetry() const;

 private:
  HierarchyConfig config_;
  /// log2 of the shared line size (validated a power of two): line numbers
  /// and line addresses convert by shifting.
  unsigned line_shift_;

  // Per-core private L1s.
  std::vector<CacheArray> l1_;
  std::vector<BankPortScheduler> l1_sched_;
  std::vector<MshrFile> l1_mshr_;

  // Shared L2 (one logical array; slicing shows up as NoC distance + banks).
  CacheArray l2_;
  BankPortScheduler l2_sched_;
  MshrFile l2_mshr_;
  std::uint64_t l2_accesses_ = 0;
  std::uint64_t l2_misses_ = 0;
  std::uint64_t l1_writebacks_ = 0;
  std::uint64_t l2_writebacks_ = 0;

  // Telemetry-only tallies, published by flush_telemetry() (no other
  // member counts evictions; L1 hits/misses derive from the L1 probe
  // counts and apc_l1_).
  std::uint64_t l1_evictions_ = 0;
  std::uint64_t l2_evictions_ = 0;
  obs::LocalHistogram mshr_occupancy_{0.0, 64.0, 64};
  obs::LocalHistogram noc_round_trip_{0.0, 256.0, 64};

  // Prefetch engines and the not-yet-referenced prefetched lines per core.
  std::vector<Prefetcher> prefetchers_;
  std::vector<std::unordered_set<std::uint64_t>> prefetched_pending_;
  std::uint64_t prefetches_issued_ = 0;
  std::uint64_t prefetch_useful_ = 0;

  /// Bring `line` into core's L1 speculatively, charging L2/DRAM resources
  /// but never blocking the demand access that triggered it.
  void issue_prefetch(std::uint32_t core, std::uint64_t line, std::uint64_t at_cycle);

  MeshNoc noc_;
  DramModel dram_;
  std::optional<Directory> directory_;

  ApcCounter apc_l1_;
  ApcCounter apc_l2_;
  ApcCounter apc_mem_;
};

}  // namespace c2b::sim
