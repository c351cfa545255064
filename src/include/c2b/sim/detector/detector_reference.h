#pragma once

// The seed per-cycle C-AMAT detector, retained verbatim as the
// differential baseline for the interval-sweep CamatDetector (see
// detector.h). It models every live cycle as a (hits, misses) slot in a
// dense ring and pays O(hit + penalty) slot updates per access — exactly
// the cost profile the production detector replaces, which is why the
// per-cycle reference kernel (system_reference.cpp) keeps using it: the
// event-vs-reference `speedup` of perf_smoke's kernel scenarios then
// measures the real seed hot path, and `c2b check --family kernel` proves
// the two detector implementations agree on every finalized metric.
//
// Do not "improve" this class; its value is being boring.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "c2b/metrics/timeline.h"

namespace c2b::sim {

class ReferenceCamatDetector {
 public:
  /// Report one memory access: hit/lookup activity in
  /// [start, start+hit_cycles) and, if a miss, miss activity in
  /// [start+hit_cycles, start+hit_cycles+miss_penalty_cycles).
  void record_access(std::uint64_t start_cycle, std::uint32_t hit_cycles,
                     std::uint32_t miss_penalty_cycles);

  /// Fold all cycles strictly below `watermark` into the running counters.
  void advance(std::uint64_t watermark);

  /// Finalize everything and return the full metrics snapshot.
  TimelineMetrics finalize();

  std::uint64_t finalized_accesses() const noexcept { return finalized_accesses_; }
  std::uint64_t live_cycle_window() const noexcept { return window_count_; }

 private:
  struct CycleActivity {
    std::uint32_t hits = 0;
    std::uint32_t misses = 0;
  };
  struct PendingMiss {
    std::uint64_t miss_start = 0;
    std::uint32_t miss_cycles = 0;
  };

  /// Live cycle table: a dense power-of-two ring over [window_base_,
  /// window_base_ + window_count_). Invariant: slots outside the live
  /// range are zeroed, so extending the window is just a size bump.
  CycleActivity& cycle_slot(std::uint64_t cycle);
  const CycleActivity* find_cycle(std::uint64_t cycle) const;
  void grow_window(std::size_t needed);

  std::vector<CycleActivity> window_;  ///< pow2 ring storage
  std::size_t window_head_ = 0;        ///< slot of window_base_
  std::size_t window_count_ = 0;       ///< live slots
  std::uint64_t window_base_ = 0;
  bool window_anchored_ = false;  ///< window_base_ valid once first access seen
  std::vector<PendingMiss> pending_misses_;

  // Finalized accumulators.
  std::uint64_t finalized_accesses_ = 0;
  std::uint64_t total_hit_duration_ = 0;
  std::uint64_t total_miss_penalty_ = 0;
  std::uint64_t miss_count_ = 0;
  std::uint64_t pure_miss_count_ = 0;
  std::uint64_t per_access_pure_cycles_ = 0;
  std::uint64_t hit_cycle_count_ = 0;
  std::uint64_t hit_access_cycles_ = 0;
  std::uint64_t pure_miss_cycle_count_ = 0;
  std::uint64_t pure_miss_access_cycles_ = 0;
  std::uint64_t memory_active_cycles_ = 0;
};

}  // namespace c2b::sim
