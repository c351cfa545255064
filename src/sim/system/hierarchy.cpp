#include "c2b/sim/system/hierarchy.h"

#include <algorithm>

#include "c2b/obs/obs.h"

namespace c2b::sim {

void HierarchyConfig::validate() const {
  C2B_REQUIRE(cores >= 1, "need at least one core");
  l1_geometry.validate();
  l2_geometry.validate();
  C2B_REQUIRE(l1_geometry.line_bytes == l2_geometry.line_bytes,
              "L1 and L2 must share a line size");
  C2B_REQUIRE(l1_hit_latency >= 1 && l2_hit_latency >= 1, "hit latencies must be positive");
  C2B_REQUIRE(l1_banks >= 1 && l2_banks >= 1, "bank counts must be positive");
  C2B_REQUIRE(l1_ports_per_bank >= 1 && l2_ports_per_bank >= 1, "port counts must be positive");
  C2B_REQUIRE(l1_mshr_entries >= 1 && l2_mshr_entries >= 1, "MSHR counts must be positive");
  C2B_REQUIRE(!coherence || cores <= Directory::kMaxCores,
              "coherence directory supports at most 64 cores");
  noc.validate();
  dram.validate();
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config),
      line_shift_(floor_log2(config.l1_geometry.line_bytes)),
      l2_(config.l2_geometry, ReplacementPolicy::kLru, 0),
      l2_sched_(config.l2_banks, config.l2_ports_per_bank),
      l2_mshr_(config.l2_mshr_entries),
      noc_([&] {
        NocConfig n = config.noc;
        n.nodes = std::max(n.nodes, config.cores);
        return n;
      }()),
      dram_(config.dram) {
  config_.validate();
  if (config_.coherence) directory_.emplace(config_.cores);
  prefetched_pending_.resize(config_.cores);
  prefetchers_.reserve(config_.cores);
  for (std::uint32_t c = 0; c < config_.cores; ++c)
    prefetchers_.emplace_back(config_.l1_prefetch);
  l1_.reserve(config_.cores);
  l1_sched_.reserve(config_.cores);
  l1_mshr_.reserve(config_.cores);
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    // Distinct victim streams per array (L2 holds stream 0) so a future
    // kRandom hierarchy never replays correlated victim sequences.
    l1_.emplace_back(config_.l1_geometry, ReplacementPolicy::kLru, c + 1);
    l1_sched_.emplace_back(config_.l1_banks, config_.l1_ports_per_bank);
    l1_mshr_.emplace_back(config_.l1_mshr_entries);
  }
}

AccessOutcome MemoryHierarchy::access(std::uint32_t core, std::uint64_t address, bool is_write,
                                      std::uint64_t cycle) {
  C2B_REQUIRE(core < config_.cores, "core id out of range");
  const std::uint64_t line = address >> line_shift_;
  const std::uint32_t slice = noc_.slice_of(line);
  const std::uint32_t core_node = core;  // cores occupy the first mesh nodes

  AccessOutcome outcome;
  outcome.hit_cycles = config_.l1_hit_latency;
  outcome.start_cycle = l1_sched_[core].schedule(line, cycle);
  const std::uint64_t lookup_done = outcome.start_cycle + config_.l1_hit_latency;

  // L2 fill that retires dirty victims to DRAM as write traffic (off the
  // load critical path, but occupying banks and bus like any burst).
  auto fill_l2 = [&](std::uint64_t fill_address, bool dirty, std::uint64_t at_cycle) {
    const auto victim = l2_.fill(fill_address, dirty);
    if (victim.has_value()) {
      ++l2_evictions_;
      if (victim->dirty) {
        dram_.access(victim->address >> line_shift_, at_cycle);
        ++l2_writebacks_;
      }
    }
  };

  // Invalidate the other cores' L1 copies named by `mask` and return the
  // worst-case directory fan-out delay (slice -> victim -> ack).
  auto fan_out_invalidations = [&](std::uint64_t mask) -> std::uint64_t {
    std::uint64_t worst = 0;
    for (std::uint32_t victim = 0; mask != 0; ++victim, mask >>= 1) {
      if ((mask & 1) == 0) continue;
      l1_[victim].invalidate(address);
      worst = std::max(worst, 2 * noc_.latency(slice, victim));
    }
    return worst;
  };

  if (config_.perfect_memory || l1_[core].probe(address, is_write)) {
    outcome.completion_cycle = lookup_done;
    outcome.level = ServiceLevel::kL1;
    if (!prefetched_pending_[core].empty() && prefetched_pending_[core].erase(line) > 0)
      ++prefetch_useful_;
    if (directory_ && !config_.perfect_memory) {
      if (is_write) {
        // Write hit: if anyone else holds the line, this is an S->M upgrade
        // through the home slice — a coherence stall, not a plain hit.
        const Directory::WriteOutcome w = directory_->on_write(core, line);
        if (w.invalidated_mask != 0 || w.owner_transfer) {
          const std::uint64_t fan_out = fan_out_invalidations(w.invalidated_mask);
          const std::uint64_t upgrade =
              noc_.latency(core_node, slice) * 2 + fan_out;
          outcome.completion_cycle = lookup_done + upgrade;
          outcome.miss_penalty_cycles = static_cast<std::uint32_t>(upgrade);
          outcome.level = ServiceLevel::kL2;
        }
      } else {
        directory_->on_read(core, line);  // bookkeeping; already a sharer
      }
    }
    apc_l1_.add_interval(outcome.start_cycle, outcome.completion_cycle);
    return outcome;
  }

  // ---- L1 miss: allocate/merge an MSHR ----
  const MshrFile::Grant grant = l1_mshr_[core].request(line, lookup_done);
  mshr_occupancy_.record(static_cast<double>(l1_mshr_[core].in_flight()));
  if (grant.merged && grant.merged_completion > lookup_done) {
    outcome.completion_cycle = grant.merged_completion;
    outcome.level = ServiceLevel::kL2;  // rides the primary miss
    outcome.miss_penalty_cycles =
        static_cast<std::uint32_t>(outcome.completion_cycle - lookup_done);
    if (directory_) {
      if (is_write) {
        fan_out_invalidations(directory_->on_write(core, line).invalidated_mask);
      } else {
        directory_->on_read(core, line);
      }
    }
    apc_l1_.add_interval(outcome.start_cycle, outcome.completion_cycle);
    return outcome;
  }
  const std::uint64_t service_start = grant.merged ? lookup_done : grant.start_cycle;

  // ---- Travel to the line's home L2 slice ----
  // round_trip() books the traffic and returns twice the one-way latency
  // at the load before this message.
  const std::uint64_t to_slice = noc_.round_trip(core_node, slice) / 2;
  const std::uint64_t from_slice = to_slice;  // symmetric route
  noc_round_trip_.record(static_cast<double>(2 * to_slice));

  const std::uint64_t l2_arrival = service_start + to_slice;
  const std::uint64_t l2_start = l2_sched_.schedule(line, l2_arrival);
  const std::uint64_t l2_done = l2_start + config_.l2_hit_latency;
  ++l2_accesses_;

  // Coherence action at the home slice: a remote M copy is fetched from its
  // owner (cache-to-cache forward + implicit writeback into L2); a write
  // additionally invalidates every other sharer.
  std::uint64_t coherence_delay = 0;
  if (directory_) {
    if (is_write) {
      const Directory::WriteOutcome w = directory_->on_write(core, line);
      coherence_delay = fan_out_invalidations(w.invalidated_mask);
      if (w.owner_transfer) {
        coherence_delay =
            std::max(coherence_delay, 2 * noc_.latency(slice, w.previous_owner));
        fill_l2(address, true, l2_start);  // the dirty data lands in L2
      }
    } else {
      const Directory::ReadOutcome r = directory_->on_read(core, line);
      if (r.owner_transfer) {
        coherence_delay = 2 * noc_.latency(slice, r.previous_owner);
        fill_l2(address, true, l2_start);  // owner's writeback makes L2 current
      }
    }
  }

  std::uint64_t data_at_slice;
  if (l2_.probe(address)) {
    data_at_slice = l2_done + coherence_delay;
    outcome.level = ServiceLevel::kL2;
    apc_l2_.add_interval(l2_start, data_at_slice);
  } else {
    ++l2_misses_;
    outcome.level = ServiceLevel::kMemory;
    const MshrFile::Grant l2_grant = l2_mshr_.request(line, l2_done);
    if (l2_grant.merged && l2_grant.merged_completion > l2_done) {
      data_at_slice = l2_grant.merged_completion;
    } else {
      const std::uint64_t dram_arrival = l2_grant.merged ? l2_done : l2_grant.start_cycle;
      data_at_slice = dram_.access(line, dram_arrival);
      apc_mem_.add_interval(dram_arrival, data_at_slice);
      l2_mshr_.complete(line, data_at_slice);
    }
    data_at_slice += coherence_delay;
    fill_l2(address, false, data_at_slice);
    apc_l2_.add_interval(l2_start, data_at_slice);
  }

  outcome.completion_cycle = data_at_slice + from_slice;
  const auto evicted = l1_[core].fill(address, is_write);
  if (evicted.has_value()) {
    ++l1_evictions_;
    if (directory_)
      directory_->on_evict(core, evicted->address >> line_shift_);
    if (evicted->dirty) {
      // Write-back to the victim's home L2 slice via the write buffer; it is
      // not on this access's critical path but generates real L2/DRAM traffic.
      fill_l2(evicted->address, true, outcome.completion_cycle);
      ++l1_writebacks_;
    }
  }
  l1_mshr_[core].complete(line, outcome.completion_cycle);
  outcome.miss_penalty_cycles =
      static_cast<std::uint32_t>(outcome.completion_cycle - lookup_done);
  apc_l1_.add_interval(outcome.start_cycle, outcome.completion_cycle);

  if (config_.l1_prefetch.kind != PrefetchKind::kNone) {
    for (const std::uint64_t candidate : prefetchers_[core].on_miss(line))
      issue_prefetch(core, candidate, data_at_slice);
  }
  return outcome;
}

void MemoryHierarchy::issue_prefetch(std::uint32_t core, std::uint64_t line,
                                     std::uint64_t at_cycle) {
  const std::uint64_t address = line << line_shift_;
  if (l1_[core].contains(address)) return;
  // Never prefetch a line another core holds modified: that would force an
  // ownership transfer on speculation.
  if (directory_ && directory_->owner_of(line) != Directory::kNoOwner &&
      directory_->owner_of(line) != core)
    return;

  // Charge the shared resources the speculative fetch occupies.
  const std::uint64_t l2_start = l2_sched_.schedule(line, at_cycle);
  if (!l2_.probe(address)) {
    const std::uint64_t done = dram_.access(line, l2_start + config_.l2_hit_latency);
    const auto victim = l2_.fill(address);
    if (victim.has_value() && victim->dirty) {
      dram_.access(victim->address >> line_shift_, done);
      ++l2_writebacks_;
    }
  }

  const auto evicted = l1_[core].fill(address);
  if (evicted.has_value()) {
    if (directory_)
      directory_->on_evict(core, evicted->address >> line_shift_);
    if (evicted->dirty) {
      const auto victim = l2_.fill(evicted->address, true);
      if (victim.has_value() && victim->dirty) {
        dram_.access(victim->address >> line_shift_, at_cycle);
        ++l2_writebacks_;
      }
      ++l1_writebacks_;
    }
    prefetched_pending_[core].erase(evicted->address >> line_shift_);
  }
  if (directory_) directory_->on_read(core, line);
  prefetched_pending_[core].insert(line);
  ++prefetches_issued_;
}

void MemoryHierarchy::flush_telemetry() const {
  if (!C2B_OBS_ACTIVE()) return;
  // Demand L1 misses are the L1 probe misses (only the demand path
  // probes), and every access() exit adds one apc_l1_ interval, so the
  // rest are hits (all of them under perfect_memory, which skips the
  // probe). Zero tallies are skipped so the registry only names counters
  // some run advanced.
  std::uint64_t l1_misses = 0;
  for (const CacheArray& l1 : l1_) l1_misses += l1.probe_count() - l1.hit_count();
  const std::uint64_t l1_hits = apc_l1_.accesses() - l1_misses;
  if (l1_hits != 0) C2B_COUNTER_ADD("sim.l1.hit", l1_hits);
  if (l1_misses != 0) C2B_COUNTER_ADD("sim.l1.miss", l1_misses);
  if (l1_evictions_ != 0) C2B_COUNTER_ADD("sim.l1.evictions", l1_evictions_);
  if (l2_accesses_ != l2_misses_) C2B_COUNTER_ADD("sim.l2.hit", l2_accesses_ - l2_misses_);
  if (l2_misses_ != 0) C2B_COUNTER_ADD("sim.l2.miss", l2_misses_);
  if (l2_evictions_ != 0) C2B_COUNTER_ADD("sim.l2.evictions", l2_evictions_);
  C2B_HISTOGRAM_MERGE("sim.l1.mshr_occupancy", mshr_occupancy_);
  C2B_HISTOGRAM_MERGE("sim.noc.round_trip_cycles", noc_round_trip_);
  dram_.flush_telemetry();
}

HierarchyStats MemoryHierarchy::stats() const {
  HierarchyStats s;
  std::uint64_t probes = 0, hits = 0, merges = 0, full_stalls = 0;
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    probes += l1_[c].probe_count();
    hits += l1_[c].hit_count();
    merges += l1_mshr_[c].merge_count();
    full_stalls += l1_mshr_[c].full_stall_events();
  }
  s.l1_accesses = probes;
  s.l1_miss_ratio =
      probes == 0 ? 0.0 : 1.0 - static_cast<double>(hits) / static_cast<double>(probes);
  s.l2_accesses = l2_accesses_;
  s.l2_miss_ratio = l2_accesses_ == 0 ? 0.0
                                      : static_cast<double>(l2_misses_) /
                                            static_cast<double>(l2_accesses_);
  s.dram_accesses = dram_.stats().accesses;
  s.dram_row_hit_ratio = dram_.stats().row_hit_ratio();
  s.dram_average_latency = dram_.stats().average_latency();
  s.apc_l1 = apc_l1_.apc();
  s.apc_l2 = apc_l2_.apc();
  s.apc_mem = apc_mem_.apc();
  s.l1_mshr_merges = merges;
  s.l1_mshr_full_stalls = full_stalls;
  s.l1_writebacks = l1_writebacks_;
  s.l2_writebacks = l2_writebacks_;
  s.prefetches_issued = prefetches_issued_;
  s.prefetch_useful_hits = prefetch_useful_;
  s.prefetch_accuracy =
      prefetches_issued_ == 0
          ? 0.0
          : static_cast<double>(prefetch_useful_) / static_cast<double>(prefetches_issued_);
  s.noc_average_hops = noc_.average_hops();
  if (directory_) {
    s.coherence_invalidations = directory_->invalidations_sent();
    s.coherence_owner_transfers = directory_->ownership_transfers();
    s.coherence_upgrades = directory_->upgrade_requests();
  }
  return s;
}

}  // namespace c2b::sim
