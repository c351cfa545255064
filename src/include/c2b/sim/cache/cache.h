#pragma once

// Set-associative cache tag array with selectable replacement policy
// (true-LRU, tree-PLRU, random), dirty-line tracking for write-back
// traffic, plus the structures that give a modern cache its *concurrency*:
// banked/ported access scheduling (hit concurrency, C_H) and miss status
// holding registers (miss concurrency, C_M). This is the simulator's
// substitute for the cache models of GEM5 — deliberately detailed exactly
// where C-AMAT is sensitive.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "c2b/common/assert.h"
#include "c2b/common/math_util.h"

namespace c2b::sim {

enum class ReplacementPolicy : std::uint8_t {
  kLru,       ///< true LRU (per-way timestamps)
  kTreePlru,  ///< tree pseudo-LRU (requires power-of-two associativity)
  kRandom,    ///< xorshift victim selection (deterministic per array)
};

struct CacheGeometry {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 8;

  std::uint64_t lines() const { return size_bytes / line_bytes; }
  std::uint64_t sets() const { return lines() / associativity; }
  void validate() const;
};

/// Tag array: probe/fill under the configured replacement policy.
/// Addresses are byte addresses; set indexing uses the line number's low
/// bits.
///
/// The ways are stored struct-of-arrays, slot = set * associativity + way:
/// `keys_` holds line number + 1 (0 marks an invalid way), `used_` the LRU
/// stamps (kLru only) and `dirty_` one byte each — 17 B per slot, so an
/// 8-way set's keys fill one 64-byte host cache line. A resident line's
/// key identifies it exactly (within a set, the line number and the tag
/// determine each other), and the line shift and set map are precomputed
/// (FixedDivisor), so a lookup neither divides nor reads a way's payload.
class CacheArray {
 public:
  /// `victim_stream` seeds the kRandom xorshift state per instance (via
  /// Rng::derive_stream_seed), so arrays in a multi-cache configuration
  /// replay decorrelated victim streams while staying deterministic for a
  /// given (geometry, policy, stream) triple.
  explicit CacheArray(const CacheGeometry& geometry,
                      ReplacementPolicy policy = ReplacementPolicy::kLru,
                      std::uint64_t victim_stream = 0);

  /// Probe for the line containing `byte_address`; on hit the recency state
  /// updates and, if `mark_dirty`, the line becomes dirty. True on hit.
  bool probe(std::uint64_t byte_address, bool mark_dirty = false);

  /// Probe without updating recency (for inspection/tests).
  bool contains(std::uint64_t byte_address) const;
  /// Dirty state of a resident line (false if absent).
  bool is_dirty(std::uint64_t byte_address) const;

  struct Evicted {
    std::uint64_t address = 0;  ///< line-aligned byte address
    bool dirty = false;         ///< needs write-back
  };

  /// Insert the line (most-recently-used); returns the displaced victim if
  /// a valid line was evicted. `dirty` marks the incoming line (write
  /// allocate).
  std::optional<Evicted> fill(std::uint64_t byte_address, bool dirty = false);

  /// Invalidate a line if present (coherence). The dirty payload, if any,
  /// is the caller's problem (the directory models the forward).
  bool invalidate(std::uint64_t byte_address);

  const CacheGeometry& geometry() const noexcept { return geometry_; }
  ReplacementPolicy policy() const noexcept { return policy_; }

  std::uint64_t probe_count() const noexcept { return probes_; }
  std::uint64_t hit_count() const noexcept { return hits_; }
  std::uint64_t dirty_evictions() const noexcept { return dirty_evictions_; }
  double miss_ratio() const noexcept {
    return probes_ == 0 ? 0.0 : 1.0 - static_cast<double>(hits_) / static_cast<double>(probes_);
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::uint64_t line_of(std::uint64_t byte_address) const { return byte_address >> line_shift_; }
  std::size_t set_of(std::uint64_t line) const { return sets_.mod(line); }
  /// Stored key of `line`.
  static std::uint64_t key_of(std::uint64_t line) {
    // line + 1 wraps only for address 2^64-1 in a 1-byte-line cache.
    C2B_REQUIRE(line != ~std::uint64_t{0}, "address 2^64-1 has no key in a 1-byte-line cache");
    return line + 1;
  }

  /// Slot holding `key` in `set`, or kAbsent.
  std::size_t find_slot(std::size_t set, std::uint64_t key) const {
    const std::size_t base = set * assoc_;
    const std::uint64_t* keys = keys_.data() + base;
    for (std::uint32_t i = 0; i < assoc_; ++i)
      if (keys[i] == key) return base + i;
    return kAbsent;
  }
  std::size_t find_slot(std::uint64_t byte_address) const {
    const std::uint64_t line = line_of(byte_address);
    return find_slot(set_of(line), key_of(line));
  }
  /// Victim way index within a set per the policy (prefers invalid ways).
  std::uint32_t pick_victim(std::size_t set);
  /// Policy bookkeeping on a touch of way `way` in `set`.
  void note_use(std::size_t set, std::uint32_t way);

  CacheGeometry geometry_;
  ReplacementPolicy policy_;
  unsigned line_shift_;           ///< log2(line_bytes)
  std::uint32_t assoc_;           ///< geometry_.associativity
  FixedDivisor sets_;             ///< set map: set = line % sets
  std::vector<std::uint64_t> keys_;  ///< line + 1 per slot, 0 = invalid
  std::vector<std::uint64_t> used_;  ///< LRU stamp per slot (kLru only)
  std::vector<std::uint8_t> dirty_;  ///< dirty flag per slot
  std::vector<std::uint64_t> plru_;  ///< per-set PLRU bit tree (bit i = node i)
  std::uint64_t clock_ = 0;   ///< LRU timestamp source
  std::uint64_t rng_state_;   ///< xorshift for kRandom, stream-seeded per instance
  std::uint64_t probes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

/// Multi-bank, multi-port cycle scheduler: up to `ports` accesses per bank
/// per cycle; excess requests slip to the next cycle. This is the hardware
/// feature that makes C_H > 1 possible while still being finite.
class BankPortScheduler {
 public:
  BankPortScheduler(std::uint32_t banks, std::uint32_t ports_per_bank);

  /// Reserve a slot on the bank serving `line` at or after `earliest`;
  /// returns the cycle in which the access starts.
  std::uint64_t schedule(std::uint64_t line, std::uint64_t earliest);

  std::uint32_t banks() const noexcept { return static_cast<std::uint32_t>(state_.size()); }
  /// Total cycles requests spent waiting for a port (contention measure).
  std::uint64_t contention_cycles() const noexcept { return contention_cycles_; }

 private:
  struct BankState {
    std::uint64_t cycle = 0;   ///< cycle the port counter refers to
    std::uint32_t used = 0;    ///< ports consumed in that cycle
  };
  std::vector<BankState> state_;
  FixedDivisor bank_of_;  ///< bank = line % banks
  std::uint32_t ports_;
  std::uint64_t contention_cycles_ = 0;
};

/// Miss status holding registers: bound the number of outstanding misses
/// (non-blocking cache). Secondary misses to an in-flight line merge.
class MshrFile {
 public:
  explicit MshrFile(std::uint32_t entries);

  struct Grant {
    std::uint64_t start_cycle = 0;  ///< when the miss can begin service
    bool merged = false;            ///< piggybacked on an in-flight miss
    std::uint64_t merged_completion = 0;  ///< valid when merged
  };

  /// Request an entry for a miss to `line` observed at `cycle`. If the line
  /// is already in flight the request merges and completes with the primary
  /// miss. If the file is full, service is delayed until the earliest entry
  /// retires.
  Grant request(std::uint64_t line, std::uint64_t cycle);

  /// Record the primary miss's completion cycle (fills the entry's slot
  /// until then).
  void complete(std::uint64_t line, std::uint64_t completion_cycle);

  std::uint32_t capacity() const noexcept { return capacity_; }
  std::uint64_t full_stall_events() const noexcept { return full_stalls_; }
  std::uint64_t merge_count() const noexcept { return merges_; }
  /// Entries currently tracking an outstanding miss (occupancy telemetry).
  std::size_t in_flight() const noexcept { return entries_.size(); }

 private:
  void retire_before(std::uint64_t cycle);

  struct Entry {
    std::uint64_t line = 0;
    std::uint64_t completion = 0;  ///< 0 while unknown (service in progress)
  };
  std::vector<Entry> entries_;  ///< live entries, allocation order (small)
  std::uint32_t capacity_;
  /// Earliest known completion across entries_ (0 when none is known),
  /// maintained incrementally so the hot path can prove retire_before() is
  /// a no-op — and skip its scan — without touching the entries.
  std::uint64_t earliest_completion_ = 0;
  std::uint64_t full_stalls_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace c2b::sim
