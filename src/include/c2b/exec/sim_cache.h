#pragma once

// Memoized simulation results. simulate_design_time() is a pure function
// of (simulator configuration, workload identity, seed, simulation
// windows): overlapping APS neighborhoods, the full-DSE ground truth, and
// repeated bench sweeps keep asking for the same designs, so the answers
// are cached process-wide — and, with a disk tier attached, across
// process restarts.
//
// Keys are canonical strings spelling out every field the result depends
// on (built by the caller — see simulation_cache_key in aps/dse.cpp).
// Exact string equality decides a hit, so hash collisions can never
// return a wrong result, and a cached value is the bit-identical double
// the simulation produced — memoization preserves the determinism
// contract of the parallel sweeps whichever tier serves it.
//
// Two tiers. Tier 1 is the sharded in-memory table: each shard holds a
// mutex, a map, and a second-chance (clock) eviction queue — a hit sets
// the entry's referenced bit, and an entry reaching the clock hand with
// the bit set is granted another cycle instead of being evicted, so hot
// keys survive sweeps that stream past the capacity. Tier 2 (optional,
// attach_disk_tier / C2B_SIM_CACHE_DIR) is an append-only checksummed
// on-disk store (disk_tier.h); misses fall through memory → disk →
// simulate, and a disk hit is promoted into the memory tier. clear()
// resets only the memory tier and the counters — the disk tier is the
// cross-run layer and survives.
//
// Thread safety: shard mutexes for the memory tier, the disk tier locks
// internally; two threads computing the same key concurrently both
// simulate and insert, the values are identical, so last-write-wins is
// harmless. Telemetry: exec.simcache.{hit,miss,evict,entries} for the
// memory tier, exec.simcache.disk.{hit,miss,drop,flush,entries} for the
// disk tier.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace c2b::exec {

struct SimCacheStats {
  std::uint64_t hits = 0;        ///< served from the memory tier
  std::uint64_t misses = 0;      ///< missed every attached tier
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  // Disk tier (all zero when none is attached).
  std::uint64_t disk_hits = 0;    ///< memory misses served from disk
  std::uint64_t disk_misses = 0;  ///< probes that reached disk and missed
  std::uint64_t disk_drops = 0;   ///< corrupt/stale/overflowed records skipped
  std::uint64_t disk_flushes = 0; ///< write-behind flush rounds
  std::size_t disk_entries = 0;
};

class SimCache {
 public:
  /// What one simulate_design_time call produced.
  struct Value {
    double time = 0.0;
    std::uint64_t memory_accesses = 0;
  };

  /// capacity = max cached entries across all shards; once a shard fills
  /// its share the clock hand evicts the first entry not referenced since
  /// its last pass.
  explicit SimCache(std::size_t capacity = 1 << 16);
  ~SimCache();
  SimCache(const SimCache&) = delete;
  SimCache& operator=(const SimCache&) = delete;

  /// nullopt on miss (counts the miss); the hit/miss telemetry lives here
  /// so callers stay one-liners. A memory miss probes the disk tier when
  /// one is attached and promotes a disk hit into the memory tier.
  std::optional<Value> find(const std::string& key);

  /// Bulk probe for batched sweeps, mirroring insert_many: keys are
  /// grouped by shard so each shard's mutex is taken once per call, and
  /// residual misses probe the disk tier under one index lock. out[i]
  /// corresponds to keys[i]; empty keys are never probed and return
  /// nullopt without counting. Equivalent to find() per key in order.
  /// `disk_hits`, when non-null, receives how many of this call's results
  /// were served from the disk tier (exact per-call attribution, immune to
  /// concurrent callers moving the global counters).
  std::vector<std::optional<Value>> find_many(const std::vector<std::string>& keys,
                                              std::uint64_t* disk_hits = nullptr);

  void insert(const std::string& key, const Value& value);

  /// Bulk insert for batched sweeps: groups the entries by shard so each
  /// shard's mutex is taken once per call instead of once per entry.
  /// Equivalent to insert() per pair in order.
  void insert_many(const std::vector<std::pair<std::string, Value>>& entries);

  /// Runtime switch, on by default; the oracles turn it off for their
  /// cache-off reference runs. When disabled, find() always misses without
  /// counting and insert() drops.
  bool enabled() const noexcept;
  void set_enabled(bool on) noexcept;

  /// Attaches an on-disk second tier rooted at `dir` (created if needed),
  /// recovering every intact record it already holds. Returns false when
  /// the directory cannot be opened — the cache then simply has no disk
  /// tier, it never errors. Replaces any previously attached tier
  /// (flushing it first). Not safe to call while sweeps are in flight.
  bool attach_disk_tier(const std::string& dir);

  /// Flushes and closes the disk tier; the memory tier is untouched.
  void detach_disk_tier();
  bool has_disk_tier() const;

  /// Synchronously drains pending disk writes (no-op without a tier).
  void flush_disk();

  /// Drops every memory-tier entry and resets the hit/miss/eviction
  /// counters, so a fresh measurement window starts from zero. The disk
  /// tier — the cross-run layer — is deliberately untouched: detach it
  /// (or point it elsewhere) to emulate a truly cold start.
  void clear();
  SimCacheStats stats() const;

  /// Process-wide instance used by simulate_design_time. On first use,
  /// attaches a disk tier at $C2B_SIM_CACHE_DIR when that is set and
  /// non-empty.
  static SimCache& global();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace c2b::exec
