#pragma once

// Memoized simulation results. A design's simulated time (what
// simulate_design_times_batched returns per point) is a pure function of
// (simulator configuration, workload identity, seed, simulation windows):
// overlapping APS neighborhoods, the full-DSE ground truth, and repeated
// bench sweeps keep asking for the same designs, so the answers are cached
// process-wide — and, with a disk tier attached, across process restarts.
// The API is bulk-only: find_many is the one probe and insert_many the one
// insert, each taking every shard lock at most once per call; a single
// key is a one-element call.
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

/// One read of a disk-tier side file (DiskTier::read_blob).
struct BlobLookup {
  std::optional<std::string> payload;  ///< the stored value, when the file holds this key intact
  bool dropped = false;  ///< a file was there but torn, corrupt, or written for another key
};

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
  /// One design's simulated outcome (the BatchSimOutcome fields).
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

  /// The probe. out[i] answers keys[i]: the cached value, or nullopt on a
  /// miss. Keys are grouped by shard so each shard's mutex is taken once
  /// per call; memory misses fall through to the disk tier (when one is
  /// attached) under one index lock, and disk hits are promoted into the
  /// memory tier. Every non-empty key counts as exactly one memory hit,
  /// disk hit, or miss — the telemetry lives here so callers stay simple.
  /// Empty keys (uncacheable designs) are never probed and return nullopt
  /// without counting. `disk_hits`, when non-null, receives how many of
  /// this call's results were served from the disk tier (exact per-call
  /// attribution, immune to concurrent callers moving the global counters).
  std::vector<std::optional<Value>> find_many(const std::vector<std::string>& keys,
                                              std::uint64_t* disk_hits = nullptr);

  /// The insert: groups the entries by shard so each shard's mutex is
  /// taken once per call, evicting by second chance as shards fill. A key
  /// already present is overwritten in place (a concurrent recompute
  /// produced the same bits); only newly inserted keys are queued for the
  /// disk tier.
  void insert_many(const std::vector<std::pair<std::string, Value>>& entries);

  /// Runtime switch, on by default; the oracles turn it off for their
  /// cache-off reference runs. When disabled, find_many() always misses
  /// without counting and insert_many() drops.
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

  /// The disk tier's side files (DiskTier::read_blob / write_blob): one
  /// file per key for values too large to index at attach. With the cache
  /// disabled or no disk tier attached, read_blob finds nothing and
  /// write_blob writes nothing; neither touches the filesystem.
  BlobLookup read_blob(const std::string& key) const;
  void write_blob(const std::string& key, const std::string& payload);

  /// Drops every memory-tier entry and resets the hit/miss/eviction
  /// counters, so a fresh measurement window starts from zero. The disk
  /// tier — the cross-run layer — is deliberately untouched: detach it
  /// (or point it elsewhere) to emulate a truly cold start.
  void clear();
  SimCacheStats stats() const;

  /// Process-wide instance used by simulate_design_times_batched. On first use,
  /// attaches a disk tier at $C2B_SIM_CACHE_DIR when that is set and
  /// non-empty.
  static SimCache& global();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace c2b::exec
