#pragma once

// On-disk second tier for SimCache: a content-addressed, append-only
// result store that survives process restarts, so repeated sweeps
// warm-start across invocations instead of resimulating.
//
// Layout: the cache directory holds a fixed set of segment files
// (seg-00.c2b .. seg-NN.c2b); a record's segment is chosen by hashing its
// key, so concurrent flushes append to independent files and startup
// recovery can stream each segment independently. Records are
// self-delimiting and individually checksummed (FNV-1a64, the trace-v2
// discipline): a torn tail from a crash mid-append, a flipped bit, or a
// record written by an older schema is skipped and counted as a drop —
// never an error, never a wrong value. The store degrades to "cold" under
// any corruption because a dropped record is indistinguishable from one
// that was never written.
//
// Write path: enqueue() registers the record in the in-memory index
// immediately (so later probes hit) and hands the bytes to a write-behind
// flusher thread; the hot path never touches the filesystem. The pending
// queue is bounded — when it is full the record is dropped from the disk
// queue (counted, like journal-line drops) but stays in the index, so the
// only cost of overload is a recompute after the next restart.
//
// Keys already canonically spell out every field a result depends on
// (simulation_cache_key in aps/dse.cpp, including WorkloadSpec::uid); the
// record header additionally carries kSimCacheSchemaVersion so entries
// written before a Value-layout or key-grammar change self-invalidate.
//
// Side files. Values too large to hold in the index (the surrogate's MLP
// fits, up to ~120 KB each, read at most once per round) live one file
// per key next to the segments, as blob-<digest>.c2b: [magic "C2BF"]
// [u64 key_len][u64 payload_len][key bytes][payload bytes][u64 FNV-1a64
// of all prior bytes]. The digest of the key only names the file; a read compares the
// stored key byte for byte, so a digest collision or a file written for
// another key is a counted drop, never a wrong value. A write goes to a
// unique temporary name and is renamed into place, so concurrent writers
// and readers of one file (threads or processes sharing the directory)
// see a whole file or none. Side files are read on demand, never at
// open(), and are outside the segment format and kSimCacheSchemaVersion.
//
// Telemetry: exec.simcache.disk.{drop,flush} counters and
// exec.simcache.disk.entries gauge live here; exec.simcache.disk.{hit,miss}
// are counted by SimCache, which owns the probe.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "c2b/exec/sim_cache.h"

namespace c2b::exec {

/// Bump when SimCache::Value's layout or the cache-key grammar changes:
/// records stamped with an older version are dropped at load.
inline constexpr std::uint32_t kSimCacheSchemaVersion = 1;

struct DiskTierStats {
  std::size_t entries = 0;        ///< keys in the in-memory index
  std::uint64_t loaded = 0;       ///< records recovered at open()
  std::uint64_t appended = 0;     ///< records written since open()
  std::uint64_t drops = 0;        ///< corrupt/stale records skipped + queue overflows
  std::uint64_t flushes = 0;      ///< write-behind flush rounds
};

class DiskTier {
 public:
  struct Options {
    std::size_t segment_count = 8;    ///< append-only segment files in the dir
    std::size_t queue_limit = 8192;   ///< bounded write-behind queue (records)
  };

  /// Opens (creating if needed) a cache directory and recovers every intact
  /// record from its segments — torn tails, bit flips, and version-mismatched
  /// records are skipped with counted drops. Returns nullptr when the
  /// directory cannot be created or opened; callers treat that as "no disk
  /// tier" and fall through to simulation.
  static std::unique_ptr<DiskTier> open(const std::string& dir, Options options);
  static std::unique_ptr<DiskTier> open(const std::string& dir);

  /// Drains the pending queue and joins the flusher.
  ~DiskTier();
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// The probe, called by SimCache::find_many for its memory misses: looks
  /// up keys[i] for each i in `indices` under one index-lock acquisition,
  /// fills out[i] for every key found (other slots are left untouched), and
  /// adds the found/missed tallies.
  void find_many(const std::vector<std::string>& keys, const std::vector<std::size_t>& indices,
                 std::vector<std::optional<SimCache::Value>>& out,
                 std::uint64_t& found, std::uint64_t& missed) const;

  /// Registers the record in the index and schedules its append. A key
  /// already present (recovered or previously enqueued) is not re-appended,
  /// so warm reruns do not grow the segments.
  void enqueue(const std::string& key, const SimCache::Value& value);

  /// Synchronously drains the pending queue to the segment files.
  void flush();

  /// The side file for `key`: its payload when the file is intact and
  /// stores exactly this key; `dropped` when a file is there but torn,
  /// corrupt, or written for another key; neither when there is no file.
  BlobLookup read_blob(const std::string& key) const;
  /// Writes `payload` as the side file for `key`: to a unique temporary
  /// name first, then renamed over blob_name(key). A failed write leaves no
  /// partial file and is otherwise ignored (the next run recomputes).
  void write_blob(const std::string& key, const std::string& payload);

  DiskTierStats stats() const;
  std::size_t entries() const;

  /// Segment file name for slot `index` ("seg-03.c2b") — exposed so tests
  /// and tools can locate segments for corruption fuzzing.
  static std::string segment_name(std::size_t index);
  /// Side-file name for `key` ("blob-<16 hex digits of its FNV-1a64>.c2b").
  static std::string blob_name(const std::string& key);

 private:
  DiskTier();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace c2b::exec
