#pragma once

// Immutable, shared trace store for batched replay.
//
// Within one DSE/APS trace-equivalence class every member consumes
// bit-identical record streams (same workload/seed/footprint/window); only
// the simulated hardware differs. TraceChunkStore generates each such
// stream exactly once, in full, when the stream is added, and never writes
// it again: any number of ChunkCursor readers, on any number of threads,
// read the same records concurrently. A store therefore holds every record
// of every stream it was given (~20 B each: the 16-B record plus its
// compute-run entry).
//
// Each stream carries a precomputed compute-run table (SoA sidecar): entry
// i is the length of the run of consecutive kCompute records starting at
// i, capped at the end of i's chunk. That keeps ChunkCursor::compute_run()
// O(1) per call and, because the cap is a *lower bound* on the true run
// length, the kernel's compute fast path stays correct (TraceCursor
// contract). The chunk size only sets that cap, and the batched kernel's
// lockstep round (batched.cpp) reads the same constant.
//
// Add every stream before constructing cursors, on one thread; after that
// the store is read-only.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "c2b/common/assert.h"
#include "c2b/trace/trace.h"
#include "c2b/trace/cursor.h"

namespace c2b {

/// What a store generated (used for the exec.batch.* telemetry and for tests).
struct ChunkStoreStats {
  std::uint64_t chunks_generated = 0;     ///< chunks produced across all streams
  std::uint64_t records_generated = 0;    ///< records produced across all streams
  std::uint64_t accesses_generated = 0;   ///< the load/store subset of records_generated
};

class ChunkCursor;

class TraceChunkStore {
 public:
  /// Records per chunk: the compute-run cap and the kernel's lockstep round.
  static constexpr std::size_t kChunkRecords = 4096;

  TraceChunkStore() = default;
  TraceChunkStore(const TraceChunkStore&) = delete;
  TraceChunkStore& operator=(const TraceChunkStore&) = delete;

  /// Generate a stream: exactly the first `count` records of
  /// `generator->next()` after a TraceGenerator::reset() (bit-identical to
  /// TraceGenerator::generate(count)). The generator is dropped once the
  /// stream is complete. Returns the stream id.
  std::size_t add_stream(std::unique_ptr<TraceGenerator> generator, std::uint64_t count);

  std::size_t stream_count() const noexcept { return streams_.size(); }

  const ChunkStoreStats& stats() const noexcept { return stats_; }

 private:
  friend class ChunkCursor;

  struct Stream {
    std::vector<TraceRecord> records;
    /// compute_run[i] = consecutive kCompute records starting at i, capped
    /// at the end of i's chunk (a valid lower bound for
    /// TraceCursor::compute_run).
    std::vector<std::uint32_t> compute_run;
  };

  std::vector<Stream> streams_;
  ChunkStoreStats stats_;
};

/// TraceCursor over one store stream. Any number of ChunkCursors, on any
/// threads, may read the same stream: a cursor only moves its own offset.
/// A cursor points into the store, so the store must outlive it.
class ChunkCursor final : public TraceCursor {
 public:
  ChunkCursor(const TraceChunkStore& store, std::size_t stream);

  const TraceRecord* peek() override { return offset_ < total_ ? records_ + offset_ : nullptr; }
  void advance() override { ++offset_; }
  std::size_t compute_run(std::size_t limit) override {
    if (offset_ >= total_) return 0;
    return std::min<std::size_t>(limit, runs_[offset_]);
  }
  void skip(std::size_t count) override {
    C2B_ASSERT(count <= total_ - offset_, "skip past end of stream");
    offset_ += count;
  }

 private:
  const TraceRecord* records_;
  const std::uint32_t* runs_;
  std::uint64_t total_;
  std::uint64_t offset_ = 0;
};

}  // namespace c2b
