#pragma once

// Trace replay cursors. The simulator's issue loop consumes instructions
// strictly in program order, one at a time, and only ever needs to look at
// the *next* record — so a pull cursor with peek/advance semantics is
// enough to drive it. There is one cursor per real input: design replay
// reads ChunkCursors over an immutable TraceChunkStore (chunk_store.h), and
// materialized traces (simulate_system, characterization) are read through
// VectorTraceCursor. The contract the kernel relies on:
//
//  * peek() returns the next unconsumed record (stable until advance())
//    or nullptr once the stream is exhausted;
//  * advance() consumes exactly the record peek() returned;
//  * compute_run(limit) counts consecutive kCompute records starting at
//    the cursor without consuming them — it may return fewer than the
//    true run length (a cursor may cap it at a chunk boundary), never
//    more, so the kernel's compute fast path stays correct;
//  * skip(count) consumes `count` records (the caller must know they
//    exist, e.g. from compute_run).

#include <cstddef>
#include <vector>

#include "c2b/trace/trace.h"

namespace c2b {

class TraceCursor {
 public:
  virtual ~TraceCursor() = default;

  /// Next unconsumed record, or nullptr at end of stream. The pointer is
  /// valid until the next advance()/skip() call.
  virtual const TraceRecord* peek() = 0;

  /// Consume the record peek() returned. Precondition: peek() != nullptr.
  virtual void advance() = 0;

  /// Length of the run of consecutive kCompute records starting at the
  /// cursor, capped at `limit` (and possibly at a chunk boundary: a lower
  /// bound on the true run length). Does not consume.
  virtual std::size_t compute_run(std::size_t limit) = 0;

  /// Consume `count` records. Precondition: the stream holds at least
  /// `count` more records.
  virtual void skip(std::size_t count) = 0;
};

/// Cursor over an already-materialized trace (not owned).
class VectorTraceCursor final : public TraceCursor {
 public:
  explicit VectorTraceCursor(const Trace& trace) : records_(&trace.records) {}
  explicit VectorTraceCursor(const std::vector<TraceRecord>& records) : records_(&records) {}

  const TraceRecord* peek() override {
    return pos_ < records_->size() ? records_->data() + pos_ : nullptr;
  }
  void advance() override { ++pos_; }
  std::size_t compute_run(std::size_t limit) override {
    std::size_t run = 0;
    const std::size_t end = records_->size();
    for (std::size_t i = pos_; i < end && run < limit; ++i, ++run)
      if ((*records_)[i].kind != InstrKind::kCompute) break;
    return run;
  }
  void skip(std::size_t count) override { pos_ += count; }

 private:
  const std::vector<TraceRecord>* records_;
  std::size_t pos_ = 0;
};

}  // namespace c2b
