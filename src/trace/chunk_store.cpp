#include "c2b/trace/chunk_store.h"

#include "c2b/common/assert.h"

namespace c2b {

std::size_t TraceChunkStore::add_stream(std::unique_ptr<TraceGenerator> generator,
                                        std::uint64_t count) {
  C2B_REQUIRE(generator != nullptr, "generator must not be null");
  C2B_REQUIRE(count > 0, "stream must hold at least one record");
  generator->reset();
  const auto n = static_cast<std::size_t>(count);
  Stream s;
  s.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.records.push_back(generator->next());
    if (s.records.back().kind != InstrKind::kCompute) ++stats_.accesses_generated;
  }
  // Backward sweep fills the run-length table in one pass: a kCompute entry
  // extends the run that starts right after it, unless a chunk starts
  // there; anything else resets to 0.
  s.compute_run.assign(n, 0);
  for (std::size_t i = n; i-- > 0;) {
    if (s.records[i].kind != InstrKind::kCompute) continue;
    const bool run_continues = i + 1 < n && (i + 1) % kChunkRecords != 0;
    s.compute_run[i] = 1 + (run_continues ? s.compute_run[i + 1] : 0);
  }
  stats_.chunks_generated += (n + kChunkRecords - 1) / kChunkRecords;
  stats_.records_generated += n;
  streams_.push_back(std::move(s));
  return streams_.size() - 1;
}

ChunkCursor::ChunkCursor(const TraceChunkStore& store, std::size_t stream)
    : records_(store.streams_.at(stream).records.data()),
      runs_(store.streams_[stream].compute_run.data()),
      total_(store.streams_[stream].records.size()) {}

}  // namespace c2b
