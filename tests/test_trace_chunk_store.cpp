#include "c2b/trace/chunk_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "c2b/trace/generators.h"

namespace c2b {
namespace {

ZipfStreamGenerator::Params zipf_params(std::uint64_t seed, double f_mem = 0.4) {
  ZipfStreamGenerator::Params p;
  p.working_set_lines = 1 << 10;
  p.zipf_exponent = 0.9;
  p.f_mem = f_mem;
  p.write_ratio = 0.3;
  p.seed = seed;
  return p;
}

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  return a.kind == b.kind && a.depends_on_prev_mem == b.depends_on_prev_mem &&
         a.address == b.address;
}

/// Every stream below spans several store chunks, so each test crosses
/// chunk edges.
constexpr std::size_t kChunk = TraceChunkStore::kChunkRecords;

std::size_t true_compute_run(const std::vector<TraceRecord>& records, std::size_t pos) {
  std::size_t run = 0;
  while (pos + run < records.size() && records[pos + run].kind == InstrKind::kCompute) ++run;
  return run;
}

TEST(ChunkStore, SingleReaderStreamMatchesMaterializedGenerate) {
  const auto p = zipf_params(41);
  const Trace materialized = ZipfStreamGenerator(p).generate(10'000);
  TraceChunkStore store;
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 10'000);
  ChunkCursor cursor(store, id);
  for (std::size_t i = 0; i < materialized.records.size(); ++i) {
    const TraceRecord* rec = cursor.peek();
    ASSERT_NE(rec, nullptr) << "cursor ended early at record " << i;
    ASSERT_TRUE(records_equal(*rec, materialized.records[i])) << "divergence at record " << i;
    cursor.advance();
  }
  EXPECT_EQ(cursor.peek(), nullptr);
  // 10000 records / 4096-record chunks -> 3 chunks, each generated once.
  EXPECT_EQ(store.stats().chunks_generated, 3u);
  EXPECT_EQ(store.stats().records_generated, 10'000u);
  EXPECT_EQ(store.stats().accesses_generated, materialized.memory_access_count());
}

TEST(ChunkStore, StreamIsGeneratedWhenAddedAndNeverAgain) {
  const auto p = zipf_params(42);
  const std::size_t kRecords = 9'000;
  const Trace materialized = ZipfStreamGenerator(p).generate(kRecords);
  TraceChunkStore store;
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), kRecords);
  // The whole stream exists before anyone reads it.
  const ChunkStoreStats before = store.stats();
  EXPECT_EQ(before.chunks_generated, (kRecords + kChunk - 1) / kChunk);
  EXPECT_EQ(before.records_generated, kRecords);
  EXPECT_EQ(before.accesses_generated, materialized.memory_access_count());

  // Three readers in any interleaving see the same records — the very same
  // memory, not copies — and reading generates nothing.
  ChunkCursor a(store, id), b(store, id), c(store, id);
  std::size_t pa = 0;  // a reads at a third of the others' pace
  for (std::size_t pos = 0; pos < kRecords; ++pos) {
    if (pos % 3 == 0) {
      const TraceRecord* rec = a.peek();
      ASSERT_NE(rec, nullptr);
      ASSERT_TRUE(records_equal(*rec, materialized.records[pa])) << "at record " << pa;
      a.advance();
      ++pa;
    }
    ASSERT_NE(b.peek(), nullptr);
    ASSERT_TRUE(records_equal(*b.peek(), materialized.records[pos])) << "at record " << pos;
    EXPECT_EQ(c.peek(), b.peek());
    b.advance();
    c.advance();
  }
  EXPECT_EQ(b.peek(), nullptr);
  EXPECT_EQ(c.peek(), nullptr);
  EXPECT_NE(a.peek(), nullptr);  // a trails; the records it has yet to read are still there
  EXPECT_EQ(store.stats().chunks_generated, before.chunks_generated);
  EXPECT_EQ(store.stats().records_generated, before.records_generated);
  EXPECT_EQ(store.stats().accesses_generated, before.accesses_generated);
}

TEST(ChunkStore, ManyThreadsReadOneStoreConcurrently) {
  // The batched sweep's sharing shape: one class trace (several streams),
  // many units on pool workers, each with its own cursors over every
  // stream. Every reader must see exactly the materialized records.
  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kRecords = 10'000;
  constexpr std::size_t kThreads = 8;
  TraceChunkStore store;
  std::vector<Trace> materialized;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto p = zipf_params(60 + s, /*f_mem=*/0.3);
    store.add_stream(std::make_unique<ZipfStreamGenerator>(p), kRecords);
    materialized.push_back(ZipfStreamGenerator(p).generate(kRecords));
  }
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t s = 0; s < kStreams; ++s) {
        ChunkCursor cursor(store, (s + t) % kStreams);
        const std::vector<TraceRecord>& truth = materialized[(s + t) % kStreams].records;
        for (std::size_t pos = 0; pos < kRecords; ++pos) {
          // Mix the cursor's calls the way the kernel does.
          if (pos % 7 == 0 && cursor.compute_run(16) > true_compute_run(truth, pos)) ++mismatches[t];
          const TraceRecord* rec = cursor.peek();
          if (rec == nullptr || !records_equal(*rec, truth[pos])) ++mismatches[t];
          cursor.advance();
        }
        if (cursor.peek() != nullptr) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  EXPECT_EQ(store.stats().records_generated, kStreams * kRecords);
}

TEST(ChunkStore, ComputeRunIsLowerBoundAndExactInsideChunks) {
  // Few memory records -> long compute runs, some straddling chunk edges.
  const auto p = zipf_params(43, /*f_mem=*/0.05);
  const std::size_t kRecords = 3 * kChunk + 500;
  const Trace materialized = ZipfStreamGenerator(p).generate(kRecords);
  TraceChunkStore store;
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), kRecords);
  ChunkCursor cursor(store, id);
  std::size_t capped_at_edge = 0;
  for (std::size_t pos = 0; pos < materialized.records.size(); ++pos) {
    const std::size_t run = cursor.compute_run(48);
    const std::size_t truth = true_compute_run(materialized.records, pos);
    ASSERT_LE(run, truth) << "compute_run overcounted at record " << pos;
    // The run is exact up to the caller's limit and the end of the chunk.
    const std::size_t to_boundary = kChunk - (pos % kChunk);
    ASSERT_EQ(run, std::min({truth, to_boundary, std::size_t{48}})) << "at record " << pos;
    if (to_boundary < truth && to_boundary < 48) ++capped_at_edge;
    cursor.advance();
  }
  EXPECT_GT(capped_at_edge, 0u) << "no compute run straddled a chunk edge";
  EXPECT_EQ(cursor.compute_run(48), 0u);
}

TEST(ChunkStore, SkipCrossesChunkBoundaries) {
  const auto p = zipf_params(44);
  const std::size_t kRecords = 20'000;
  const Trace materialized = ZipfStreamGenerator(p).generate(kRecords);
  TraceChunkStore store;
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), kRecords);
  ChunkCursor cursor(store, id);
  std::size_t pos = 0;
  while (pos + 1'031 < kRecords) {  // odd stride: lands at shifting offsets within chunks
    cursor.skip(1'031);
    pos += 1'031;
    const TraceRecord* rec = cursor.peek();
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(records_equal(*rec, materialized.records[pos])) << "at record " << pos;
  }
  cursor.skip(kRecords - pos);  // exactly to the end
  EXPECT_EQ(cursor.peek(), nullptr);
  EXPECT_THROW(cursor.skip(1), std::logic_error);  // past the end
}

TEST(ChunkStore, MultipleStreamsStayIndependent) {
  TraceChunkStore store;
  const auto p0 = zipf_params(45);
  const auto p1 = zipf_params(46);
  const std::size_t id0 = store.add_stream(std::make_unique<ZipfStreamGenerator>(p0), 5'000);
  const std::size_t id1 = store.add_stream(std::make_unique<ZipfStreamGenerator>(p1), 9'000);
  EXPECT_EQ(store.stream_count(), 2u);
  const Trace t0 = ZipfStreamGenerator(p0).generate(5'000);
  const Trace t1 = ZipfStreamGenerator(p1).generate(9'000);
  ChunkCursor c0(store, id0), c1(store, id1);
  for (std::size_t i = 0; i < 9'000; ++i) {
    if (i < 5'000) {
      ASSERT_TRUE(records_equal(*c0.peek(), t0.records[i]));
      c0.advance();
    }
    ASSERT_TRUE(records_equal(*c1.peek(), t1.records[i]));
    c1.advance();
  }
  EXPECT_EQ(c0.peek(), nullptr);
  EXPECT_EQ(c1.peek(), nullptr);
}

}  // namespace
}  // namespace c2b
