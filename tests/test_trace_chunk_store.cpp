#include "c2b/trace/chunk_store.h"

#include <gtest/gtest.h>

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

std::size_t true_compute_run(const std::vector<TraceRecord>& records, std::size_t pos) {
  std::size_t run = 0;
  while (pos + run < records.size() && records[pos + run].kind == InstrKind::kCompute) ++run;
  return run;
}

TEST(ChunkStore, SingleReaderStreamMatchesMaterializedGenerate) {
  const auto p = zipf_params(41);
  const Trace materialized = ZipfStreamGenerator(p).generate(5'000);
  TraceChunkStore store(/*chunk_records=*/256);
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 5'000);
  ChunkCursor cursor(store, id);
  EXPECT_EQ(cursor.stream_length(), 5'000u);
  for (std::size_t i = 0; i < materialized.records.size(); ++i) {
    const TraceRecord* rec = cursor.peek();
    ASSERT_NE(rec, nullptr) << "cursor ended early at record " << i;
    ASSERT_TRUE(records_equal(*rec, materialized.records[i])) << "divergence at record " << i;
    cursor.advance();
  }
  EXPECT_EQ(cursor.peek(), nullptr);
  // 5000 records / 256-record chunks -> 20 chunks, each generated once.
  EXPECT_EQ(store.stats().chunks_generated, 20u);
  EXPECT_EQ(store.stats().records_generated, 5'000u);
  EXPECT_EQ(store.stats().accesses_generated, materialized.memory_access_count());
}

TEST(ChunkStore, StreamIsGeneratedWhenAddedAndNeverAgain) {
  const auto p = zipf_params(42);
  const Trace materialized = ZipfStreamGenerator(p).generate(4'000);
  TraceChunkStore store(/*chunk_records=*/128);
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 4'000);
  // The whole stream exists before anyone reads it.
  const ChunkStoreStats before = store.stats();
  EXPECT_EQ(before.chunks_generated, (4'000u + 127u) / 128u);
  EXPECT_EQ(before.records_generated, 4'000u);
  EXPECT_EQ(before.accesses_generated, materialized.memory_access_count());

  // Three readers in any interleaving see the same records — the very same
  // memory, not copies — and reading generates nothing.
  ChunkCursor a(store, id), b(store, id), c(store, id);
  std::size_t pa = 0;  // a reads at a third of the others' pace
  for (std::size_t pos = 0; pos < 4'000; ++pos) {
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
  constexpr std::size_t kRecords = 6'000;
  constexpr std::size_t kThreads = 8;
  TraceChunkStore store(/*chunk_records=*/512);
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
  const auto p = zipf_params(43, /*f_mem=*/0.05);
  const Trace materialized = ZipfStreamGenerator(p).generate(3'000);
  TraceChunkStore store(/*chunk_records=*/64);
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 3'000);
  ChunkCursor cursor(store, id);
  for (std::size_t pos = 0; pos < materialized.records.size(); ++pos) {
    const std::size_t run = cursor.compute_run(48);
    const std::size_t truth = true_compute_run(materialized.records, pos);
    ASSERT_LE(run, 48u);
    ASSERT_LE(run, truth) << "compute_run overcounted at record " << pos;
    // Runs that end strictly inside the chunk (not at its boundary or the
    // caller's limit) must be exact.
    const std::size_t to_boundary = 64 - (pos % 64);
    if (truth < to_boundary && truth < 48) {
      ASSERT_EQ(run, truth) << "at record " << pos;
    }
    cursor.advance();
  }
}

TEST(ChunkStore, SkipCrossesChunkBoundaries) {
  const auto p = zipf_params(44);
  const Trace materialized = ZipfStreamGenerator(p).generate(2'000);
  TraceChunkStore store(/*chunk_records=*/128);
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 2'000);
  ChunkCursor cursor(store, id);
  std::size_t pos = 0;
  while (pos + 151 < 2'000) {  // stride > chunk, lands at shifting offsets
    cursor.skip(151);
    pos += 151;
    const TraceRecord* rec = cursor.peek();
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(records_equal(*rec, materialized.records[pos]));
    ASSERT_EQ(cursor.position(), pos);
  }
}

TEST(ChunkStore, MultipleStreamsStayIndependent) {
  TraceChunkStore store(/*chunk_records=*/256);
  const auto p0 = zipf_params(45);
  const auto p1 = zipf_params(46);
  const std::size_t id0 = store.add_stream(std::make_unique<ZipfStreamGenerator>(p0), 1'000);
  const std::size_t id1 = store.add_stream(std::make_unique<ZipfStreamGenerator>(p1), 1'500);
  EXPECT_EQ(store.stream_count(), 2u);
  EXPECT_EQ(store.stream_length(id0), 1'000u);
  EXPECT_EQ(store.stream_length(id1), 1'500u);
  const Trace t0 = ZipfStreamGenerator(p0).generate(1'000);
  const Trace t1 = ZipfStreamGenerator(p1).generate(1'500);
  ChunkCursor c0(store, id0), c1(store, id1);
  for (std::size_t i = 0; i < 1'500; ++i) {
    if (i < 1'000) {
      ASSERT_TRUE(records_equal(*c0.peek(), t0.records[i]));
      c0.advance();
    }
    ASSERT_TRUE(records_equal(*c1.peek(), t1.records[i]));
    c1.advance();
  }
  EXPECT_EQ(c0.peek(), nullptr);
  EXPECT_EQ(c1.peek(), nullptr);
}

TEST(ChunkStore, ResetRewindsToTheStart) {
  const auto p = zipf_params(47);
  const Trace materialized = ZipfStreamGenerator(p).generate(1'000);
  TraceChunkStore store(/*chunk_records=*/128);
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), 1'000);
  ChunkCursor cursor(store, id);
  cursor.skip(700);  // well past the first chunks
  cursor.reset();
  EXPECT_EQ(cursor.position(), 0u);
  for (std::size_t pos = 0; pos < 1'000; ++pos) {
    ASSERT_TRUE(records_equal(*cursor.peek(), materialized.records[pos])) << "at record " << pos;
    cursor.advance();
  }
  EXPECT_EQ(cursor.peek(), nullptr);
  EXPECT_THROW(cursor.skip(1), std::logic_error);  // past the end
}

}  // namespace
}  // namespace c2b
