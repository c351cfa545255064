#include "c2b/trace/cursor.h"

#include <gtest/gtest.h>

#include <vector>

namespace c2b {
namespace {

TEST(VectorCursor, ComputeRunAndSkipMatchRecords) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 40; ++i) {
    TraceRecord r;
    r.kind = (i % 5 == 4) ? InstrKind::kLoad : InstrKind::kCompute;
    r.address = static_cast<std::uint64_t>(i) * 64;
    records.push_back(r);
  }
  VectorTraceCursor cursor(records);
  EXPECT_EQ(cursor.compute_run(100), 4u);  // records 0..3 compute, 4 is a load
  EXPECT_EQ(cursor.compute_run(3), 3u);    // caller's limit caps the count
  cursor.skip(5);
  EXPECT_EQ(cursor.compute_run(100), 4u);
  ASSERT_NE(cursor.peek(), nullptr);
  EXPECT_EQ(cursor.peek()->address, 5u * 64);
  cursor.skip(35);
  EXPECT_EQ(cursor.peek(), nullptr);
  EXPECT_EQ(cursor.compute_run(100), 0u);
}

}  // namespace
}  // namespace c2b
