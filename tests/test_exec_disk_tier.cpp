#include "c2b/exec/disk_tier.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace c2b::exec {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class DiskTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("disk_tier_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  fs::path dir_;
};

SimCache::Value value_for(std::size_t i) {
  return {static_cast<double>(i) * 1.5 + 0.25, static_cast<std::uint64_t>(i) * 7};
}

std::string key_for(std::size_t i) { return "design-key-" + std::to_string(i); }

/// Single-key lookup through the tier's only probe, find_many.
std::optional<SimCache::Value> probe(const DiskTier& tier, const std::string& key) {
  std::vector<std::optional<SimCache::Value>> out(1);
  std::uint64_t found = 0;
  std::uint64_t missed = 0;
  tier.find_many({key}, {0}, out, found, missed);
  return out.front();
}

std::vector<fs::path> segment_files(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (entry.path().extension() == ".c2b") out.push_back(entry.path());
  std::sort(out.begin(), out.end());
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void dump(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Test-local encoder mirroring the on-disk record format, so the suite can
// craft stale-schema and corrupt records byte by byte. Kept deliberately
// independent of the implementation: if the format drifts, these tests
// fail loudly instead of following along.
std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i)
    hash = (hash ^ static_cast<unsigned char>(data[i])) * 1099511628211ull;
  return hash;
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::string encode(const std::string& key, const SimCache::Value& value,
                   std::uint32_t schema) {
  std::string out = "C2BR";
  append_u32(out, schema);
  append_u32(out, static_cast<std::uint32_t>(key.size()));
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &value.time, sizeof time_bits);
  append_u64(out, time_bits);
  append_u64(out, value.memory_accesses);
  out.append(key);
  append_u64(out, fnv1a(out.data(), out.size()));
  return out;
}

TEST_F(DiskTierTest, RoundTripAcrossReopen) {
  constexpr std::size_t kEntries = 200;
  {
    auto tier = DiskTier::open(dir());
    ASSERT_NE(tier, nullptr);
    for (std::size_t i = 0; i < kEntries; ++i) tier->enqueue(key_for(i), value_for(i));
    tier->flush();
    EXPECT_EQ(tier->stats().appended, kEntries);
  }  // destructor drains + closes

  auto tier = DiskTier::open(dir());
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->entries(), kEntries);
  EXPECT_EQ(tier->stats().drops, 0u);
  for (std::size_t i = 0; i < kEntries; ++i) {
    const auto hit = probe(*tier, key_for(i));
    ASSERT_TRUE(hit.has_value()) << key_for(i);
    EXPECT_EQ(hit->time, value_for(i).time);
    EXPECT_EQ(hit->memory_accesses, value_for(i).memory_accesses);
  }
  EXPECT_FALSE(probe(*tier, "never-inserted").has_value());
}

TEST_F(DiskTierTest, ReEnqueueOfKnownKeyDoesNotGrowSegments) {
  {
    auto tier = DiskTier::open(dir());
    ASSERT_NE(tier, nullptr);
    for (std::size_t i = 0; i < 50; ++i) tier->enqueue(key_for(i), value_for(i));
    tier->flush();
  }
  std::uintmax_t size_after_fill = 0;
  for (const auto& path : segment_files(dir_)) size_after_fill += fs::file_size(path);

  {
    // A warm rerun re-enqueues everything it computes or replays; the
    // index dedup must turn all of it into no-ops.
    auto tier = DiskTier::open(dir());
    ASSERT_NE(tier, nullptr);
    for (std::size_t i = 0; i < 50; ++i) tier->enqueue(key_for(i), value_for(i));
    tier->flush();
    EXPECT_EQ(tier->stats().appended, 0u);
  }
  std::uintmax_t size_after_rerun = 0;
  for (const auto& path : segment_files(dir_)) size_after_rerun += fs::file_size(path);
  EXPECT_EQ(size_after_fill, size_after_rerun);
}

TEST_F(DiskTierTest, TruncatedTailDroppedRestSurvives) {
  {
    auto tier = DiskTier::open(dir());
    ASSERT_NE(tier, nullptr);
    for (std::size_t i = 0; i < 64; ++i) tier->enqueue(key_for(i), value_for(i));
    tier->flush();
  }
  // Shear the tail of every segment mid-record (drop the last 5 bytes —
  // inside the checksum trailer, so the final record can never validate).
  std::size_t sheared = 0;
  for (const auto& path : segment_files(dir_)) {
    const auto size = fs::file_size(path);
    if (size < 6) continue;
    fs::resize_file(path, size - 5);
    ++sheared;
  }
  ASSERT_GT(sheared, 0u);

  auto tier = DiskTier::open(dir());
  ASSERT_NE(tier, nullptr);
  EXPECT_GE(tier->stats().drops, sheared);  // >= one torn record per sheared file
  EXPECT_LT(tier->entries(), 64u);
  // Every record that did survive must carry its exact original value.
  std::size_t recovered = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const auto hit = probe(*tier, key_for(i));
    if (!hit.has_value()) continue;
    ++recovered;
    EXPECT_EQ(hit->time, value_for(i).time);
    EXPECT_EQ(hit->memory_accesses, value_for(i).memory_accesses);
  }
  EXPECT_EQ(recovered, tier->entries());
  EXPECT_GE(recovered, 64u - 2u * sheared);  // at most the torn tail records lost
}

TEST_F(DiskTierTest, BitFlipFuzzNeverLoadsAWrongValue) {
  {
    auto tier = DiskTier::open(dir(), DiskTier::Options{.segment_count = 1,
                                                        .queue_limit = 8192});
    ASSERT_NE(tier, nullptr);
    for (std::size_t i = 0; i < 16; ++i) tier->enqueue(key_for(i), value_for(i));
    tier->flush();
  }
  const auto paths = segment_files(dir_);
  ASSERT_EQ(paths.size(), 1u);
  const std::string pristine = slurp(paths[0]);
  ASSERT_GT(pristine.size(), 0u);

  // Flip one bit at a sampled byte position, reload, and require: no
  // crash, and every key that still resolves carries its exact original
  // value — corruption may lose records, never corrupt them.
  for (std::size_t pos = 0; pos < pristine.size(); pos += 7) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
    dump(paths[0], bytes);
    auto tier = DiskTier::open(dir());
    ASSERT_NE(tier, nullptr) << "flip at byte " << pos;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      const auto hit = probe(*tier, key_for(i));
      if (!hit.has_value()) continue;
      if (hit->time != value_for(i).time ||
          hit->memory_accesses != value_for(i).memory_accesses)
        ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << "flip at byte " << pos;
    EXPECT_GE(tier->stats().drops, 1u) << "flip at byte " << pos;
    EXPECT_LT(tier->entries(), 16u) << "flip at byte " << pos;
  }
  dump(paths[0], pristine);
}

TEST_F(DiskTierTest, StaleSchemaRecordSkippedWithCountedDrop) {
  // Hand-write a segment: [stale-schema record][current record]. The
  // stale one has a VALID checksum — only its version says "old build".
  std::string bytes = encode("stale-key", {1.0, 1}, kSimCacheSchemaVersion + 1);
  bytes += encode("current-key", {2.5, 9}, kSimCacheSchemaVersion);
  fs::create_directories(dir_);
  dump(dir_ / DiskTier::segment_name(0), bytes);

  auto tier = DiskTier::open(dir());
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->stats().drops, 1u);
  EXPECT_FALSE(probe(*tier, "stale-key").has_value());
  const auto hit = probe(*tier, "current-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->time, 2.5);
  EXPECT_EQ(hit->memory_accesses, 9u);
}

TEST_F(DiskTierTest, GarbageBetweenRecordsResyncsAtNextMagic) {
  std::string bytes = encode("first", {1.0, 1}, kSimCacheSchemaVersion);
  bytes += "this is not a record C2.. nope";
  bytes += encode("second", {2.0, 2}, kSimCacheSchemaVersion);
  fs::create_directories(dir_);
  dump(dir_ / DiskTier::segment_name(0), bytes);

  auto tier = DiskTier::open(dir());
  ASSERT_NE(tier, nullptr);
  EXPECT_TRUE(probe(*tier, "first").has_value());
  EXPECT_TRUE(probe(*tier, "second").has_value());
  EXPECT_GE(tier->stats().drops, 1u);
}

TEST_F(DiskTierTest, ZeroQueueLimitDropsAppendsButServesFromRam) {
  auto tier = DiskTier::open(dir(), DiskTier::Options{.segment_count = 2,
                                                      .queue_limit = 0});
  ASSERT_NE(tier, nullptr);
  for (std::size_t i = 0; i < 10; ++i) tier->enqueue(key_for(i), value_for(i));
  tier->flush();
  // Overflowed appends are dropped and counted, but the RAM index still
  // serves the values for the rest of this run.
  EXPECT_EQ(tier->stats().drops, 10u);
  EXPECT_EQ(tier->stats().appended, 0u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(probe(*tier, key_for(i)).has_value());
  tier.reset();

  auto reopened = DiskTier::open(dir());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->entries(), 0u);  // nothing was persisted
}

TEST_F(DiskTierTest, OpenOnAFileReturnsNull) {
  fs::create_directories(dir_.parent_path());
  dump(dir_, "not a directory");
  EXPECT_EQ(DiskTier::open(dir()), nullptr);
}

TEST_F(DiskTierTest, FindManyFillsOnlyRequestedSlots) {
  auto tier = DiskTier::open(dir());
  ASSERT_NE(tier, nullptr);
  tier->enqueue("a", {1.0, 1});
  tier->enqueue("b", {2.0, 2});
  const std::vector<std::string> keys{"a", "absent", "b", "ignored"};
  std::vector<std::optional<SimCache::Value>> out(keys.size());
  std::uint64_t found = 0;
  std::uint64_t missed = 0;
  tier->find_many(keys, {0, 1, 2}, out, found, missed);  // slot 3 not probed
  EXPECT_EQ(found, 2u);
  EXPECT_EQ(missed, 1u);
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(out[0]->time, 1.0);
  EXPECT_FALSE(out[1].has_value());
  ASSERT_TRUE(out[2].has_value());
  EXPECT_EQ(out[2]->memory_accesses, 2u);
  EXPECT_FALSE(out[3].has_value());
}

TEST_F(DiskTierTest, KillMidFlushThenRecoverServesOnlyExactValues) {
  // Crash-safety end to end: a child process appends continuously and is
  // SIGKILLed mid-write; recovery in the parent must never surface a
  // record whose value disagrees with its key — torn bytes at the tail
  // are dropped (counted), everything before them replays exactly.
  int ready_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(ready_pipe[0]);
    auto tier = DiskTier::open(dir(), DiskTier::Options{.segment_count = 2,
                                                        .queue_limit = 8192});
    if (tier == nullptr) _exit(1);
    // First tranche + flush, then tell the parent we are mid-stream.
    for (std::size_t i = 0; i < 100; ++i) tier->enqueue(key_for(i), value_for(i));
    tier->flush();
    const char byte = 'r';
    (void)!write(ready_pipe[1], &byte, 1);
    // Keep appending until killed.
    for (std::size_t i = 100;; ++i) {
      tier->enqueue(key_for(i), value_for(i));
      if (i % 64 == 0) tier->flush();
    }
  }
  close(ready_pipe[1]);
  char byte = 0;
  ASSERT_EQ(read(ready_pipe[0], &byte, 1), 1);
  close(ready_pipe[0]);
  // Let the child write a while longer, then kill it mid-flight.
  usleep(20'000);
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  auto tier = DiskTier::open(dir());
  ASSERT_NE(tier, nullptr);
  // The flushed tranche must be fully recovered...
  for (std::size_t i = 0; i < 100; ++i) {
    const auto hit = probe(*tier, key_for(i));
    ASSERT_TRUE(hit.has_value()) << key_for(i);
    EXPECT_EQ(hit->time, value_for(i).time);
  }
  // ...and whatever else survived must be value-exact.
  for (std::size_t i = 100; i < 100'000; ++i) {
    const auto hit = probe(*tier, key_for(i));
    if (!hit.has_value()) continue;
    EXPECT_EQ(hit->time, value_for(i).time) << key_for(i);
    EXPECT_EQ(hit->memory_accesses, value_for(i).memory_accesses) << key_for(i);
  }
}

}  // namespace
}  // namespace c2b::exec
