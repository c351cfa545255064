#include "c2b/exec/sim_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace c2b::exec {
namespace {

namespace fs = std::filesystem;

// Single-key probe and insert, as one-element calls to the cache's only
// probe (find_many) and insert (insert_many).
std::optional<SimCache::Value> find_one(SimCache& cache, const std::string& key) {
  return cache.find_many({key}).front();
}

void insert_one(SimCache& cache, const std::string& key, const SimCache::Value& value) {
  cache.insert_many({{key, value}});
}

TEST(SimCache, FindAfterInsertReturnsExactValue) {
  SimCache cache(64);
  EXPECT_FALSE(find_one(cache, "k1").has_value());
  insert_one(cache, "k1", {3.141592653589793, 42});
  const auto hit = find_one(cache, "k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->time, 3.141592653589793);
  EXPECT_EQ(hit->memory_accesses, 42u);
  // Different key, even a near-miss, is a miss: hits are exact-string only.
  EXPECT_FALSE(find_one(cache, "k1 ").has_value());
}

TEST(SimCache, StatsCountHitsAndMisses) {
  SimCache cache(64);
  (void)find_one(cache, "a");   // miss
  insert_one(cache, "a", {1.0, 1});
  (void)find_one(cache, "a");   // hit
  (void)find_one(cache, "a");   // hit
  (void)find_one(cache, "b");   // miss
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SimCache, EvictsOldestWhenFull) {
  // Capacity is split across shards; a capacity of kShardCount gives each
  // shard room for one entry, so a second entry landing in the same shard
  // must evict the first.
  SimCache cache(16);
  for (int i = 0; i < 64; ++i)
    insert_one(cache, "key" + std::to_string(i), {static_cast<double>(i), 0});
  const SimCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 16u);
}

TEST(SimCache, ClearDropsEntriesAndResetsStats) {
  SimCache cache(64);
  insert_one(cache, "x", {1.0, 1});
  (void)find_one(cache, "x");
  cache.clear();
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_FALSE(find_one(cache, "x").has_value());
}

TEST(SimCache, DisabledCacheNeverHits) {
  SimCache cache(64);
  cache.set_enabled(false);
  EXPECT_FALSE(cache.enabled());
  insert_one(cache, "x", {1.0, 1});
  EXPECT_FALSE(find_one(cache, "x").has_value());
  cache.set_enabled(true);
  insert_one(cache, "x", {1.0, 1});
  EXPECT_TRUE(find_one(cache, "x").has_value());
}

TEST(SimCache, InsertDoesNotOverwriteConcurrentRecompute) {
  // Two threads computing the same key insert the same deterministic value;
  // whichever lands second must leave the first intact (values are equal by
  // construction, so either is fine — we assert the stored value survives).
  SimCache cache(64);
  insert_one(cache, "k", {2.5, 7});
  insert_one(cache, "k", {2.5, 7});
  const auto hit = find_one(cache, "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->time, 2.5);
  EXPECT_EQ(hit->memory_accesses, 7u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SimCache, ParallelInsertFindSmoke) {
  SimCache cache(1024);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        // Built with += rather than operator+ to dodge a GCC 12 -Wrestrict
        // false positive on the inlined concatenation.
        std::string key = "k";
        key += std::to_string(i % 50);
        insert_one(cache, key, {static_cast<double>(i % 50), static_cast<std::uint64_t>(i % 50)});
        const auto hit = find_one(cache, key);
        if (hit) {
          // Value must always be internally consistent with its key.
          EXPECT_EQ(hit->time, static_cast<double>(hit->memory_accesses));
        }
      }
      (void)t;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(cache.stats().entries, 50u);
}

TEST(SimCache, GlobalIsSingleton) {
  SimCache& a = SimCache::global();
  SimCache& b = SimCache::global();
  EXPECT_EQ(&a, &b);
}

TEST(SimCache, SecondChanceKeepsHotKeyThroughFullEvictionCycles) {
  // Capacity 64 over 16 shards = 4 entries per shard. The hot key is
  // touched after every insert, so its referenced bit is always set when
  // the clock hand reaches it — it must survive a filler stream an order
  // of magnitude past capacity, while the untouched fillers churn.
  SimCache cache(64);
  insert_one(cache, "hot", {123.5, 9});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(find_one(cache, "hot").has_value()) << "evicted after filler " << i;
    std::string filler = "filler";
    filler += std::to_string(i);
    insert_one(cache, filler, {static_cast<double>(i), 0});
  }
  const auto hit = find_one(cache, "hot");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->time, 123.5);
  EXPECT_EQ(hit->memory_accesses, 9u);
  const SimCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);  // the fillers did churn
  EXPECT_LE(stats.entries, 64u);
}

TEST(SimCache, EvictionAccountingIsExact) {
  // Without any hits, every entry is inserted exactly once and evicted at
  // most once: live entries + evictions must equal total distinct inserts.
  SimCache cache(16);  // one entry per shard — maximum churn
  constexpr int kInserts = 100;
  for (int i = 0; i < kInserts; ++i) {
    std::string key = "key";
    key += std::to_string(i);
    insert_one(cache, key, {static_cast<double>(i), 0});
  }
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries + stats.evictions, static_cast<std::uint64_t>(kInserts));
  EXPECT_LE(stats.entries, 16u);
}

TEST(SimCache, FindManyServesSeededValuesAndSkipsEmptyKeys) {
  const std::vector<std::pair<std::string, SimCache::Value>> seed = {
      {"alpha", {1.0, 1}}, {"beta", {2.0, 2}}, {"gamma", {3.0, 3}}};
  const std::vector<std::string> probes = {"alpha", "", "absent", "gamma", "beta",
                                           "alpha", ""};
  const std::vector<std::optional<SimCache::Value>> expected = {
      SimCache::Value{1.0, 1}, std::nullopt, std::nullopt, SimCache::Value{3.0, 3},
      SimCache::Value{2.0, 2}, SimCache::Value{1.0, 1}, std::nullopt};

  SimCache cache(64);
  cache.insert_many(seed);
  std::uint64_t disk_hits = 123;  // must be zeroed even without a disk tier
  const auto got = cache.find_many(probes, &disk_hits);

  ASSERT_EQ(got.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(got[i].has_value(), expected[i].has_value()) << "probe " << i;
    if (got[i].has_value()) {
      EXPECT_EQ(got[i]->time, expected[i]->time);
      EXPECT_EQ(got[i]->memory_accesses, expected[i]->memory_accesses);
    }
  }
  EXPECT_EQ(disk_hits, 0u);
  // 4 hits, 1 miss — the two empty probes are never probed and never
  // counted.
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

class SimCacheDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("sim_cache_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  fs::path dir_;
};

TEST_F(SimCacheDiskTest, DiskHitIsPromotedIntoMemoryTier) {
  SimCache cache(64);
  ASSERT_TRUE(cache.attach_disk_tier(dir()));
  ASSERT_TRUE(cache.has_disk_tier());
  insert_one(cache, "design", {7.25, 11});
  cache.flush_disk();
  cache.clear();  // memory tier gone, disk survives

  const auto first = find_one(cache, "design");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->time, 7.25);
  SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);       // not a memory hit...
  EXPECT_EQ(stats.disk_hits, 1u);  // ...served from disk
  EXPECT_EQ(stats.misses, 0u);     // a disk hit is not a miss

  const auto second = find_one(cache, "design");
  ASSERT_TRUE(second.has_value());
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);  // promotion made the second probe a memory hit
  EXPECT_EQ(stats.disk_hits, 1u);
  cache.detach_disk_tier();
}

TEST_F(SimCacheDiskTest, WarmRestartReattachServesFromDisk) {
  SimCache cache(64);
  ASSERT_TRUE(cache.attach_disk_tier(dir()));
  for (int i = 0; i < 20; ++i) {
    std::string key = "point";
    key += std::to_string(i);
    insert_one(cache, key, {static_cast<double>(i) + 0.5, static_cast<std::uint64_t>(i)});
  }
  cache.flush_disk();

  // Emulate a process restart: drop the tier and the memory state, then
  // re-attach the same directory.
  cache.detach_disk_tier();
  cache.clear();
  ASSERT_TRUE(cache.attach_disk_tier(dir()));
  EXPECT_EQ(cache.stats().disk_entries, 20u);
  for (int i = 0; i < 20; ++i) {
    std::string key = "point";
    key += std::to_string(i);
    const auto hit = find_one(cache, key);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(hit->time, static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(cache.stats().disk_hits, 20u);
  cache.detach_disk_tier();
}

TEST_F(SimCacheDiskTest, ClearKeepsDiskTierContents) {
  SimCache cache(64);
  ASSERT_TRUE(cache.attach_disk_tier(dir()));
  insert_one(cache, "kept", {1.5, 3});
  cache.flush_disk();
  cache.clear();
  EXPECT_TRUE(cache.has_disk_tier());
  EXPECT_GE(cache.stats().disk_entries, 1u);
  EXPECT_TRUE(find_one(cache, "kept").has_value());
  cache.detach_disk_tier();
}

TEST_F(SimCacheDiskTest, FindManyAttributesDiskHitsPerCall) {
  SimCache cache(64);
  ASSERT_TRUE(cache.attach_disk_tier(dir()));
  insert_one(cache, "a", {1.0, 1});
  insert_one(cache, "b", {2.0, 2});
  cache.flush_disk();
  cache.clear();

  std::uint64_t disk_hits = 0;
  const auto got = cache.find_many({"a", "", "b", "absent"}, &disk_hits);
  EXPECT_EQ(disk_hits, 2u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());
  ASSERT_TRUE(got[2].has_value());
  EXPECT_FALSE(got[3].has_value());
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.disk_hits, 2u);
  EXPECT_EQ(stats.misses, 1u);  // "absent" missed both tiers
  cache.detach_disk_tier();
}

TEST_F(SimCacheDiskTest, AttachFailureLeavesCacheWorkingWithoutTier) {
  fs::create_directories(dir_.parent_path());
  {
    std::ofstream blocker(dir_);  // a *file* where the tier wants a directory
    blocker << "in the way";
  }
  SimCache cache(64);
  EXPECT_FALSE(cache.attach_disk_tier(dir()));
  EXPECT_FALSE(cache.has_disk_tier());
  insert_one(cache, "still-works", {4.0, 4});
  EXPECT_TRUE(find_one(cache, "still-works").has_value());
  EXPECT_EQ(cache.stats().disk_entries, 0u);
}

}  // namespace
}  // namespace c2b::exec
