#include "c2b/exec/sim_cache.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "c2b/common/assert.h"
#include "c2b/exec/disk_tier.h"
#include "c2b/obs/obs.h"

namespace c2b::exec {
namespace {

constexpr std::size_t kShardCount = 16;

}  // namespace

struct SimCache::Impl {
  struct Entry {
    Value value;
    bool referenced = false;  ///< set on hit, cleared by the clock hand
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
    std::deque<std::string> order;  ///< clock queue (second-chance)
  };

  std::array<Shard, kShardCount> shards;
  std::size_t shard_capacity = 0;
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> disk_hits{0};
  std::atomic<std::uint64_t> disk_misses{0};
  std::atomic<std::uint64_t> entry_count{0};  ///< live entries across shards

  mutable std::mutex disk_mutex;      ///< guards the shared_ptr, not the tier
  std::shared_ptr<DiskTier> disk;

  std::shared_ptr<DiskTier> disk_tier() const {
    std::lock_guard<std::mutex> lock(disk_mutex);
    return disk;
  }

  void publish_entry_count() {
    C2B_GAUGE_SET("exec.simcache.entries",
                  static_cast<double>(entry_count.load(std::memory_order_relaxed)));
  }

  static std::size_t shard_index(const std::string& key) {
    return std::hash<std::string>{}(key) % kShardCount;
  }

  /// Second-chance eviction: the entry at the clock hand is evicted unless
  /// its referenced bit is set, in which case the bit is cleared and the
  /// entry rotates to the back for one more cycle. Terminates in at most
  /// two passes (the first pass clears every bit it skips). Caller holds
  /// the shard mutex.
  void evict_one(Shard& shard) {
    for (;;) {
      const auto it = shard.entries.find(shard.order.front());
      C2B_ASSERT(it != shard.entries.end(), "clock queue references a missing key");
      if (it->second.referenced) {
        it->second.referenced = false;
        shard.order.push_back(std::move(shard.order.front()));
        shard.order.pop_front();
        continue;
      }
      shard.entries.erase(it);
      shard.order.pop_front();
      entry_count.fetch_sub(1, std::memory_order_relaxed);
      evictions.fetch_add(1, std::memory_order_relaxed);
      C2B_COUNTER_INC("exec.simcache.evict");
      return;
    }
  }

  /// Inserts into the memory tier only (no disk enqueue): the shared body
  /// of insert_many() and disk-hit promotion. Caller holds the
  /// shard mutex. Returns true when the key was new.
  bool insert_locked(Shard& shard, const std::string& key, const Value& value) {
    const auto [it, inserted] = shard.entries.insert_or_assign(key, Entry{value, false});
    (void)it;
    if (!inserted) return false;  // concurrent recompute of the same key
    entry_count.fetch_add(1, std::memory_order_relaxed);
    shard.order.push_back(key);
    while (shard.entries.size() > shard_capacity) evict_one(shard);
    return true;
  }
};

SimCache::SimCache(std::size_t capacity) : impl_(new Impl) {
  C2B_REQUIRE(capacity >= kShardCount, "cache capacity below shard count");
  impl_->shard_capacity = capacity / kShardCount;
}

SimCache::~SimCache() { delete impl_; }

bool SimCache::enabled() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void SimCache::set_enabled(bool on) noexcept {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

std::vector<std::optional<SimCache::Value>> SimCache::find_many(
    const std::vector<std::string>& keys, std::uint64_t* disk_hits) {
  std::vector<std::optional<Value>> out(keys.size());
  if (disk_hits != nullptr) *disk_hits = 0;
  if (!enabled() || keys.empty()) return out;

  std::array<std::vector<std::size_t>, kShardCount> by_shard;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].empty()) continue;  // uncacheable (uid-less workload)
    by_shard[Impl::shard_index(keys[i])].push_back(i);
  }

  std::uint64_t mem_hits = 0;
  std::vector<std::size_t> missed;
  for (std::size_t idx = 0; idx < kShardCount; ++idx) {
    if (by_shard[idx].empty()) continue;
    Impl::Shard& shard = impl_->shards[idx];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const std::size_t i : by_shard[idx]) {
      const auto it = shard.entries.find(keys[i]);
      if (it != shard.entries.end()) {
        it->second.referenced = true;
        out[i] = it->second.value;
        ++mem_hits;
      } else {
        missed.push_back(i);
      }
    }
  }
  if (mem_hits > 0) {
    impl_->hits.fetch_add(mem_hits, std::memory_order_relaxed);
    C2B_COUNTER_ADD("exec.simcache.hit", static_cast<long long>(mem_hits));
  }

  std::uint64_t full_misses = static_cast<std::uint64_t>(missed.size());
  if (const auto disk = impl_->disk_tier(); disk != nullptr && !missed.empty()) {
    std::uint64_t disk_found = 0;
    std::uint64_t disk_missed = 0;
    disk->find_many(keys, missed, out, disk_found, disk_missed);
    if (disk_hits != nullptr) *disk_hits = disk_found;
    if (disk_found > 0) {
      impl_->disk_hits.fetch_add(disk_found, std::memory_order_relaxed);
      C2B_COUNTER_ADD("exec.simcache.disk.hit", static_cast<long long>(disk_found));
      // Promote the disk hits, again one shard lock per shard.
      std::array<std::vector<std::size_t>, kShardCount> promote;
      for (const std::size_t i : missed)
        if (out[i].has_value()) promote[Impl::shard_index(keys[i])].push_back(i);
      for (std::size_t idx = 0; idx < kShardCount; ++idx) {
        if (promote[idx].empty()) continue;
        Impl::Shard& shard = impl_->shards[idx];
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const std::size_t i : promote[idx])
          impl_->insert_locked(shard, keys[i], *out[i]);
      }
      impl_->publish_entry_count();
    }
    if (disk_missed > 0) {
      impl_->disk_misses.fetch_add(disk_missed, std::memory_order_relaxed);
      C2B_COUNTER_ADD("exec.simcache.disk.miss", static_cast<long long>(disk_missed));
    }
    full_misses = disk_missed;
  }
  if (full_misses > 0) {
    impl_->misses.fetch_add(full_misses, std::memory_order_relaxed);
    C2B_COUNTER_ADD("exec.simcache.miss", static_cast<long long>(full_misses));
  }
  return out;
}

void SimCache::insert_many(const std::vector<std::pair<std::string, Value>>& entries) {
  if (!enabled() || entries.empty()) return;
  std::array<std::vector<const std::pair<std::string, Value>*>, kShardCount> by_shard;
  for (const auto& entry : entries)
    by_shard[Impl::shard_index(entry.first)].push_back(&entry);
  const auto disk = impl_->disk_tier();
  for (std::size_t idx = 0; idx < kShardCount; ++idx) {
    if (by_shard[idx].empty()) continue;
    Impl::Shard& shard = impl_->shards[idx];
    std::vector<const std::pair<std::string, Value>*> fresh;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const auto* entry : by_shard[idx])
        if (impl_->insert_locked(shard, entry->first, entry->second) && disk != nullptr)
          fresh.push_back(entry);
    }
    // Disk enqueues happen outside the shard lock: the write-behind queue
    // has its own locking and the hot path must not nest the two.
    for (const auto* entry : fresh) disk->enqueue(entry->first, entry->second);
  }
  impl_->publish_entry_count();
}

bool SimCache::attach_disk_tier(const std::string& dir) {
  auto tier = DiskTier::open(dir);
  if (tier == nullptr) return false;
  std::shared_ptr<DiskTier> previous;
  {
    std::lock_guard<std::mutex> lock(impl_->disk_mutex);
    previous = std::move(impl_->disk);
    impl_->disk = std::move(tier);
  }
  if (previous != nullptr) previous->flush();
  return true;
}

void SimCache::detach_disk_tier() {
  std::shared_ptr<DiskTier> previous;
  {
    std::lock_guard<std::mutex> lock(impl_->disk_mutex);
    previous = std::move(impl_->disk);
    impl_->disk = nullptr;
  }
  if (previous != nullptr) previous->flush();
}

bool SimCache::has_disk_tier() const { return impl_->disk_tier() != nullptr; }

void SimCache::flush_disk() {
  if (const auto disk = impl_->disk_tier()) disk->flush();
}

BlobLookup SimCache::read_blob(const std::string& key) const {
  if (!enabled()) return {};
  const auto disk = impl_->disk_tier();
  return disk != nullptr ? disk->read_blob(key) : BlobLookup{};
}

void SimCache::write_blob(const std::string& key, const std::string& payload) {
  if (!enabled()) return;
  if (const auto disk = impl_->disk_tier()) disk->write_blob(key, payload);
}

void SimCache::clear() {
  for (Impl::Shard& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
    shard.order.clear();
  }
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
  impl_->evictions.store(0, std::memory_order_relaxed);
  impl_->disk_hits.store(0, std::memory_order_relaxed);
  impl_->disk_misses.store(0, std::memory_order_relaxed);
  impl_->entry_count.store(0, std::memory_order_relaxed);
  impl_->publish_entry_count();
}

SimCacheStats SimCache::stats() const {
  SimCacheStats out;
  out.hits = impl_->hits.load(std::memory_order_relaxed);
  out.misses = impl_->misses.load(std::memory_order_relaxed);
  out.evictions = impl_->evictions.load(std::memory_order_relaxed);
  for (const Impl::Shard& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.entries += shard.entries.size();
  }
  out.disk_hits = impl_->disk_hits.load(std::memory_order_relaxed);
  out.disk_misses = impl_->disk_misses.load(std::memory_order_relaxed);
  if (const auto disk = impl_->disk_tier()) {
    const DiskTierStats disk_stats = disk->stats();
    out.disk_drops = disk_stats.drops;
    out.disk_flushes = disk_stats.flushes;
    out.disk_entries = disk_stats.entries;
  }
  return out;
}

SimCache& SimCache::global() {
  // The disk tier's flusher counts into the telemetry registry until
  // ~SimCache joins it at exit. Function statics are destroyed in reverse
  // order of construction, so the registry is constructed first: were it
  // first touched by attach_disk_tier below, it would be destroyed while a
  // flusher draining the last writes still counted into it (heap
  // corruption at exit after a cold run with C2B_SIM_CACHE_DIR set).
  static obs::Registry& registry = obs::Registry::global();
  (void)registry;
  static SimCache instance;
  static const bool attached = [] {
    const char* dir = std::getenv("C2B_SIM_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') instance.attach_disk_tier(dir);
    return true;
  }();
  (void)attached;
  return instance;
}

}  // namespace c2b::exec
