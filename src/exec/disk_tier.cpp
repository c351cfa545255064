#include "c2b/exec/disk_tier.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "c2b/obs/obs.h"

namespace c2b::exec {
namespace {

// FNV-1a64, the trace-v2 checksum discipline (trace_io.cpp).
constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (std::size_t i = 0; i < size; ++i)
    hash = (hash ^ static_cast<unsigned char>(data[i])) * kFnvPrime;
  return hash;
}

// Record: [magic "C2BR"][u32 schema][u32 key_len][u64 time bits]
//         [u64 memory_accesses][key bytes][u64 FNV-1a64 of all prior bytes].
// Integers are explicit little-endian so a record's bytes mean the same
// thing regardless of how the compiler lays out structs.
constexpr char kMagic[4] = {'C', '2', 'B', 'R'};
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kTrailerSize = 8;
constexpr std::size_t kMaxKeyLen = 1 << 20;

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::string encode_record(const std::string& key, const SimCache::Value& value) {
  std::string out;
  out.reserve(kHeaderSize + key.size() + kTrailerSize);
  out.append(kMagic, sizeof kMagic);
  append_u32(out, kSimCacheSchemaVersion);
  append_u32(out, static_cast<std::uint32_t>(key.size()));
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &value.time, sizeof time_bits);
  append_u64(out, time_bits);
  append_u64(out, value.memory_accesses);
  out.append(key);
  append_u64(out, fnv1a(out.data(), out.size()));
  return out;
}

// Side file: [magic "C2BF"][u64 key_len][u64 payload_len][key][payload]
//            [u64 FNV-1a64 of all prior bytes].
constexpr char kBlobMagic[4] = {'C', '2', 'B', 'F'};
constexpr std::size_t kBlobHeaderSize = 4 + 8 + 8;

/// The whole file, or nothing when it cannot be opened.
std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string bytes;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) bytes.append(buffer, got);
  std::fclose(file);
  return bytes;
}

}  // namespace

struct DiskTier::Impl {
  std::string dir;
  Options options;

  mutable std::mutex index_mutex;
  std::unordered_map<std::string, SimCache::Value> index;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;    ///< wakes the flusher
  std::condition_variable drained_cv;  ///< wakes flush() waiters
  std::vector<std::pair<std::string, SimCache::Value>> pending;
  bool writing = false;  ///< a popped batch is being appended right now
  bool stopping = false;

  std::mutex write_mutex;              ///< serializes segment appends
  std::vector<std::FILE*> segments;    ///< lazily opened append handles
  std::thread flusher;

  std::atomic<std::uint64_t> loaded{0};
  std::atomic<std::uint64_t> appended{0};
  std::atomic<std::uint64_t> drops{0};
  std::atomic<std::uint64_t> flushes{0};

  void count_drops(std::uint64_t n) {
    if (n == 0) return;
    drops.fetch_add(n, std::memory_order_relaxed);
    C2B_COUNTER_ADD("exec.simcache.disk.drop", static_cast<long long>(n));
  }

  void publish_entries() {
    C2B_GAUGE_SET("exec.simcache.disk.entries", static_cast<double>(index.size()));
  }

  /// Scans one segment's bytes, recovering every intact, current-schema
  /// record (later records override earlier ones — last write wins, same as
  /// the in-memory tier). Each failed parse counts one drop and resyncs at
  /// the next magic occurrence, so a single flipped bit loses at most the
  /// records it physically touches.
  void load_segment(const std::string& bytes) {
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t remaining = bytes.size() - pos;
      bool corrupt = false;
      if (remaining < kHeaderSize + kTrailerSize) {
        count_drops(1);  // torn tail
        return;
      }
      std::size_t key_len = 0;
      if (std::memcmp(bytes.data() + pos, kMagic, sizeof kMagic) != 0) {
        corrupt = true;
      } else {
        key_len = read_u32(bytes.data() + pos + 8);
        if (key_len > kMaxKeyLen || kHeaderSize + key_len + kTrailerSize > remaining) {
          corrupt = true;  // implausible length or record runs past EOF
        } else {
          const std::size_t body = kHeaderSize + key_len;
          const std::uint64_t stored = read_u64(bytes.data() + pos + body);
          if (stored != fnv1a(bytes.data() + pos, body)) corrupt = true;
        }
      }
      if (corrupt) {
        count_drops(1);
        // Resync: scan forward for the next full magic occurrence; without
        // one the rest of the segment is unrecoverable.
        std::size_t at = bytes.find(kMagic[0], pos + 1);
        while (at != std::string::npos && bytes.size() - at >= sizeof kMagic &&
               std::memcmp(bytes.data() + at, kMagic, sizeof kMagic) != 0) {
          at = bytes.find(kMagic[0], at + 1);
        }
        if (at == std::string::npos || bytes.size() - at < sizeof kMagic) return;
        pos = at;
        continue;
      }
      const std::uint32_t schema = read_u32(bytes.data() + pos + 4);
      const char* key_data = bytes.data() + pos + kHeaderSize;
      if (schema != kSimCacheSchemaVersion) {
        count_drops(1);  // stale record from an older build — self-invalidates
      } else {
        SimCache::Value value;
        const std::uint64_t time_bits = read_u64(bytes.data() + pos + 12);
        std::memcpy(&value.time, &time_bits, sizeof value.time);
        value.memory_accesses = read_u64(bytes.data() + pos + 20);
        index[std::string(key_data, key_len)] = value;
        loaded.fetch_add(1, std::memory_order_relaxed);
      }
      pos += kHeaderSize + key_len + kTrailerSize;
    }
  }

  std::FILE* segment_handle(std::size_t slot) {
    if (segments[slot] == nullptr) {
      const std::string path = dir + "/" + DiskTier::segment_name(slot);
      segments[slot] = std::fopen(path.c_str(), "ab");
    }
    return segments[slot];
  }

  void write_batch(const std::vector<std::pair<std::string, SimCache::Value>>& batch) {
    std::lock_guard<std::mutex> lock(write_mutex);
    // Group appends by segment so each file is touched once per round.
    std::vector<std::string> buffers(options.segment_count);
    for (const auto& [key, value] : batch) {
      const std::size_t slot = std::hash<std::string>{}(key) % options.segment_count;
      buffers[slot] += encode_record(key, value);
    }
    for (std::size_t slot = 0; slot < buffers.size(); ++slot) {
      if (buffers[slot].empty()) continue;
      std::FILE* file = segment_handle(slot);
      if (file == nullptr ||
          std::fwrite(buffers[slot].data(), 1, buffers[slot].size(), file) !=
              buffers[slot].size() ||
          std::fflush(file) != 0) {
        count_drops(1);  // the affected round's records may be torn; recovery skips them
        continue;
      }
    }
    appended.fetch_add(batch.size(), std::memory_order_relaxed);
    flushes.fetch_add(1, std::memory_order_relaxed);
    C2B_COUNTER_INC("exec.simcache.disk.flush");
  }

  void flusher_loop() {
    for (;;) {
      std::unique_lock<std::mutex> lock(queue_mutex);
      queue_cv.wait(lock, [&] { return stopping || !pending.empty(); });
      if (pending.empty()) return;  // stopping and drained
      auto batch = std::move(pending);
      pending.clear();
      writing = true;
      lock.unlock();
      write_batch(batch);
      lock.lock();
      writing = false;
      drained_cv.notify_all();
    }
  }
};

DiskTier::DiskTier() : impl_(new Impl) {}

std::unique_ptr<DiskTier> DiskTier::open(const std::string& dir) {
  return open(dir, Options{});
}

std::unique_ptr<DiskTier> DiskTier::open(const std::string& dir, Options options) {
  namespace fs = std::filesystem;
  if (options.segment_count == 0) options.segment_count = 1;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir, ec) || ec) return nullptr;

  std::unique_ptr<DiskTier> tier(new DiskTier());
  tier->impl_->dir = dir;
  tier->impl_->options = options;
  tier->impl_->segments.assign(options.segment_count, nullptr);

  // Startup recovery: stream every segment present, whatever segment_count
  // wrote it. Segment names are sorted so recovery order (and therefore
  // which record wins a duplicate key) is deterministic.
  std::vector<fs::path> segment_paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".c2b") == 0) {
      segment_paths.push_back(entry.path());
    }
  }
  std::sort(segment_paths.begin(), segment_paths.end());
  for (const auto& path : segment_paths)
    tier->impl_->load_segment(read_file(path).value_or(std::string()));
  tier->impl_->publish_entries();

  Impl* impl = tier->impl_.get();
  impl->flusher = std::thread([impl] { impl->flusher_loop(); });
  return tier;
}

DiskTier::~DiskTier() {
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->stopping = true;
  }
  impl_->queue_cv.notify_all();
  if (impl_->flusher.joinable()) impl_->flusher.join();
  for (std::FILE* file : impl_->segments)
    if (file != nullptr) std::fclose(file);
}

void DiskTier::find_many(const std::vector<std::string>& keys,
                         const std::vector<std::size_t>& indices,
                         std::vector<std::optional<SimCache::Value>>& out,
                         std::uint64_t& found, std::uint64_t& missed) const {
  std::lock_guard<std::mutex> lock(impl_->index_mutex);
  for (const std::size_t i : indices) {
    const auto it = impl_->index.find(keys[i]);
    if (it == impl_->index.end()) {
      ++missed;
    } else {
      out[i] = it->second;
      ++found;
    }
  }
}

void DiskTier::enqueue(const std::string& key, const SimCache::Value& value) {
  {
    std::lock_guard<std::mutex> lock(impl_->index_mutex);
    const auto [it, inserted] = impl_->index.try_emplace(key, value);
    (void)it;
    if (!inserted) return;  // already persisted (or queued) — no re-append
    impl_->publish_entries();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    if (impl_->pending.size() >= impl_->options.queue_limit) {
      // Overload: drop the append (counted), keep the index entry. The
      // record is served from RAM this run and recomputed after restart.
      impl_->count_drops(1);
      return;
    }
    impl_->pending.emplace_back(key, value);
  }
  impl_->queue_cv.notify_one();
}

void DiskTier::flush() {
  std::unique_lock<std::mutex> lock(impl_->queue_mutex);
  while (!impl_->pending.empty() || impl_->writing) {
    if (!impl_->pending.empty()) {
      auto batch = std::move(impl_->pending);
      impl_->pending.clear();
      lock.unlock();
      impl_->write_batch(batch);
      lock.lock();
    } else {
      impl_->drained_cv.wait(lock);
    }
  }
}

BlobLookup DiskTier::read_blob(const std::string& key) const {
  BlobLookup out;
  const std::optional<std::string> bytes = read_file(impl_->dir + "/" + blob_name(key));
  if (!bytes) return out;
  const std::string& b = *bytes;
  out.dropped = true;
  if (b.size() < kBlobHeaderSize + kTrailerSize ||
      std::memcmp(b.data(), kBlobMagic, sizeof kBlobMagic) != 0)
    return out;
  const std::uint64_t key_len = read_u64(b.data() + 4);
  const std::uint64_t payload_len = read_u64(b.data() + 12);
  const std::size_t body = b.size() - kTrailerSize;
  if (key_len > body - kBlobHeaderSize || payload_len != body - kBlobHeaderSize - key_len ||
      read_u64(b.data() + body) != fnv1a(b.data(), body) || key_len != key.size() ||
      std::memcmp(b.data() + kBlobHeaderSize, key.data(), key.size()) != 0)
    return out;
  out.dropped = false;
  out.payload = b.substr(kBlobHeaderSize + key_len, payload_len);
  return out;
}

void DiskTier::write_blob(const std::string& key, const std::string& payload) {
  std::string bytes;
  bytes.reserve(kBlobHeaderSize + key.size() + payload.size() + kTrailerSize);
  bytes.append(kBlobMagic, sizeof kBlobMagic);
  append_u64(bytes, key.size());
  append_u64(bytes, payload.size());
  bytes += key;
  bytes += payload;
  append_u64(bytes, fnv1a(bytes.data(), bytes.size()));

  static std::atomic<std::uint64_t> sequence{0};
  const std::string path = impl_->dir + "/" + blob_name(key);
  const std::string temp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                           std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) return;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(temp.c_str(), path.c_str()) != 0) std::remove(temp.c_str());
}

DiskTierStats DiskTier::stats() const {
  DiskTierStats out;
  {
    std::lock_guard<std::mutex> lock(impl_->index_mutex);
    out.entries = impl_->index.size();
  }
  out.loaded = impl_->loaded.load(std::memory_order_relaxed);
  out.appended = impl_->appended.load(std::memory_order_relaxed);
  out.drops = impl_->drops.load(std::memory_order_relaxed);
  out.flushes = impl_->flushes.load(std::memory_order_relaxed);
  return out;
}

std::size_t DiskTier::entries() const {
  std::lock_guard<std::mutex> lock(impl_->index_mutex);
  return impl_->index.size();
}

std::string DiskTier::segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%02zu.c2b", index);
  return buf;
}

std::string DiskTier::blob_name(const std::string& key) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "blob-%016llx.c2b",
                static_cast<unsigned long long>(fnv1a(key.data(), key.size())));
  return buf;
}

}  // namespace c2b::exec
