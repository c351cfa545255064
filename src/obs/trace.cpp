#include "c2b/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>

#include "c2b/common/log.h"
#include "c2b/obs/registry.h"

namespace c2b::obs {
namespace {

constexpr std::size_t kDefaultCapacity = 1 << 16;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread ring of closed spans. The owning thread writes; collectors
/// read under the buffer mutex (uncontended except during export).
struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id, std::size_t capacity)
      : thread_id(id), ring(capacity) {}

  std::uint32_t thread_id;
  std::uint32_t depth = 0;          ///< open recorded spans on this thread
  std::uint64_t written = 0;        ///< total events ever recorded
  std::vector<TraceEvent> ring;
  std::mutex mutex;

  void record(const TraceEvent& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    ring[written % ring.size()] = event;
    ++written;
  }
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  ///< outlive their threads
  std::uint32_t next_thread_id = 0;
  std::atomic<std::size_t> capacity{kDefaultCapacity};
  std::uint64_t epoch_ns = now_ns();
};

TraceState& state() {
  static TraceState s;
  return s;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto b = std::make_shared<ThreadBuffer>(s.next_thread_id++,
                                            s.capacity.load(std::memory_order_relaxed));
    s.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::string json_escape(const char* text) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
    const char ch = *p;
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

void set_trace_buffer_capacity(std::size_t events) noexcept {
  state().capacity.store(events == 0 ? 1 : events, std::memory_order_relaxed);
}

std::vector<TraceEvent> collect_trace_events() {
  TraceState& s = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    buffers = s.buffers;
  }
  std::vector<TraceEvent> events;
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    const std::uint64_t kept = std::min<std::uint64_t>(buffer->written, buffer->ring.size());
    const std::uint64_t first = buffer->written - kept;
    for (std::uint64_t i = 0; i < kept; ++i)
      events.push_back(buffer->ring[(first + i) % buffer->ring.size()]);
  }
  std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start_ns < b.start_ns;
  });
  return events;
}

std::uint64_t dropped_trace_events() noexcept {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::uint64_t dropped = 0;
  for (const auto& buffer : s.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    if (buffer->written > buffer->ring.size()) dropped += buffer->written - buffer->ring.size();
  }
  return dropped;
}

void clear_trace_events() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& buffer : s.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->written = 0;
  }
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = collect_trace_events();
  std::ostringstream os;
  // Chrome's ts/dur are microseconds; keep ns precision as a zero-padded
  // fractional part.
  auto microseconds = [&os](std::uint64_t ns) {
    os << ns / 1000 << '.' << std::setw(3) << std::setfill('0') << ns % 1000
       << std::setfill(' ');
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"c2b\",\"ph\":\"X\""
       << ",\"pid\":1,\"tid\":" << e.thread_id << ",\"ts\":";
    microseconds(e.start_ns);
    os << ",\"dur\":";
    microseconds(e.duration_ns);
    os << ",\"args\":{\"depth\":" << e.depth;
    if (e.has_arg) os << ",\"v\":" << e.arg;
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool write_chrome_trace(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path file(path);
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path(), ec);
  std::ofstream out(file);
  if (!out) {
    C2B_LOG(LogLevel::kWarn, "obs") << "cannot write trace to " << path;
    return false;
  }
  out << chrome_trace_json();
  return static_cast<bool>(out);
}

namespace detail {

std::uint64_t begin_span() noexcept {
  if (!enabled()) return 0;
  ++local_buffer().depth;
  // +1 reserves 0 as the "not recording" token (the clock can return 0).
  return now_ns() + 1;
}

void end_span(const char* name, std::uint64_t token, std::uint64_t arg,
              bool has_arg) noexcept {
  if (token == 0) return;
  ThreadBuffer& buffer = local_buffer();
  if (buffer.depth > 0) --buffer.depth;
  TraceEvent event;
  event.name = name;
  const std::uint64_t start = token - 1;
  const std::uint64_t epoch = state().epoch_ns;
  event.start_ns = start > epoch ? start - epoch : 0;
  const std::uint64_t end = now_ns();
  event.duration_ns = end > start ? end - start : 0;
  event.thread_id = buffer.thread_id;
  event.depth = buffer.depth;
  event.arg = arg;
  event.has_arg = has_arg;
  buffer.record(event);
}

}  // namespace detail
}  // namespace c2b::obs
