#include "c2b/obs/journal.h"

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "c2b/common/log.h"
#include "c2b/obs/progress.h"
#include "c2b/obs/registry.h"
#include "c2b/obs/trace.h"

namespace c2b::obs {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shortest round-trip decimal for a double (std::to_chars), "null" for
/// non-finite values (JSON has no Inf/NaN literals).
void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
}

// One active journal per process, installed by the thread that drives the
// run and read by pool workers while they run its sweep chunks. Atomic so
// those reads never race the install.
std::atomic<RunJournal*> g_active_journal{nullptr};

}  // namespace

RunJournal* active_journal() noexcept { return g_active_journal.load(); }
void set_active_journal(RunJournal* journal) noexcept { g_active_journal.store(journal); }

// ---------------------------------------------------------------------------
// JournalEvent

JournalEvent& JournalEvent::str(std::string_view key, std::string_view value) {
  fields_ += ",\"";
  fields_ += key;
  fields_ += "\":\"";
  append_escaped(fields_, value);
  fields_ += '"';
  return *this;
}

JournalEvent& JournalEvent::num(std::string_view key, double value) {
  fields_ += ",\"";
  fields_ += key;
  fields_ += "\":";
  append_number(fields_, value);
  return *this;
}

JournalEvent& JournalEvent::count(std::string_view key, std::uint64_t value) {
  fields_ += ",\"";
  fields_ += key;
  fields_ += "\":";
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  fields_.append(buf, result.ptr);
  return *this;
}

// ---------------------------------------------------------------------------
// RunJournal

struct RunJournal::Impl {
  std::string path;
  Options options;
  std::FILE* file = nullptr;
  std::uint64_t epoch_ns = 0;

  std::mutex mutex;
  std::vector<std::string> buffer;   ///< complete lines awaiting flush
  std::uint64_t written = 0;         ///< events accepted (buffered or flushed)
  std::uint64_t dropped = 0;         ///< events lost to I/O failure
  std::uint64_t last_snapshot_ns = 0;

  /// Write every buffered line; lines the OS refuses are dropped (counted),
  /// never re-queued — the buffer bound is a hard memory guarantee. stdio
  /// may accept fwrite into its own buffer and only fail at fflush (e.g.
  /// disk full), so a failed fflush charges this round's surviving lines to
  /// the drop counter too — better to over-count drops than to report a
  /// clean journal that is missing its tail.
  void flush_locked() {
    std::uint64_t pending = 0;
    for (const std::string& line : buffer) {
      if (std::fwrite(line.data(), 1, line.size(), file) != line.size())
        ++dropped;
      else
        ++pending;
    }
    buffer.clear();
    if (std::fflush(file) != 0) dropped += pending;
  }
};

RunJournal::RunJournal() : impl_(new Impl) {}

RunJournal::~RunJournal() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->flush_locked();
  }
  if (impl_->file != nullptr) std::fclose(impl_->file);
  delete impl_;
}

std::unique_ptr<RunJournal> RunJournal::open(const std::string& path) {
  return open(path, Options{});
}

std::unique_ptr<RunJournal> RunJournal::open(const std::string& path, Options options) {
  std::error_code ec;
  const std::filesystem::path file(path);
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path(), ec);
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    C2B_LOG(LogLevel::kWarn, "obs") << "cannot open run journal " << path;
    return nullptr;
  }
  std::unique_ptr<RunJournal> journal(new RunJournal());
  journal->impl_->path = path;
  journal->impl_->options = options;
  if (journal->impl_->options.buffer_events == 0) journal->impl_->options.buffer_events = 1;
  journal->impl_->file = out;
  journal->impl_->epoch_ns = now_ns();
  return journal;
}

void RunJournal::emit(const JournalEvent& event) {
  const double ts_ms = static_cast<double>(now_ns() - impl_->epoch_ns) / 1e6;
  std::string line;
  line.reserve(32 + event.type().size() + event.fields().size());
  line += "{\"type\":\"";
  append_escaped(line, event.type());
  line += "\",\"ts_ms\":";
  append_number(line, ts_ms);
  line += event.fields();
  line += "}\n";

  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->buffer.push_back(std::move(line));
  ++impl_->written;
  if (impl_->buffer.size() >= impl_->options.buffer_events) impl_->flush_locked();
}

void RunJournal::snapshot_metrics(bool force) {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const std::uint64_t now = now_ns();
    const std::uint64_t interval_ns = impl_->options.metrics_interval_ms * 1'000'000;
    if (!force && impl_->last_snapshot_ns != 0 &&
        now - impl_->last_snapshot_ns < interval_ns)
      return;
    impl_->last_snapshot_ns = now;
  }
  // Snapshot outside the journal mutex (the registry takes its own lock).
  JournalEvent event("metrics");
  for (const MetricSample& sample : Registry::global().snapshot()) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        event.count(sample.name, sample.count);
        break;
      case MetricSample::Kind::kGauge:
        event.num(sample.name, sample.value);
        break;
      case MetricSample::Kind::kHistogram:
        event.count(sample.name + ".count", sample.count);
        event.num(sample.name + ".mean", sample.mean);
        break;
    }
  }
  emit(event);
}

void RunJournal::flush() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->flush_locked();
}

std::uint64_t RunJournal::written_events() const noexcept {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->written;
}

std::uint64_t RunJournal::dropped_events() const noexcept {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->dropped;
}

double RunJournal::elapsed_ms() const {
  return static_cast<double>(now_ns() - impl_->epoch_ns) / 1e6;
}

const std::string& RunJournal::path() const noexcept { return impl_->path; }

// ---------------------------------------------------------------------------
// PhaseScope

PhaseScope::PhaseScope(const char* name) : name_(name) {
  RunJournal* journal = active_journal();
  ProgressMeter* progress = active_progress();
  if (journal == nullptr && progress == nullptr) return;
  start_ns_ = now_ns();
  if (journal != nullptr) journal->emit(JournalEvent("phase_begin").str("name", name_));
  if (progress != nullptr) progress->begin_phase(name_);
}

PhaseScope::~PhaseScope() {
  if (start_ns_ == 0) return;
  const double wall_ms = static_cast<double>(now_ns() - start_ns_) / 1e6;
  // Re-query: the journal/meter could have been uninstalled mid-phase.
  if (RunJournal* journal = active_journal()) {
    journal->emit(JournalEvent("phase_end").str("name", name_).num("wall_ms", wall_ms));
    journal->snapshot_metrics();
  }
  if (ProgressMeter* progress = active_progress()) progress->end_phase(name_);
}

// ---------------------------------------------------------------------------
// Reader

bool JournalRecord::has(const std::string& key) const {
  return numbers.count(key) > 0 || strings.count(key) > 0;
}

double JournalRecord::num(const std::string& key, double fallback) const {
  const auto it = numbers.find(key);
  return it == numbers.end() ? fallback : it->second;
}

std::string JournalRecord::str(const std::string& key, const std::string& fallback) const {
  const auto it = strings.find(key);
  return it == strings.end() ? fallback : it->second;
}

namespace {

/// Cursor over one line; every parse_* returns false on malformed input
/// (including truncation), which the caller reports as a skipped line.
struct LineCursor {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  bool expect(char ch) {
    if (done() || text[pos] != ch) return false;
    ++pos;
    return true;
  }
  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (!done()) {
      const char ch = text[pos++];
      if (ch == '"') return true;
      if (ch == '\\') {
        if (done()) return false;
        const char esc = text[pos++];
        if (esc == 'u') {
          if (pos + 4 > text.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text[pos++];
            value <<= 4;
            if (hex >= '0' && hex <= '9') value |= static_cast<unsigned>(hex - '0');
            else if (hex >= 'a' && hex <= 'f') value |= static_cast<unsigned>(hex - 'a' + 10);
            else if (hex >= 'A' && hex <= 'F') value |= static_cast<unsigned>(hex - 'A' + 10);
            else return false;
          }
          // The writer only emits \u00XX for control bytes; anything wider
          // would need UTF-8 encoding, which journal content never carries.
          if (value > 0xFF) return false;
          out += static_cast<char>(value);
        } else if (esc == '"' || esc == '\\' || esc == '/') {
          out += esc;
        } else if (esc == 'n') {
          out += '\n';
        } else if (esc == 't') {
          out += '\t';
        } else if (esc == 'r') {
          out += '\r';
        } else {
          return false;
        }
      } else {
        out += ch;
      }
    }
    return false;  // ran out before the closing quote: torn line
  }

  bool parse_number(double& out) {
    const std::size_t begin = pos;
    while (!done() && text[pos] != ',' && text[pos] != '}') ++pos;
    std::string_view token = text.substr(begin, pos - begin);
    while (!token.empty() && (token.back() == ' ' || token.back() == '\t'))
      token.remove_suffix(1);
    if (token == "null") {
      out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    if (token.empty()) return false;
    const std::string buffer(token);  // strtod needs a terminator
    char* end = nullptr;
    out = std::strtod(buffer.c_str(), &end);
    return end == buffer.c_str() + buffer.size();
  }
};

}  // namespace

bool parse_journal_line(std::string_view line, JournalRecord& out) {
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n' ||
                           line.back() == ' ' || line.back() == '\t'))
    line.remove_suffix(1);
  LineCursor cursor{line};
  cursor.skip_ws();
  if (!cursor.expect('{')) return false;
  out = JournalRecord{};
  bool closed = false;
  while (!closed) {
    cursor.skip_ws();
    std::string key;
    if (!cursor.parse_string(key)) return false;
    cursor.skip_ws();
    if (!cursor.expect(':')) return false;
    cursor.skip_ws();
    if (!cursor.done() && cursor.peek() == '"') {
      std::string value;
      if (!cursor.parse_string(value)) return false;
      if (key == "type") out.type = std::move(value);
      else out.strings[std::move(key)] = std::move(value);
    } else {
      double value = 0.0;
      if (!cursor.parse_number(value)) return false;
      if (key == "ts_ms") out.ts_ms = value;
      else out.numbers[std::move(key)] = value;
    }
    cursor.skip_ws();
    if (cursor.expect('}')) closed = true;
    else if (!cursor.expect(',')) return false;
  }
  cursor.skip_ws();
  return cursor.done() && !out.type.empty();
}

std::vector<JournalRecord> read_journal(const std::string& path, JournalReadStats* stats) {
  JournalReadStats local;
  std::vector<JournalRecord> records;
  std::ifstream in(path);
  std::string line;
  while (in && std::getline(in, line)) {
    if (line.empty()) continue;
    ++local.lines;
    JournalRecord record;
    if (parse_journal_line(line, record)) {
      ++local.parsed;
      records.push_back(std::move(record));
    } else {
      ++local.skipped;
    }
  }
  if (stats != nullptr) *stats = local;
  return records;
}

// ---------------------------------------------------------------------------
// Drop counters

std::vector<DropCounter> drop_counters(const RunJournal* journal) {
  std::vector<DropCounter> out;
  out.push_back({"obs.span_ring", dropped_trace_events()});
  if (journal != nullptr) out.push_back({"obs.journal", journal->dropped_events()});
  return out;
}

}  // namespace c2b::obs
