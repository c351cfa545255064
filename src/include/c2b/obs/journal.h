#pragma once

// Sweep flight recorder: an append-only structured run journal. DSE/APS/
// check runs emit typed events (run begin/end, phase transitions, trace
// classes scheduled/completed, sim-cache peels, solver convergence,
// periodic metric snapshots) into a JSONL file — one self-contained JSON
// object per line — that `c2b report` replays into a post-mortem and the
// future `c2b serve` daemon can stream to clients.
//
// Writer contract:
//   * crash-safe: events are buffered in bounded memory and flushed to the
//     file (with fflush) once the buffer fills, so a crash loses at most
//     the buffered tail plus possibly one torn final line — which the
//     reader tolerates (read_journal skips unparsable lines and counts
//     them, mirroring dropped_trace_events());
//   * bounded: the in-memory buffer never exceeds Options::buffer_events;
//     events that cannot be persisted (I/O failure) are dropped and
//     counted by dropped_events(), never queued without bound;
//   * thread-safe: pool workers emit concurrently; lines are serialized
//     under one mutex, so each line is complete and events from one thread
//     stay in emission order.
//
// Recording is wired through active_journal(): sweep code checks the
// pointer and emits only when a run installed a journal (the `c2b
// --journal-out` flag).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace c2b::obs {

/// One event under construction: `JournalEvent("class_completed")
/// .count("cores", 4).num("wall_ms", 12.5)`. The journal stamps the type
/// and a monotonic `ts_ms` (milliseconds since the journal opened) when
/// the event is emitted. Keys must be plain identifiers (no escaping);
/// string values are JSON-escaped.
class JournalEvent {
 public:
  explicit JournalEvent(std::string_view type) : type_(type) {}

  JournalEvent& str(std::string_view key, std::string_view value);
  JournalEvent& num(std::string_view key, double value);
  JournalEvent& count(std::string_view key, std::uint64_t value);

  const std::string& type() const noexcept { return type_; }
  const std::string& fields() const noexcept { return fields_; }

 private:
  std::string type_;
  std::string fields_;  ///< ",\"key\":value" fragments, ready to splice
};

class RunJournal {
 public:
  struct Options {
    /// Max buffered (unflushed) lines; emit() flushes when the buffer
    /// fills, so this bounds both memory and the crash-loss window.
    std::size_t buffer_events = 64;
    /// Min interval between `metrics` snapshot events (0 = every call).
    std::uint64_t metrics_interval_ms = 1000;
  };

  /// Open `path` for appending a fresh journal (truncates; parent
  /// directories are created). Returns nullptr (and logs) on failure.
  static std::unique_ptr<RunJournal> open(const std::string& path, Options options);
  static std::unique_ptr<RunJournal> open(const std::string& path);

  ~RunJournal();  ///< flushes and closes
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Append one event (thread-safe). Stamps ts_ms at call time.
  void emit(const JournalEvent& event);

  /// Emit a `metrics` event carrying every counter and gauge of the global
  /// registry as flat fields — rate-limited to Options::metrics_interval_ms
  /// unless `force`, so instrumentation sites can call it unconditionally.
  void snapshot_metrics(bool force = false);

  /// Write buffered lines to the file and fflush.
  void flush();

  std::uint64_t written_events() const noexcept;
  std::uint64_t dropped_events() const noexcept;
  double elapsed_ms() const;
  const std::string& path() const noexcept;

 private:
  RunJournal();
  struct Impl;
  Impl* impl_;
};

/// The journal the current *thread* records into, or nullptr when not
/// recording. Thread-local so concurrent jobs can each stream their own
/// record; ThreadPool::parallel_for captures the submitting thread's
/// context and installs it around every chunk (see obs/context.h), so a
/// journal installed before a sweep follows the sweep across workers.
/// Compiled-out builds see a constant nullptr so emission sites vanish
/// entirely.
RunJournal* active_journal() noexcept;
void set_active_journal(RunJournal* journal) noexcept;

/// RAII phase marker: emits `phase_begin`/`phase_end` (with wall_ms) into
/// the active journal and attributes wall clock to the active progress
/// meter. Cheap no-op when neither is installed.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;  ///< 0 = nothing active, destructor no-ops
};

// ---------------------------------------------------------------------------
// Reader

/// One parsed journal line. Values keep their JSON kind: quoted values in
/// `strings`, numeric values in `numbers` (`type` and `ts_ms` lifted out).
struct JournalRecord {
  std::string type;
  double ts_ms = 0.0;
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;

  bool has(const std::string& key) const;
  double num(const std::string& key, double fallback = 0.0) const;
  std::string str(const std::string& key, const std::string& fallback = {}) const;
};

struct JournalReadStats {
  std::size_t lines = 0;    ///< non-empty lines seen
  std::size_t parsed = 0;   ///< well-formed events
  std::size_t skipped = 0;  ///< torn/corrupt lines tolerated and dropped
};

/// Parse a journal file. Unparsable lines (e.g. a torn final line after a
/// crash) are skipped and counted, never fatal; a missing file returns an
/// empty vector with zero lines.
std::vector<JournalRecord> read_journal(const std::string& path,
                                        JournalReadStats* stats = nullptr);

/// Parse one JSONL line into `out`; false when malformed (torn/corrupt).
bool parse_journal_line(std::string_view line, JournalRecord& out);

// ---------------------------------------------------------------------------
// Drop counters

/// Every event-drop counter in the process, surfaced uniformly so the CLI
/// can warn once at end of run: the span-ring wrap counter and — when a
/// journal is given — its I/O drop counter.
struct DropCounter {
  std::string name;
  std::uint64_t dropped = 0;
};
std::vector<DropCounter> drop_counters(const RunJournal* journal = nullptr);

}  // namespace c2b::obs
