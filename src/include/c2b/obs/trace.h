#pragma once

// Scoped-timer spans recorded into per-thread ring buffers, exportable as
// Chrome trace-event JSON ("X" complete events) loadable in
// chrome://tracing or Perfetto. Span names must be string literals (or
// otherwise outlive the process) — the buffers store the pointer, never a
// copy, so the record path is two clock reads and a ring-slot store.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace c2b::obs {

struct TraceEvent {
  const char* name = nullptr;     ///< static string (not owned)
  std::uint64_t start_ns = 0;     ///< since process trace epoch
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_id = 0;    ///< small sequential id, stable per thread
  std::uint32_t depth = 0;        ///< span nesting depth at entry (0 = top)
  std::uint64_t arg = 0;          ///< optional numeric payload
  bool has_arg = false;
};

/// Ring capacity (events per thread) for buffers created after the call.
void set_trace_buffer_capacity(std::size_t events) noexcept;

/// All recorded events from every thread, sorted by start time. Spans still
/// open are not included (an event exists only once its scope closes).
std::vector<TraceEvent> collect_trace_events();

/// Events dropped to ring wrap-around across all threads.
std::uint64_t dropped_trace_events() noexcept;

/// Discard every recorded event (buffers stay allocated).
void clear_trace_events();

/// Chrome trace-event JSON (the {"traceEvents": [...]} object form).
std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`, creating parent directories.
/// Returns false (and logs) on I/O failure rather than throwing.
bool write_chrome_trace(const std::string& path);

namespace detail {

/// Begin a span: returns the start timestamp and bumps the thread's depth.
/// Returns 0 when telemetry is disabled (end_span must still be called
/// with the returned token).
std::uint64_t begin_span() noexcept;
void end_span(const char* name, std::uint64_t token, std::uint64_t arg, bool has_arg) noexcept;

}  // namespace detail

/// RAII span. Use through C2B_SPAN / C2B_SPAN_ARG so disabled builds
/// compile it out entirely.
class Span {
 public:
  explicit Span(const char* name) noexcept : name_(name), token_(detail::begin_span()) {}
  Span(const char* name, std::uint64_t arg) noexcept
      : name_(name), arg_(arg), has_arg_(true), token_(detail::begin_span()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { detail::end_span(name_, token_, arg_, has_arg_); }

 private:
  const char* name_;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
  std::uint64_t token_;
};

}  // namespace c2b::obs
