#pragma once

// The per-thread observation context: which journal and progress meter the
// current thread records into. active_journal() / active_progress() are
// thread-local so concurrent jobs (c2b serve) can each stream their own
// flight record; the thread pool captures the submitting thread's context
// per batch and installs it around every chunk it runs, so sweep
// instrumentation follows the job across worker threads.

#include "c2b/obs/journal.h"
#include "c2b/obs/progress.h"

namespace c2b::obs {

struct ObsContext {
  RunJournal* journal = nullptr;
  ProgressMeter* progress = nullptr;
};

/// The calling thread's active journal/progress pointers.
inline ObsContext capture_context() noexcept {
  return ObsContext{active_journal(), active_progress()};
}

/// Installs `context` on the calling thread and returns what was installed
/// before, so callers can restore it.
inline ObsContext install_context(const ObsContext& context) noexcept {
  const ObsContext previous = capture_context();
  set_active_journal(context.journal);
  set_active_progress(context.progress);
  return previous;
}

/// RAII install/restore, for wrapping a chunk or a job body.
class ScopedObsContext {
 public:
  explicit ScopedObsContext(const ObsContext& context) : previous_(install_context(context)) {}
  ~ScopedObsContext() { install_context(previous_); }
  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  ObsContext previous_;
};

}  // namespace c2b::obs
