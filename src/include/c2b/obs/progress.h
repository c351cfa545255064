#pragma once

// Live progress/ETA for long sweeps. A ProgressMeter accumulates completed
// work weight (trace-class member counts, so cache peels and simulated
// classes advance the same scale), renders a single rate-limited `\r`
// status line on stderr, and attributes wall clock to the current phase so
// the CLI can print a per-phase breakdown at end of run.
//
// Like the run journal, recording is wired through an active-meter pointer
// that sweep code checks before touching the meter.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace c2b::obs {

class ProgressMeter {
 public:
  struct Options {
    std::uint64_t interval_ms = 500;  ///< min ms between status-line redraws
    std::FILE* out = nullptr;         ///< status-line sink; nullptr = stderr
  };

  explicit ProgressMeter(Options options);
  ProgressMeter();
  ~ProgressMeter();  ///< calls finish()
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Grow the expected total work weight (call before or during a sweep;
  /// totals are additive so multi-stage runs can extend the bar).
  void add_total(double weight);

  /// Record completed work weight; redraws the status line when the
  /// redraw interval elapsed.
  void advance(double weight);

  /// Phase attribution: nested begin/end pairs; wall clock accrues to the
  /// innermost open phase only (exclusive/self time).
  void begin_phase(const char* name);
  void end_phase(const char* name);

  struct PhaseTime {
    std::string name;
    double wall_ms = 0.0;  ///< exclusive (self) wall time
  };
  /// Phases in first-begin order; open phases include time up to now.
  std::vector<PhaseTime> phase_attribution() const;

  double completed() const;
  double total() const;

  /// Erase the live status line (idempotent; destructor calls it).
  void finish();

  /// Multi-line end-of-run text: per-phase wall-clock attribution plus
  /// overall throughput.
  std::string summary() const;

 private:
  void render_locked(std::uint64_t now_ns);
  void accrue_locked(std::uint64_t now_ns);

  mutable std::mutex mutex_;
  Options options_;
  std::FILE* out_;
  std::uint64_t epoch_ns_;
  std::uint64_t first_advance_ns_ = 0;
  std::uint64_t last_render_ns_ = 0;
  std::size_t last_line_size_ = 0;
  bool rendered_ = false;
  double total_ = 0.0;
  double completed_ = 0.0;
  std::vector<PhaseTime> phases_;     ///< first-begin order
  std::vector<std::size_t> stack_;    ///< open phases, indices into phases_
  std::uint64_t segment_start_ns_;    ///< start of the innermost open segment
};

/// The meter the process reports into, or nullptr. One per process, like
/// active_journal(): pool workers advance the meter the caller installed.
ProgressMeter* active_progress() noexcept;
void set_active_progress(ProgressMeter* meter) noexcept;

}  // namespace c2b::obs
