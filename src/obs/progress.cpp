#include "c2b/obs/progress.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace c2b::obs {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string format_duration(double ms) {
  char buf[48];
  if (ms >= 120'000.0)
    std::snprintf(buf, sizeof buf, "%dm %02ds", static_cast<int>(ms / 60'000.0),
                  static_cast<int>(ms / 1000.0) % 60);
  else if (ms >= 1000.0)
    std::snprintf(buf, sizeof buf, "%.1f s", ms / 1000.0);
  else
    std::snprintf(buf, sizeof buf, "%.1f ms", ms);
  return buf;
}

// Thread-local for the same reason as g_active_journal: each concurrent
// job installs its own meter, and the pool propagates it per batch.
thread_local ProgressMeter* g_active_progress = nullptr;

}  // namespace

ProgressMeter* active_progress() noexcept { return g_active_progress; }
void set_active_progress(ProgressMeter* meter) noexcept { g_active_progress = meter; }

ProgressMeter::ProgressMeter(Options options)
    : options_(options),
      out_(options.out != nullptr ? options.out : stderr),
      epoch_ns_(now_ns()),
      segment_start_ns_(epoch_ns_) {}

ProgressMeter::ProgressMeter() : ProgressMeter(Options{}) {}

ProgressMeter::~ProgressMeter() { finish(); }

void ProgressMeter::accrue_locked(std::uint64_t now) {
  if (!stack_.empty() && now > segment_start_ns_)
    phases_[stack_.back()].wall_ms +=
        static_cast<double>(now - segment_start_ns_) / 1e6;
  segment_start_ns_ = now;
}

void ProgressMeter::add_total(double weight) {
  const std::lock_guard<std::mutex> lock(mutex_);
  total_ += weight;
  // The throughput clock starts when work is first announced, not when the
  // first unit lands — otherwise a sweep whose first completion arrives
  // late (or all at once) reports an absurd rate.
  if (first_advance_ns_ == 0) first_advance_ns_ = now_ns();
}

void ProgressMeter::advance(double weight) {
  const std::uint64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  completed_ += weight;
  if (first_advance_ns_ == 0) first_advance_ns_ = now;
  if (now - last_render_ns_ >= options_.interval_ms * 1'000'000) render_locked(now);
}

void ProgressMeter::begin_phase(const char* name) {
  const std::uint64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  accrue_locked(now);
  std::size_t index = phases_.size();
  for (std::size_t i = 0; i < phases_.size(); ++i)
    if (phases_[i].name == name) {
      index = i;
      break;
    }
  if (index == phases_.size()) phases_.push_back({name, 0.0});
  stack_.push_back(index);
  render_locked(now);
}

void ProgressMeter::end_phase(const char* name) {
  (void)name;  // phases are strictly nested; the innermost one ends
  const std::uint64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  accrue_locked(now);
  if (!stack_.empty()) stack_.pop_back();
}

std::vector<ProgressMeter::PhaseTime> ProgressMeter::phase_attribution() const {
  const std::uint64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PhaseTime> out = phases_;
  if (!stack_.empty() && now > segment_start_ns_)
    out[stack_.back()].wall_ms +=
        static_cast<double>(now - segment_start_ns_) / 1e6;
  return out;
}

double ProgressMeter::completed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

double ProgressMeter::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

void ProgressMeter::render_locked(std::uint64_t now) {
  last_render_ns_ = now;
  const double elapsed_s =
      first_advance_ns_ == 0
          ? 0.0
          : static_cast<double>(now - first_advance_ns_) / 1e9;
  const double rate = elapsed_s > 0.0 ? completed_ / elapsed_s : 0.0;

  char line[192];
  const char* phase = stack_.empty() ? "-" : phases_[stack_.back()].name.c_str();
  if (total_ > 0.0) {
    const double pct = std::min(100.0, 100.0 * completed_ / total_);
    std::string eta = "--";
    if (rate > 0.0 && completed_ < total_)
      eta = format_duration(1000.0 * (total_ - completed_) / rate);
    std::snprintf(line, sizeof line,
                  "[c2b] %s: %.0f/%.0f units (%.1f%%) | %.1f units/s | ETA %s",
                  phase, completed_, total_, pct, rate, eta.c_str());
  } else {
    std::snprintf(line, sizeof line, "[c2b] %s: %.0f units | %.1f units/s", phase,
                  completed_, rate);
  }

  const std::size_t size = std::strlen(line);
  std::fputc('\r', out_);
  std::fputs(line, out_);
  for (std::size_t i = size; i < last_line_size_; ++i) std::fputc(' ', out_);
  std::fflush(out_);
  last_line_size_ = size;
  rendered_ = true;
}

void ProgressMeter::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!rendered_) return;
  std::fputc('\r', out_);
  for (std::size_t i = 0; i < last_line_size_; ++i) std::fputc(' ', out_);
  std::fputc('\r', out_);
  std::fflush(out_);
  rendered_ = false;
  last_line_size_ = 0;
}

std::string ProgressMeter::summary() const {
  const std::vector<PhaseTime> phases = phase_attribution();
  const std::uint64_t now = now_ns();

  double attributed_ms = 0.0;
  for (const PhaseTime& phase : phases) attributed_ms += phase.wall_ms;
  double completed = 0.0, total = 0.0, elapsed_ms = 0.0, active_s = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    completed = completed_;
    total = total_;
    elapsed_ms = static_cast<double>(now - epoch_ns_) / 1e6;
    if (first_advance_ns_ != 0)
      active_s = static_cast<double>(now - first_advance_ns_) / 1e9;
  }

  std::string out = "per-phase wall-clock attribution:\n";
  char line[192];
  for (const PhaseTime& phase : phases) {
    const double pct = elapsed_ms > 0.0 ? 100.0 * phase.wall_ms / elapsed_ms : 0.0;
    std::snprintf(line, sizeof line, "  %-18s %12s  %5.1f%%\n", phase.name.c_str(),
                  format_duration(phase.wall_ms).c_str(), pct);
    out += line;
  }
  const double other_ms = std::max(0.0, elapsed_ms - attributed_ms);
  std::snprintf(line, sizeof line, "  %-18s %12s  %5.1f%%\n", "(untracked)",
                format_duration(other_ms).c_str(),
                elapsed_ms > 0.0 ? 100.0 * other_ms / elapsed_ms : 0.0);
  out += line;
  std::snprintf(line, sizeof line, "  %-18s %12s\n", "total",
                format_duration(elapsed_ms).c_str());
  out += line;
  if (completed > 0.0) {
    const double rate = active_s > 0.0 ? completed / active_s : 0.0;
    std::snprintf(line, sizeof line,
                  "throughput: %.0f of %.0f units completed, %.1f units/s\n",
                  completed, total, rate);
    out += line;
  }
  return out;
}

}  // namespace c2b::obs
