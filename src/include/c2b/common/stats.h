#pragma once

// Streaming and batch descriptive statistics used by the simulator counters,
// the DSE error accounting, and the benchmark harnesses.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace c2b {

/// Welford online accumulator: numerically stable mean/variance plus
/// min/max/sum in a single pass; mergeable for parallel reductions.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merge another accumulator (Chan et al. parallel update).
  void merge(const RunningStats& other) noexcept;

  void reset() noexcept { *this = RunningStats(); }

  std::size_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (M2/n); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean of a batch; requires every value > 0.
double geomean_of(const std::vector<double>& xs);

/// Mean absolute percentage error between predictions and ground truth,
/// expressed as a fraction (0.0596 == 5.96%). Entries with |truth| < eps are
/// skipped to avoid division blowup.
double mape(const std::vector<double>& predicted, const std::vector<double>& truth,
            double eps = 1e-12);

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins. Used for reuse-distance and latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1) noexcept;
  std::uint64_t bin_count(std::size_t bin) const;
  std::size_t bin_count_size() const noexcept { return counts_.size(); }
  double bin_low(std::size_t bin) const;
  std::uint64_t total() const noexcept { return total_; }
  /// Value below which `fraction` of the mass lies (interpolated).
  double quantile(double fraction) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace c2b
