#include "c2b/common/stats.h"

#include <algorithm>
#include <cmath>

#include "c2b/common/assert.h"

namespace c2b {

void RunningStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double geomean_of(const std::vector<double>& xs) {
  C2B_REQUIRE(!xs.empty(), "geomean of empty vector");
  double log_sum = 0.0;
  for (const double x : xs) {
    C2B_REQUIRE(x > 0.0, "geomean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double mape(const std::vector<double>& predicted, const std::vector<double>& truth, double eps) {
  C2B_REQUIRE(predicted.size() == truth.size(), "mape requires equal-length vectors");
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (std::abs(truth[i]) < eps) continue;
    sum += std::abs(predicted[i] - truth[i]) / std::abs(truth[i]);
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  C2B_REQUIRE(hi > lo, "histogram range must be non-empty");
  C2B_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x, std::uint64_t weight) noexcept {
  std::size_t bin = 0;
  if (x >= hi_) {
    bin = counts_.size() - 1;
  } else if (x > lo_) {
    bin = static_cast<std::size_t>((x - lo_) / width_);
    if (bin >= counts_.size()) bin = counts_.size() - 1;
  }
  counts_[bin] += weight;
  total_ += weight;
}

std::uint64_t Histogram::bin_count(std::size_t bin) const {
  C2B_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  return counts_[bin];
}

double Histogram::bin_low(std::size_t bin) const {
  C2B_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::quantile(double fraction) const {
  C2B_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "quantile fraction in [0,1]");
  if (total_ == 0) return lo_;
  const double target = fraction * static_cast<double>(total_);
  double running = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = running + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double within =
          counts_[i] == 0 ? 0.0 : (target - running) / static_cast<double>(counts_[i]);
      return bin_low(i) + within * width_;
    }
    running = next;
  }
  return hi_;
}

}  // namespace c2b
