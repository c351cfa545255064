#pragma once

// LRU stack-distance (reuse-distance) analysis.
//
// For a fully-associative LRU cache of S lines, an access hits iff its
// stack distance is < S, so one pass over a trace yields the entire
// miss-ratio-vs-capacity curve (Mattson et al.). The C²-Bound core uses
// these curves to make C-AMAT a function of the cache areas A1/A2 and of
// the capacity-scaled working set; this is the measured counterpart of the
// analytic power-law miss model.
//
// Implementation: classic Bennett–Kruskal algorithm — a Fenwick tree over
// trace positions counts distinct lines touched since the previous access
// to the same line. O(log n) per access, O(n) memory in the window size.

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "c2b/trace/trace.h"

namespace c2b {

/// Sentinel distance for first-touch (cold) accesses.
inline constexpr std::uint64_t kColdMiss = std::numeric_limits<std::uint64_t>::max();

/// Streaming stack-distance computation over cache-line granules.
class StackDistanceAnalyzer {
 public:
  explicit StackDistanceAnalyzer(std::uint32_t line_bytes = 64);

  /// Record one access; returns its stack distance (distinct lines touched
  /// since the last access to this line), or kColdMiss for a first touch.
  std::uint64_t access(std::uint64_t byte_address);

  /// Feed every memory access of a trace.
  void consume(const Trace& trace);

  std::uint64_t access_count() const noexcept { return time_; }
  std::uint64_t cold_miss_count() const noexcept { return cold_misses_; }

  /// Miss ratio of a fully-associative LRU cache with `lines` lines
  /// (cold misses always count as misses). Exact, from raw distances.
  double miss_ratio_for(std::uint64_t lines) const;

  /// The miss-ratio curve at power-of-two capacities [1, 2, 4, ... 2^k]
  /// covering every observed distance. Returned as (lines, miss_ratio).
  std::vector<std::pair<std::uint64_t, double>> miss_ratio_curve() const;

 private:
  void fenwick_add(std::size_t position, std::int64_t delta);
  std::int64_t fenwick_prefix_sum(std::size_t position) const;

  std::uint32_t line_bytes_;
  std::uint64_t time_ = 0;
  std::uint64_t cold_misses_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> last_access_;  ///< line -> last time
  std::vector<std::int64_t> fenwick_;                             ///< 1-based BIT
  std::vector<std::uint64_t> histogram_;                          ///< pow2 buckets
  std::vector<std::uint64_t> raw_distance_counts_;  ///< exact counts up to a cap
  static constexpr std::size_t kExactCap = 1 << 22;
};

/// Fit alpha, beta of the power-law miss model MR(S) = min(1, alpha * S^-beta)
/// to a measured curve (least squares in log space over the non-saturated
/// points). Returns {alpha, beta}.
struct PowerLawFit {
  double alpha = 1.0;
  double beta = 0.5;
};
PowerLawFit fit_miss_power_law(const std::vector<std::pair<std::uint64_t, double>>& curve);

}  // namespace c2b
