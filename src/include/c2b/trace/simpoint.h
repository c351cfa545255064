#pragma once

// SimPoint-style representative-interval selection (substitute for [26]).
//
// The trace is split into fixed-length intervals; each interval is reduced
// to a feature vector (instruction mix + address-region histogram — our
// stand-in for basic-block vectors); k-means clusters the vectors; the
// interval nearest each centroid is the cluster's simulation point, weighted
// by cluster population. Characterizing only the simulation points instead
// of the whole trace is what makes APS characterization cheap.

#include <cstddef>
#include <vector>

#include "c2b/common/rng.h"
#include "c2b/trace/trace.h"

namespace c2b {

struct SimPointOptions {
  std::uint64_t interval_length = 100000;  ///< instructions per interval
  std::size_t max_clusters = 8;            ///< k upper bound (BIC-free cap)
  std::size_t address_bins = 16;           ///< address-region histogram width
  int kmeans_iterations = 50;
  std::uint64_t seed = 42;
};

struct SimPoint {
  std::size_t interval_index = 0;  ///< which interval represents the cluster
  double weight = 0.0;             ///< fraction of intervals in the cluster
};

struct SimPointResult {
  std::vector<SimPoint> points;                 ///< one per non-empty cluster
  std::vector<std::size_t> interval_cluster;    ///< cluster id per interval
  std::size_t interval_count = 0;
};

/// Interval feature vector: [f_compute, f_load, f_store, region histogram...].
std::vector<double> interval_features(const TraceRecord* begin, const TraceRecord* end,
                                      std::size_t address_bins);

/// Pick representative intervals of `trace`. Intervals shorter than half the
/// interval length at the tail are dropped. Requires at least one interval.
SimPointResult pick_simpoints(const Trace& trace, const SimPointOptions& options = {});

/// Reconstruct a weighted sub-trace: the concatenation of the chosen
/// intervals (weights retained in `SimPointResult::points` for estimators).
Trace extract_interval(const Trace& trace, std::size_t interval_index,
                       std::uint64_t interval_length);

}  // namespace c2b
