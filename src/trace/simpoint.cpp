#include "c2b/trace/simpoint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "c2b/common/assert.h"

namespace c2b {

std::vector<double> interval_features(const TraceRecord* begin, const TraceRecord* end,
                                      std::size_t address_bins) {
  C2B_REQUIRE(begin != nullptr && end != nullptr && begin < end, "empty interval");
  C2B_REQUIRE(address_bins >= 1, "need at least one address bin");
  std::vector<double> features(3 + address_bins, 0.0);

  // Pass 1: mix counts and the touched address range.
  std::uint64_t min_addr = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_addr = 0;
  std::uint64_t mem_count = 0;
  for (const TraceRecord* r = begin; r != end; ++r) {
    switch (r->kind) {
      case InstrKind::kCompute:
        features[0] += 1.0;
        break;
      case InstrKind::kLoad:
        features[1] += 1.0;
        break;
      case InstrKind::kStore:
        features[2] += 1.0;
        break;
    }
    if (r->kind != InstrKind::kCompute) {
      ++mem_count;
      min_addr = std::min(min_addr, r->address);
      max_addr = std::max(max_addr, r->address);
    }
  }
  const auto total = static_cast<double>(end - begin);
  for (int i = 0; i < 3; ++i) features[i] /= total;

  // Pass 2: address-region histogram (normalized), a coarse footprint shape.
  if (mem_count > 0) {
    const double span = static_cast<double>(max_addr - min_addr) + 1.0;
    for (const TraceRecord* r = begin; r != end; ++r) {
      if (r->kind == InstrKind::kCompute) continue;
      auto bin = static_cast<std::size_t>(static_cast<double>(r->address - min_addr) / span *
                                          static_cast<double>(address_bins));
      if (bin >= address_bins) bin = address_bins - 1;
      features[3 + bin] += 1.0;
    }
    for (std::size_t b = 0; b < address_bins; ++b)
      features[3 + b] /= static_cast<double>(mem_count);
  }
  return features;
}

namespace {

double squared_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace

SimPointResult pick_simpoints(const Trace& trace, const SimPointOptions& options) {
  C2B_REQUIRE(options.interval_length > 0, "interval length must be positive");
  C2B_REQUIRE(options.max_clusters >= 1, "need at least one cluster");
  const std::uint64_t len = options.interval_length;
  const std::uint64_t total = trace.records.size();
  C2B_REQUIRE(total >= len / 2, "trace shorter than half an interval");

  // Build interval feature vectors (the tail is kept if >= len/2 long).
  std::vector<std::vector<double>> features;
  for (std::uint64_t start = 0; start < total; start += len) {
    const std::uint64_t stop = std::min(start + len, total);
    if (stop - start < len / 2 && !features.empty()) break;
    features.push_back(interval_features(trace.records.data() + start,
                                         trace.records.data() + stop, options.address_bins));
  }
  const std::size_t m = features.size();
  const std::size_t k = std::min(options.max_clusters, m);

  // k-means++ seeding.
  Rng rng(options.seed);
  std::vector<std::vector<double>> centroids;
  centroids.push_back(features[rng.uniform_below(m)]);
  while (centroids.size() < k) {
    std::vector<double> weights(m);
    for (std::size_t i = 0; i < m; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centroids) best = std::min(best, squared_distance(features[i], c));
      weights[i] = best;
    }
    centroids.push_back(features[rng.categorical(weights)]);
  }

  // Lloyd iterations.
  std::vector<std::size_t> assignment(m, 0);
  for (int iter = 0; iter < options.kmeans_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t best_c = 0;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double d = squared_distance(features[i], centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (assignment[i] != best_c) {
        assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      std::vector<double> mean(features[0].size(), 0.0);
      std::size_t count = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (assignment[i] != c) continue;
        for (std::size_t d = 0; d < mean.size(); ++d) mean[d] += features[i][d];
        ++count;
      }
      if (count == 0) continue;  // empty cluster keeps its old centroid
      for (double& v : mean) v /= static_cast<double>(count);
      centroids[c] = std::move(mean);
    }
  }

  // One representative per non-empty cluster: the interval nearest the
  // centroid, weighted by cluster population.
  SimPointResult result;
  result.interval_cluster = assignment;
  result.interval_count = m;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    std::size_t best_i = m;
    double best = std::numeric_limits<double>::infinity();
    std::size_t population = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (assignment[i] != c) continue;
      ++population;
      const double d = squared_distance(features[i], centroids[c]);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    if (population == 0) continue;
    result.points.push_back(
        {best_i, static_cast<double>(population) / static_cast<double>(m)});
  }
  return result;
}

Trace extract_interval(const Trace& trace, std::size_t interval_index,
                       std::uint64_t interval_length) {
  const std::uint64_t start = interval_index * interval_length;
  C2B_REQUIRE(start < trace.records.size(), "interval index out of range");
  const std::uint64_t stop = std::min(start + interval_length,
                                      static_cast<std::uint64_t>(trace.records.size()));
  Trace out;
  out.name = trace.name + "#" + std::to_string(interval_index);
  out.records.assign(trace.records.begin() + static_cast<std::ptrdiff_t>(start),
                     trace.records.begin() + static_cast<std::ptrdiff_t>(stop));
  return out;
}

}  // namespace c2b
