#pragma once

// 2-D mesh network-on-chip latency model. Cores and LLC slices sit on a
// square mesh (Fig. 3's schematic); a request from core c to the LLC slice
// owning a line pays per-hop router latency for the Manhattan distance plus
// a small serialization term. A simple aggregate-load factor models
// congestion without a flit-level simulation — enough fidelity for the
// AMP/pAMP terms C²-Bound consumes.

#include <cstdint>
#include <vector>

#include "c2b/common/assert.h"
#include "c2b/common/math_util.h"

namespace c2b::sim {

struct NocConfig {
  std::uint32_t nodes = 16;        ///< mesh size (rounded up to a square)
  std::uint32_t hop_latency = 2;   ///< cycles per router+link hop
  std::uint32_t injection_latency = 1;
  double congestion_per_load = 0.25;  ///< extra cycles per unit average load
  void validate() const;
};

class MeshNoc {
 public:
  explicit MeshNoc(const NocConfig& config);

  /// One-way latency from `src_node` to `dst_node` at the current load.
  std::uint64_t latency(std::uint32_t src_node, std::uint32_t dst_node) const;

  /// Round-trip latency (request + response) plus bookkeeping of traffic:
  /// exactly 2 * latency(src_node, dst_node) as it was before the call.
  std::uint64_t round_trip(std::uint32_t src_node, std::uint32_t dst_node);

  /// Home LLC slice of a line under static address interleaving.
  std::uint32_t slice_of(std::uint64_t line) const {
    return static_cast<std::uint32_t>(slice_map_.mod(line));
  }

  /// Average hops weighted by observed traffic.
  double average_hops() const noexcept;
  std::uint64_t message_count() const noexcept { return messages_; }

  std::uint32_t side() const noexcept { return side_; }

 private:
  std::uint32_t hops_between(std::uint32_t a, std::uint32_t b) const;
  /// The load-dependent latency term, from messages_ and total_hops_.
  std::uint64_t congestion_cycles() const noexcept;

  NocConfig config_;
  std::uint32_t side_;
  FixedDivisor slice_map_;  ///< slice = line % nodes
  /// Mesh coordinates per node (node % side, node / side), precomputed so
  /// a hop count never divides.
  std::vector<std::uint32_t> x_;
  std::vector<std::uint32_t> y_;
  std::uint64_t messages_ = 0;
  std::uint64_t total_hops_ = 0;
  /// congestion_cycles() at the current load; round_trip() is the only
  /// code that changes the load, and it refreshes this.
  std::uint64_t congestion_ = 0;
};

}  // namespace c2b::sim
