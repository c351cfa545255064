#include "c2b/sim/noc/noc.h"

#include <cmath>

namespace c2b::sim {

void NocConfig::validate() const {
  C2B_REQUIRE(nodes >= 1, "mesh needs at least one node");
  C2B_REQUIRE(hop_latency >= 1, "hop latency must be positive");
  C2B_REQUIRE(congestion_per_load >= 0.0, "congestion factor must be non-negative");
}

MeshNoc::MeshNoc(const NocConfig& config) : config_(config), slice_map_(config.nodes) {
  config_.validate();
  side_ = static_cast<std::uint32_t>(std::ceil(std::sqrt(static_cast<double>(config_.nodes))));
  if (side_ == 0) side_ = 1;
  x_.resize(config_.nodes);
  y_.resize(config_.nodes);
  for (std::uint32_t node = 0; node < config_.nodes; ++node) {
    x_[node] = node % side_;
    y_[node] = node / side_;
  }
  congestion_ = congestion_cycles();
}

std::uint32_t MeshNoc::hops_between(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t dx = x_[a] > x_[b] ? x_[a] - x_[b] : x_[b] - x_[a];
  const std::uint32_t dy = y_[a] > y_[b] ? y_[a] - y_[b] : y_[b] - y_[a];
  return dx + dy;
}

std::uint64_t MeshNoc::congestion_cycles() const noexcept {
  return static_cast<std::uint64_t>(config_.congestion_per_load * average_hops());
}

std::uint64_t MeshNoc::latency(std::uint32_t src_node, std::uint32_t dst_node) const {
  C2B_REQUIRE(src_node < config_.nodes && dst_node < config_.nodes, "node out of range");
  const std::uint32_t hops = hops_between(src_node, dst_node);
  return config_.injection_latency + static_cast<std::uint64_t>(hops) * config_.hop_latency +
         congestion_;
}

std::uint64_t MeshNoc::round_trip(std::uint32_t src_node, std::uint32_t dst_node) {
  const std::uint64_t one_way = latency(src_node, dst_node);
  messages_ += 2;
  total_hops_ += 2ull * hops_between(src_node, dst_node);
  congestion_ = congestion_cycles();
  return 2 * one_way;
}

double MeshNoc::average_hops() const noexcept {
  return messages_ == 0 ? 0.0
                        : static_cast<double>(total_hops_) / static_cast<double>(messages_);
}

}  // namespace c2b::sim
