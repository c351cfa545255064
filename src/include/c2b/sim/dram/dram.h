#pragma once

// DRAM timing model (the reproduction's DRAMSim2 substitute).
//
// Models the features off-chip latency is actually made of: per-bank row
// buffers (open-page policy), activate/precharge/CAS timing, bank-level
// parallelism, and a shared data bus that serializes bursts. Latencies are
// in core cycles. The model is a timing calculator: access(line, arrival)
// returns the completion cycle and updates bank/bus state, which is exactly
// the granularity the C-AMAT machinery observes.

#include <cstdint>
#include <vector>

#include "c2b/common/assert.h"
#include "c2b/common/math_util.h"
#include "c2b/obs/registry.h"

namespace c2b::sim {

struct DramConfig {
  std::uint32_t banks = 8;
  std::uint32_t lines_per_row = 128;  ///< row-buffer size in cache lines
  std::uint32_t t_cas = 22;           ///< column access (core cycles)
  std::uint32_t t_rcd = 22;           ///< activate -> column
  std::uint32_t t_rp = 22;            ///< precharge
  std::uint32_t t_bus = 4;            ///< data-burst bus occupancy
  void validate() const;
};

struct DramStats {
  std::uint64_t accesses = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_conflicts = 0;  ///< open row had to be closed first
  std::uint64_t row_empty = 0;      ///< bank had no open row
  std::uint64_t total_latency = 0;  ///< sum of (completion - arrival)
  std::uint64_t busy_cycle_estimate = 0;  ///< bus busy cycles (for APC_3)

  double row_hit_ratio() const noexcept {
    return accesses == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(accesses);
  }
  double average_latency() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(total_latency) / static_cast<double>(accesses);
  }
};

class DramModel {
 public:
  explicit DramModel(const DramConfig& config);

  /// Service a line-fill request arriving at `arrival_cycle`; returns the
  /// cycle the critical word is back at the LLC.
  std::uint64_t access(std::uint64_t line, std::uint64_t arrival_cycle);

  const DramStats& stats() const noexcept { return stats_; }
  const DramConfig& config() const noexcept { return config_; }

  /// Publish this model's queue-depth histogram (sim.dram.queue_depth) to
  /// the telemetry registry; call once, when the run finishes.
  void flush_telemetry() const;

  /// Unloaded latency of a row-buffer hit / empty / conflict access (used by
  /// the analytic model to seed AMP estimates).
  std::uint64_t row_hit_latency() const noexcept { return config_.t_cas + config_.t_bus; }
  std::uint64_t row_empty_latency() const noexcept {
    return config_.t_rcd + config_.t_cas + config_.t_bus;
  }
  std::uint64_t row_conflict_latency() const noexcept {
    return config_.t_rp + config_.t_rcd + config_.t_cas + config_.t_bus;
  }

 private:
  struct BankState {
    std::uint64_t open_row = 0;
    bool has_open_row = false;
    std::uint64_t ready_cycle = 0;  ///< bank can accept a new column op
  };

  DramConfig config_;
  FixedDivisor row_of_;   ///< row = line / lines_per_row
  FixedDivisor bank_of_;  ///< bank = row % banks
  /// 1 / t_bus when t_bus is a power of two (the quotient by a power of two
  /// equals the product with its exact reciprocal), else 0: divide.
  double inv_t_bus_;
  std::vector<BankState> banks_;
  std::uint64_t bus_free_ = 0;
  DramStats stats_;
  obs::LocalHistogram queue_depth_{0.0, 64.0, 64};
};

}  // namespace c2b::sim
