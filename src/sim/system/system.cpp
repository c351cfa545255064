#include "c2b/sim/system/system.h"

#include <utility>
#include <vector>

#include "c2b/common/assert.h"
#include "c2b/sim/system/batched.h"

// The per-point entry points: K=1 calls into the one replay kernel
// (simulate_system_batched, batched.cpp), always measuring C-AMAT — their
// callers (characterization's real-memory run, `c2b simulate`, the figure
// benches) read it.

namespace c2b::sim {

void CoreConfig::validate() const {
  C2B_REQUIRE(issue_width >= 1, "issue width must be >= 1");
  C2B_REQUIRE(rob_size >= issue_width, "ROB must hold at least one issue group");
  C2B_REQUIRE(functional_units >= 1, "need at least one functional unit");
}

void SystemConfig::validate() const {
  core.validate();
  hierarchy.validate();
}

double SystemResult::total_instructions() const noexcept {
  double sum = 0.0;
  for (const CoreResult& c : cores) sum += static_cast<double>(c.instructions);
  return sum;
}

double SystemResult::aggregate_ipc() const noexcept {
  return cycles == 0 ? 0.0 : total_instructions() / static_cast<double>(cycles);
}

SystemResult simulate_system(const SystemConfig& config,
                             const std::vector<Trace>& per_core_traces) {
  C2B_REQUIRE(!per_core_traces.empty(), "need at least one trace");
  std::vector<VectorTraceCursor> storage;
  storage.reserve(per_core_traces.size());
  for (const Trace& trace : per_core_traces) storage.emplace_back(trace);
  std::vector<TraceCursor*> cursors;
  cursors.reserve(storage.size());
  for (VectorTraceCursor& cursor : storage) cursors.push_back(&cursor);
  return std::move(
      simulate_system_batched({config}, {cursors}, ReplayMode::kWithCamat).front());
}

SystemResult simulate_single_core(const SystemConfig& config, const Trace& trace) {
  return simulate_system(config, {trace});
}

}  // namespace c2b::sim
