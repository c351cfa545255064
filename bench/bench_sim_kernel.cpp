// Event-driven kernel throughput benchmark: the cycle-skipping simulator
// kernel vs the retained per-cycle reference on two regimes —
//
//   * stall-heavy: 8 cores of a low-locality Zipf stream (f_mem = 0.3)
//     over a working set far beyond L2, against a deep, slow DRAM queue
//     with tiny MSHRs. The reference kernel walks every stall cycle; the
//     event kernel jumps between completions, so this is where the
//     speedup (and the skipped-cycle fraction) is largest.
//   * compute-bound: mostly-compute stream over a cache-resident working
//     set, where the win comes from the compute fast path batching whole
//     issue groups instead of cycle skipping.
//
// Both runs are checked for result identity (the full bitwise proof lives
// in `c2b check --family kernel`; this guards the benchmark itself from
// comparing different work). Emits BENCH_sim_kernel.json for CI.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/system.h"
#include "c2b/trace/generators.h"

namespace c2b::bench {
namespace {

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

struct Scenario {
  std::string name;
  sim::SystemConfig config;
  std::vector<Trace> traces;
};

Scenario stall_heavy() {
  Scenario s;
  s.name = "stall_heavy";
  s.config.core.issue_width = 4;
  s.config.core.rob_size = 64;
  s.config.core.functional_units = 4;
  s.config.hierarchy.cores = 8;
  s.config.hierarchy.l1_geometry = {.size_bytes = 8 * 1024, .line_bytes = 64,
                                    .associativity = 4};
  s.config.hierarchy.l2_geometry = {.size_bytes = 128 * 1024, .line_bytes = 64,
                                    .associativity = 8};
  s.config.hierarchy.l1_mshr_entries = 4;
  s.config.hierarchy.l2_mshr_entries = 8;
  // Deep DRAM queue: few banks, slow timing, so misses pile up behind the
  // row machinery and cores spend most cycles waiting.
  s.config.hierarchy.dram.banks = 2;
  s.config.hierarchy.dram.t_cas = 60;
  s.config.hierarchy.dram.t_rcd = 60;
  s.config.hierarchy.dram.t_rp = 60;
  s.config.hierarchy.dram.t_bus = 8;
  for (std::uint32_t c = 0; c < s.config.hierarchy.cores; ++c) {
    ZipfStreamGenerator::Params params;
    params.working_set_lines = 1 << 18;  // 16 MiB of lines, far beyond L2
    params.zipf_exponent = 0.2;          // near-uniform: almost no reuse
    params.f_mem = 0.3;
    params.seed = 1 + c;
    ZipfStreamGenerator generator(params);
    s.traces.push_back(generator.generate(60'000));
  }
  return s;
}

Scenario compute_bound() {
  Scenario s;
  s.name = "compute_bound";
  s.config.core.issue_width = 4;
  s.config.core.rob_size = 128;
  s.config.core.functional_units = 4;
  s.config.hierarchy.cores = 4;
  for (std::uint32_t c = 0; c < s.config.hierarchy.cores; ++c) {
    ZipfStreamGenerator::Params params;
    params.working_set_lines = 256;  // L1-resident
    params.zipf_exponent = 1.2;
    params.f_mem = 0.002;  // ~500-instruction compute runs between accesses
    params.seed = 101 + c;
    ZipfStreamGenerator generator(params);
    s.traces.push_back(generator.generate(400'000));
  }
  return s;
}

struct Measurement {
  std::string name;
  std::uint64_t accesses = 0;
  std::uint64_t instructions = 0;
  double event_ms = 0.0;
  double reference_ms = 0.0;
  double speedup = 0.0;
  double accesses_per_sec = 0.0;
  std::uint64_t visited_cycles = 0;
  std::uint64_t skipped_cycles = 0;
};

/// Fast identity screen (cycles + per-core counters + C-AMAT bits); the
/// exhaustive field-by-field proof is the kernel oracle's job.
bool results_match(const sim::SystemResult& a, const sim::SystemResult& b) {
  if (a.cycles != b.cycles || a.cores.size() != b.cores.size()) return false;
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    if (a.cores[c].instructions != b.cores[c].instructions ||
        a.cores[c].memory_accesses != b.cores[c].memory_accesses ||
        a.cores[c].cycles != b.cores[c].cycles ||
        !bits_equal(a.cores[c].camat.camat_value, b.cores[c].camat.camat_value))
      return false;
  }
  return true;
}

constexpr int kReps = 5;

int run_scenario(const Scenario& scenario, Measurement& m) {
  m.name = scenario.name;

  // Untimed warmup + identity check.
  const sim::SystemResult event_result = sim::simulate_system(scenario.config, scenario.traces);
  const sim::SystemResult reference_result =
      sim::simulate_system_reference(scenario.config, scenario.traces);
  if (!results_match(event_result, reference_result)) {
    std::fprintf(stderr, "%s: event kernel diverged from the reference kernel\n",
                 scenario.name.c_str());
    return 1;
  }
  for (const sim::CoreResult& core : event_result.cores) {
    m.accesses += core.memory_accesses;
    m.instructions += core.instructions;
  }

  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t visited0 = registry.counter("sim.kernel.visited_cycles").value();
  const std::uint64_t skipped0 = registry.counter("sim.kernel.skipped_cycles").value();

  m.event_ms = 1e300;
  m.reference_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    (void)sim::simulate_system(scenario.config, scenario.traces);
    m.event_ms = std::min(m.event_ms, wall_ms(start));
    start = std::chrono::steady_clock::now();
    (void)sim::simulate_system_reference(scenario.config, scenario.traces);
    m.reference_ms = std::min(m.reference_ms, wall_ms(start));
  }
  // Per-run skip accounting (the counters accumulate across the reps).
  m.visited_cycles =
      (registry.counter("sim.kernel.visited_cycles").value() - visited0) / kReps;
  m.skipped_cycles =
      (registry.counter("sim.kernel.skipped_cycles").value() - skipped0) / kReps;
  m.speedup = m.event_ms > 0.0 ? m.reference_ms / m.event_ms : 0.0;
  m.accesses_per_sec =
      m.event_ms > 0.0 ? static_cast<double>(m.accesses) / (m.event_ms / 1e3) : 0.0;
  return 0;
}

}  // namespace
}  // namespace c2b::bench

int main() {
  using namespace c2b;
  using namespace c2b::bench;

  std::vector<Measurement> measurements(2);
  if (run_scenario(stall_heavy(), measurements[0]) != 0) return 1;
  if (run_scenario(compute_bound(), measurements[1]) != 0) return 1;

  Table table({"scenario", "accesses/s (event)", "event (ms)", "reference (ms)", "speedup",
               "skipped cycles", "visited cycles"},
              2);
  for (const Measurement& m : measurements)
    table.add_row({m.name, m.accesses_per_sec, m.event_ms, m.reference_ms, m.speedup,
                   static_cast<std::int64_t>(m.skipped_cycles),
                   static_cast<std::int64_t>(m.visited_cycles)});
  print_table("Event-driven kernel vs per-cycle reference", table);

  if (std::FILE* out = std::fopen("BENCH_sim_kernel.json", "w")) {
    std::fprintf(out, "{\n  \"bench\": \"sim_kernel\",\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      const double total =
          static_cast<double>(m.visited_cycles) + static_cast<double>(m.skipped_cycles);
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"accesses\": %llu, \"instructions\": %llu, "
                   "\"event_ms\": %.3f, \"reference_ms\": %.3f, \"speedup\": %.3f, "
                   "\"accesses_per_sec\": %.1f, \"visited_cycles\": %llu, "
                   "\"skipped_cycles\": %llu, \"skip_fraction\": %.4f}%s\n",
                   m.name.c_str(), static_cast<unsigned long long>(m.accesses),
                   static_cast<unsigned long long>(m.instructions), m.event_ms,
                   m.reference_ms, m.speedup, m.accesses_per_sec,
                   static_cast<unsigned long long>(m.visited_cycles),
                   static_cast<unsigned long long>(m.skipped_cycles),
                   total > 0.0 ? static_cast<double>(m.skipped_cycles) / total : 0.0,
                   i + 1 < measurements.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[json] BENCH_sim_kernel.json\n");
  }
  return 0;
}
