// Property-based replay-kernel equivalence (ctest label: check). The one
// replay kernel (simulate_system_batched) must reproduce the per-cycle
// reference kernel (simulate_system_reference) bitwise, member by member,
// on random scenarios — random member configs, batch widths 1..16,
// workloads — over shared chunk-store streams, and must keep the telemetry
// ledger balanced: sim.l1.hit + sim.l1.miss + exec.simcache.replayed_accesses
// == the demand accesses the results report. Complements the `kernel`
// oracle family; this suite drives the PBT engine so failures shrink and
// replay from a one-line repro.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "c2b/check/generators.h"
#include "c2b/check/property.h"
#include "c2b/common/rng.h"
#include "c2b/obs/obs.h"
#include "c2b/obs/registry.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/chunk_store.h"
#include "c2b/trace/generators.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

/// One random batch-replay scenario. Everything downstream (streams, member
/// configs, both kernels) is a pure function of this value, so the PBT
/// engine's (seed, case) repro and shrinking both work.
struct KernelScenario {
  WorkloadSpec spec;
  double scale = 1.0;
  std::uint64_t stream_seed = 0;
  std::uint64_t window = 2000;  ///< records per core stream
  std::uint32_t cores = 1;      ///< cores per member
  std::size_t width = 1;        ///< batch members
  std::vector<sim::SystemConfig> configs;  ///< one per member (heterogeneous)
};

KernelScenario gen_kernel_scenario(Rng& rng) {
  KernelScenario s;
  const sim::SystemConfig proto = check::gen_system_config(rng);
  s.spec = check::gen_workload_spec(rng);
  s.scale = rng.uniform_below(2) == 0 ? 1.0 : 2.0;
  s.stream_seed = rng.next();
  s.window = 1000 + rng.uniform_below(4000);
  s.cores = proto.hierarchy.cores;  // members share the proto's core count
  s.width = 1 + static_cast<std::size_t>(rng.uniform_below(16));  // 1..16
  s.configs.reserve(s.width);
  for (std::size_t m = 0; m < s.width; ++m) {
    sim::SystemConfig config = proto;
    const std::uint32_t issues[] = {1, 2, 4};
    config.core.issue_width = issues[rng.uniform_below(3)];
    const std::uint32_t robs[] = {16, 32, 64, 128};
    config.core.rob_size = std::max(config.core.issue_width, robs[rng.uniform_below(4)]);
    const std::uint32_t fus[] = {1, 2, 4, 8};
    config.core.functional_units = fus[rng.uniform_below(4)];
    const std::uint64_t line = config.hierarchy.l1_geometry.line_bytes;
    const std::uint64_t assoc = config.hierarchy.l1_geometry.associativity;
    const std::uint64_t l1_sets[] = {4, 16, 64};
    config.hierarchy.l1_geometry.size_bytes = line * assoc * l1_sets[rng.uniform_below(3)];
    config.validate();
    s.configs.push_back(config);
  }
  return s;
}

std::string print_kernel_scenario(const KernelScenario& s) {
  std::ostringstream os;
  os << "workload=" << s.spec.name << " scale=" << s.scale << " stream_seed=" << s.stream_seed
     << " window=" << s.window << " cores=" << s.cores << " width=" << s.width;
  return os.str();
}

/// Width/window/core shrinks (member configs shrink with width: the prefix
/// of the config list is kept, so smaller scenarios stay coherent).
std::vector<KernelScenario> shrink_kernel_scenario(const KernelScenario& s) {
  std::vector<KernelScenario> out;
  if (s.width > 1) {
    KernelScenario half = s;
    half.width = s.width / 2;
    half.configs.resize(half.width);
    out.push_back(std::move(half));
    KernelScenario minus = s;
    minus.width = s.width - 1;
    minus.configs.resize(minus.width);
    out.push_back(std::move(minus));
  }
  if (s.window > 1000) {
    KernelScenario small = s;
    small.window = std::max<std::uint64_t>(1000, s.window / 2);
    out.push_back(std::move(small));
  }
  if (s.cores > 1) {
    KernelScenario narrow = s;
    narrow.cores = 1;
    for (sim::SystemConfig& config : narrow.configs) config.hierarchy.cores = 1;
    out.push_back(std::move(narrow));
  }
  return out;
}

struct BatchRun {
  std::vector<sim::SystemResult> results;
  sim::BatchKernelStats kernel;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t replayed = 0;
  bool ledger_live = false;  ///< telemetry was active, ledger fields valid
};

/// The scenario's per-core stream generator.
std::unique_ptr<TraceGenerator> make_stream(const KernelScenario& s, std::uint32_t core) {
  return s.spec.make_generator(s.scale, Rng::derive_stream_seed(s.stream_seed, core));
}

/// One full batched replay over a fresh shared chunk store: per-core
/// streams generated from the scenario's workload, width x cores
/// ChunkCursors.
BatchRun run_batch(const KernelScenario& s) {
  BatchRun run;
  TraceChunkStore store;
  std::vector<std::size_t> stream_ids;
  stream_ids.reserve(s.cores);
  for (std::uint32_t c = 0; c < s.cores; ++c)
    stream_ids.push_back(store.add_stream(make_stream(s, c), s.window));
  store.set_readers(static_cast<std::uint32_t>(s.width));

  std::vector<ChunkCursor> cursors;
  cursors.reserve(s.width * s.cores);
  std::vector<std::vector<TraceCursor*>> member_cursors(s.width);
  for (std::size_t m = 0; m < s.width; ++m) {
    for (std::uint32_t c = 0; c < s.cores; ++c) {
      cursors.emplace_back(store, stream_ids[c]);
      member_cursors[m].push_back(&cursors.back());
    }
  }

  run.ledger_live = C2B_OBS_ACTIVE();
  if (run.ledger_live) obs::Registry::global().reset_values();
  run.results = sim::simulate_system_batched(s.configs, member_cursors, &run.kernel);
  if (run.ledger_live) {
    obs::Registry& registry = obs::Registry::global();
    run.l1_hits = registry.counter("sim.l1.hit").value();
    run.l1_misses = registry.counter("sim.l1.miss").value();
    run.replayed = registry.counter("exec.simcache.replayed_accesses").value();
  }
  return run;
}

std::uint64_t reported_accesses(const std::vector<sim::SystemResult>& results) {
  std::uint64_t total = 0;
  for (const sim::SystemResult& result : results)
    for (const sim::CoreResult& core : result.cores) total += core.memory_accesses;
  return total;
}

/// First field-level difference between two member results (bit patterns
/// for doubles — the contract is bit-identity, not closeness).
std::optional<std::string> diff_member(const sim::SystemResult& a, const sim::SystemResult& b) {
  auto u64 = [](const char* label, std::uint64_t x, std::uint64_t y,
                std::optional<std::string>& diff) {
    if (!diff && x != y) {
      std::ostringstream os;
      os << label << ": " << x << " != " << y;
      diff = os.str();
    }
  };
  auto f64 = [&u64](const char* label, double x, double y, std::optional<std::string>& diff) {
    u64(label, std::bit_cast<std::uint64_t>(x), std::bit_cast<std::uint64_t>(y), diff);
  };
  std::optional<std::string> diff;
  u64("cycles", a.cycles, b.cycles, diff);
  u64("cores.size", a.cores.size(), b.cores.size(), diff);
  if (diff) return diff;
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    const sim::CoreResult& x = a.cores[c];
    const sim::CoreResult& y = b.cores[c];
    u64("core.instructions", x.instructions, y.instructions, diff);
    u64("core.memory_accesses", x.memory_accesses, y.memory_accesses, diff);
    u64("core.cycles", x.cycles, y.cycles, diff);
    f64("core.cpi", x.cpi, y.cpi, diff);
    f64("core.f_mem", x.f_mem, y.f_mem, diff);
    u64("camat.accesses", x.camat.accesses, y.camat.accesses, diff);
    u64("camat.misses", x.camat.misses, y.camat.misses, diff);
    u64("camat.pure_misses", x.camat.pure_misses, y.camat.pure_misses, diff);
    u64("camat.memory_active_cycles", x.camat.memory_active_cycles,
        y.camat.memory_active_cycles, diff);
    f64("camat.amat_value", x.camat.amat_value, y.camat.amat_value, diff);
    f64("camat.camat_value", x.camat.camat_value, y.camat.camat_value, diff);
    if (diff) {
      *diff = "core " + std::to_string(c) + " " + *diff;
      return diff;
    }
  }
  u64("hierarchy.l1_accesses", a.hierarchy.l1_accesses, b.hierarchy.l1_accesses, diff);
  u64("hierarchy.l2_accesses", a.hierarchy.l2_accesses, b.hierarchy.l2_accesses, diff);
  u64("hierarchy.dram_accesses", a.hierarchy.dram_accesses, b.hierarchy.dram_accesses, diff);
  u64("hierarchy.l1_writebacks", a.hierarchy.l1_writebacks, b.hierarchy.l1_writebacks, diff);
  f64("hierarchy.l1_miss_ratio", a.hierarchy.l1_miss_ratio, b.hierarchy.l1_miss_ratio, diff);
  f64("hierarchy.dram_average_latency", a.hierarchy.dram_average_latency,
      b.hierarchy.dram_average_latency, diff);
  return diff;
}

std::optional<std::string> check_ledger(const BatchRun& run) {
  if (!run.ledger_live) return std::nullopt;
  const std::uint64_t reported = reported_accesses(run.results);
  if (run.l1_hits + run.l1_misses + run.replayed == reported) return std::nullopt;
  std::ostringstream os;
  os << "ledger: sim.l1.hit " << run.l1_hits << " + sim.l1.miss " << run.l1_misses
     << " + replayed " << run.replayed << " != reported accesses " << reported;
  return os.str();
}

TEST(KernelEquivalenceProperty, MatchesReferenceAtRandomWidths) {
  check::Property<KernelScenario> property;
  property.name = "kernel_vs_reference";
  property.generate = gen_kernel_scenario;
  property.print = print_kernel_scenario;
  property.shrink = shrink_kernel_scenario;
  property.holds = [](const KernelScenario& s) -> std::optional<std::string> {
    const BatchRun run = run_batch(s);
    if (run.results.size() != s.width) return std::string("result count mismatch");
    // Ledger first: the reference kernel below bumps the same counters.
    if (auto failure = check_ledger(run)) return failure;
    if (run.kernel.simd_steps == 0) return std::string("kernel reported zero steps");
    std::vector<Trace> traces;
    traces.reserve(s.cores);
    for (std::uint32_t c = 0; c < s.cores; ++c)
      traces.push_back(make_stream(s, c)->generate(s.window));
    for (std::size_t m = 0; m < s.width; ++m) {
      const sim::SystemResult reference = sim::simulate_system_reference(s.configs[m], traces);
      if (auto diff = diff_member(run.results[m], reference))
        return "member " + std::to_string(m) + ": " + *diff;
    }
    return std::nullopt;
  };

  check::CheckOptions options;
  options.cases = 40;
  const check::CheckResult result = check::check(property, check::options_from_env(options));
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_GT(result.cases_run, 0u);
}

}  // namespace
}  // namespace c2b
