// Property-based replay-kernel equivalence (ctest label: check). The one
// replay kernel (simulate_system_batched) must reproduce the per-cycle
// reference kernel (simulate_system_reference) bitwise, member by member,
// on random scenarios — random member configs, batch widths 1..16,
// workloads — over shared chunk-store streams, and must keep the telemetry
// ledger balanced: sim.l1.hit + sim.l1.miss + exec.simcache.replayed_accesses
// + exec.batch.shared_accesses == the demand accesses the results report, and each per-access histogram
// holds exactly one sample per event it describes. Each scenario replays
// concurrently on pools of 1, 2 and 8 threads, so a member whose telemetry
// is flushed twice or never, or a flush lost to a race, breaks the ledger.
// The same property runs in both replay modes: with C-AMAT (every field
// bitwise) and timing-only, the mode design replay ships (every field but
// camat bitwise, camat empty). A last test pins that the two modes publish
// identical telemetry. Complements the `kernel` oracle family; this suite
// drives the PBT engine so failures shrink and replay from a one-line repro.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "c2b/check/generators.h"
#include "c2b/check/property.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
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

/// The registry values the ledger balances.
struct Telemetry {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t replayed = 0;
  std::uint64_t shared = 0;
  std::uint64_t mshr_samples = 0;  ///< sim.l1.mshr_occupancy count
  std::uint64_t noc_samples = 0;   ///< sim.noc.round_trip_cycles count
  std::uint64_t dram_samples = 0;  ///< sim.dram.queue_depth count
};

/// One replay of the scenario per pool thread, run concurrently.
struct BatchRun {
  std::size_t threads = 1;
  std::vector<std::vector<sim::SystemResult>> replicas;  ///< one result set per replay
  std::vector<sim::BatchKernelStats> kernel;             ///< one per replay
  std::optional<Telemetry> telemetry;  ///< registry after the replays; nullopt when obs is off
};

/// The scenario's per-core stream generator.
std::unique_ptr<TraceGenerator> make_stream(const KernelScenario& s, std::uint32_t core) {
  return s.spec.make_generator(s.scale, Rng::derive_stream_seed(s.stream_seed, core));
}

/// One full batched replay over a fresh shared chunk store: per-core
/// streams generated from the scenario's workload, width x cores
/// ChunkCursors.
std::vector<sim::SystemResult> replay(const KernelScenario& s, sim::ReplayMode mode,
                                      sim::BatchKernelStats* kernel) {
  TraceChunkStore store;
  std::vector<std::size_t> stream_ids;
  stream_ids.reserve(s.cores);
  for (std::uint32_t c = 0; c < s.cores; ++c)
    stream_ids.push_back(store.add_stream(make_stream(s, c), s.window));

  std::vector<ChunkCursor> cursors;
  cursors.reserve(s.width * s.cores);
  std::vector<std::vector<TraceCursor*>> member_cursors(s.width);
  for (std::size_t m = 0; m < s.width; ++m) {
    for (std::uint32_t c = 0; c < s.cores; ++c) {
      cursors.emplace_back(store, stream_ids[c]);
      member_cursors[m].push_back(&cursors.back());
    }
  }

  return sim::simulate_system_batched(s.configs, member_cursors, mode, kernel);
}

/// `threads` concurrent replays on a pool of `threads` executors, each over
/// its own chunk store. The registry is reset first, so afterwards it holds
/// exactly these replays' flushes.
BatchRun run_batch(const KernelScenario& s, std::size_t threads, sim::ReplayMode mode) {
  BatchRun run;
  run.threads = threads;
  run.replicas.resize(threads);
  run.kernel.resize(threads);
  exec::set_thread_count(threads);
  const bool live = C2B_OBS_ACTIVE();
  obs::Registry& registry = obs::Registry::global();
  if (live) registry.reset_values();
  exec::ThreadPool::global().parallel_for(0, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) run.replicas[r] = replay(s, mode, &run.kernel[r]);
  });
  exec::set_thread_count(0);
  if (live) {
    Telemetry t;
    t.l1_hits = registry.counter("sim.l1.hit").value();
    t.l1_misses = registry.counter("sim.l1.miss").value();
    t.l2_hits = registry.counter("sim.l2.hit").value();
    t.l2_misses = registry.counter("sim.l2.miss").value();
    t.replayed = registry.counter("exec.simcache.replayed_accesses").value();
    t.shared = registry.counter("exec.batch.shared_accesses").value();
    t.mshr_samples = registry.histogram("sim.l1.mshr_occupancy", 0.0, 64.0, 64).count();
    t.noc_samples = registry.histogram("sim.noc.round_trip_cycles", 0.0, 256.0, 64).count();
    t.dram_samples = registry.histogram("sim.dram.queue_depth", 0.0, 64.0, 64).count();
    run.telemetry = t;
  }
  return run;
}

/// First field-level difference between a replayed member `a` and its
/// reference `b` (bit patterns for doubles — the contract is bit-identity,
/// not closeness). A timing-only `a` must instead carry an empty camat.
std::optional<std::string> diff_member(const sim::SystemResult& a, const sim::SystemResult& b,
                                       sim::ReplayMode mode) {
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
    if (mode == sim::ReplayMode::kTimingOnly) {
      u64("timing-only camat.accesses", x.camat.accesses, 0, diff);
    } else {
      u64("camat.accesses", x.camat.accesses, y.camat.accesses, diff);
      u64("camat.misses", x.camat.misses, y.camat.misses, diff);
      u64("camat.pure_misses", x.camat.pure_misses, y.camat.pure_misses, diff);
      u64("camat.memory_active_cycles", x.camat.memory_active_cycles,
          y.camat.memory_active_cycles, diff);
      f64("camat.amat_value", x.camat.amat_value, y.camat.amat_value, diff);
      f64("camat.camat_value", x.camat.camat_value, y.camat.camat_value, diff);
    }
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

/// Every registry total must rebuild from what the replays' results report,
/// which holds only if each member flushed exactly once.
std::optional<std::string> check_ledger(const BatchRun& run) {
  if (!run.telemetry) return std::nullopt;
  std::uint64_t accesses = 0, l2_accesses = 0, dram_accesses = 0;
  for (const std::vector<sim::SystemResult>& results : run.replicas) {
    for (const sim::SystemResult& result : results) {
      for (const sim::CoreResult& core : result.cores) accesses += core.memory_accesses;
      l2_accesses += result.hierarchy.l2_accesses;
      dram_accesses += result.hierarchy.dram_accesses;
    }
  }
  const Telemetry& t = *run.telemetry;
  const std::uint64_t l2_counted = t.l2_hits + t.l2_misses;
  std::optional<std::string> failure;
  auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (failure || got == want) return;
    std::ostringstream os;
    os << "ledger at " << run.threads << " threads: " << what << ": " << got << " != " << want;
    failure = os.str();
  };
  expect("sim.l1.hit + sim.l1.miss + replayed + shared vs reported accesses",
         t.l1_hits + t.l1_misses + t.replayed + t.shared, accesses);
  expect("sim.l1.mshr_occupancy count vs sim.l1.miss", t.mshr_samples, t.l1_misses);
  expect("sim.noc.round_trip_cycles count vs sim.l2.hit + sim.l2.miss", t.noc_samples,
         l2_counted);
  expect("sim.l2.hit + sim.l2.miss vs reported l2_accesses", l2_counted, l2_accesses);
  expect("sim.dram.queue_depth count vs reported dram_accesses", t.dram_samples, dram_accesses);
  return failure;
}

/// Every member of every replay at pool widths {1, 2, 8} matches the
/// reference in `mode`'s fields, with a balanced ledger at each width.
check::CheckResult check_kernel_vs_reference(const char* name, sim::ReplayMode mode) {
  check::Property<KernelScenario> property;
  property.name = name;
  property.generate = gen_kernel_scenario;
  property.print = print_kernel_scenario;
  property.shrink = shrink_kernel_scenario;
  property.holds = [mode](const KernelScenario& s) -> std::optional<std::string> {
    std::vector<BatchRun> runs;
    for (const std::size_t threads : {1, 2, 8}) {
      const BatchRun& run = runs.emplace_back(run_batch(s, threads, mode));
      for (std::size_t r = 0; r < threads; ++r) {
        if (run.replicas[r].size() != s.width) return std::string("result count mismatch");
        if (run.kernel[r].simd_steps == 0) return std::string("kernel reported zero steps");
      }
      // Ledger before the reference runs: they flush into the same slots.
      if (auto failure = check_ledger(run)) return failure;
    }
    std::vector<Trace> traces;
    traces.reserve(s.cores);
    for (std::uint32_t c = 0; c < s.cores; ++c)
      traces.push_back(make_stream(s, c)->generate(s.window));
    for (std::size_t m = 0; m < s.width; ++m) {
      const sim::SystemResult reference = sim::simulate_system_reference(s.configs[m], traces);
      for (const BatchRun& run : runs) {
        for (std::size_t r = 0; r < run.threads; ++r) {
          if (auto diff = diff_member(run.replicas[r][m], reference, mode))
            return "member " + std::to_string(m) + " (threads " + std::to_string(run.threads) +
                   ", replay " + std::to_string(r) + "): " + *diff;
        }
      }
    }
    return std::nullopt;
  };

  check::CheckOptions options;
  options.cases = 40;
  return check::check(property, check::options_from_env(options));
}

TEST(KernelEquivalenceProperty, MatchesReferenceAtRandomWidths) {
  const check::CheckResult result =
      check_kernel_vs_reference("kernel_vs_reference", sim::ReplayMode::kWithCamat);
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_GT(result.cases_run, 0u);
}

TEST(KernelEquivalenceProperty, TimingOnlyMatchesReferenceAtRandomWidths) {
  const check::CheckResult result =
      check_kernel_vs_reference("timing_only_vs_reference", sim::ReplayMode::kTimingOnly);
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_GT(result.cases_run, 0u);
}

/// The registry after one replay: every sim.* and exec.batch.* counter, and
/// the sample count, sum bits and buckets of the kernel's histograms.
struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> histogram_counts;
  std::map<std::string, std::uint64_t> histogram_sum_bits;
  std::map<std::string, std::vector<std::pair<double, std::uint64_t>>> histogram_buckets;
};

RegistryDelta replay_delta(const KernelScenario& s, sim::ReplayMode mode) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset_values();
  sim::BatchKernelStats kernel;
  (void)replay(s, mode, &kernel);
  RegistryDelta delta;
  for (const obs::MetricSample& sample : registry.snapshot()) {
    const std::string& name = sample.name;
    if (sample.kind == obs::MetricSample::Kind::kCounter &&
        (name.starts_with("sim.") || name.starts_with("exec.batch.")))
      delta.counters[name] = sample.count;
    if (sample.kind == obs::MetricSample::Kind::kHistogram &&
        (name == "sim.core.rob_occupancy" || name == "sim.l1.mshr_occupancy" ||
         name == "sim.noc.round_trip_cycles" || name == "sim.dram.queue_depth")) {
      delta.histogram_counts[name] = sample.count;
      delta.histogram_sum_bits[name] = std::bit_cast<std::uint64_t>(sample.value);
      delta.histogram_buckets[name] = sample.buckets;
    }
  }
  return delta;
}

TEST(KernelTelemetryIdentity, TimingOnlyRegistryDeltasMatchCamatReplay) {
  // A 4-core, 4-member chunk-store batch long enough to fold the detectors
  // many times and to reach L2, DRAM and the NoC.
  KernelScenario s;
  s.spec = make_fluidanimate_like_workload();
  s.stream_seed = 17;
  s.window = 30'000;
  s.cores = 4;
  s.width = 4;
  const std::uint32_t issues[] = {1, 2, 4, 4};
  const std::uint32_t robs[] = {16, 64, 128, 256};
  for (std::size_t m = 0; m < s.width; ++m) {
    sim::SystemConfig config;
    config.hierarchy.cores = s.cores;
    config.hierarchy.l1_geometry.size_bytes = 4 * 1024;
    config.hierarchy.l2_geometry.size_bytes = 64 * 1024;
    config.core.issue_width = issues[m];
    config.core.rob_size = robs[m];
    s.configs.push_back(config);
  }

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const RegistryDelta camat = replay_delta(s, sim::ReplayMode::kWithCamat);
  const RegistryDelta timing = replay_delta(s, sim::ReplayMode::kTimingOnly);
  obs::set_enabled(was_enabled);

  EXPECT_EQ(timing.counters, camat.counters);
  EXPECT_EQ(timing.histogram_counts, camat.histogram_counts);
  EXPECT_EQ(timing.histogram_sum_bits, camat.histogram_sum_bits);
  EXPECT_EQ(timing.histogram_buckets, camat.histogram_buckets);
  // Non-vacuous: the batch exercised the kernel and every histogram.
  const auto value_of = [](const std::map<std::string, std::uint64_t>& values,
                           const std::string& name) -> std::uint64_t {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  };
  EXPECT_GT(value_of(camat.counters, "exec.batch.simd.steps"), 0u);
  for (const char* name : {"sim.core.rob_occupancy", "sim.l1.mshr_occupancy",
                           "sim.noc.round_trip_cycles", "sim.dram.queue_depth"})
    EXPECT_GT(value_of(camat.histogram_counts, name), 0u) << name;
}

}  // namespace
}  // namespace c2b
