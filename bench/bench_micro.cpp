// Component micro-benchmarks: throughput of every substrate the
// reproduction is built on. These are the numbers that determine how big a
// design space the APS/full-factorial machinery can traverse per second.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "c2b/ann/mlp.h"
#include "c2b/aps/dse.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/linalg/matrix.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/cache/cache.h"
#include "c2b/sim/dram/dram.h"
#include "c2b/sim/noc/noc.h"
#include "c2b/sim/system/system.h"
#include "c2b/solver/minimize.h"
#include "c2b/solver/newton.h"
#include "c2b/trace/generators.h"
#include "c2b/trace/reuse.h"
#include "obs_overhead_kernel.h"

namespace c2b {
namespace {

// ---------------------------------------------------------------------------
// Cache substrate

void bm_cache_probe_hit(benchmark::State& state) {
  sim::CacheArray cache({.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8});
  for (std::uint64_t line = 0; line < 512; ++line) cache.fill(line * 64);
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.probe(address));
    address = (address + 64) % (512 * 64);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cache_probe_hit);

void bm_cache_fill_evict(benchmark::State& state) {
  sim::CacheArray cache({.size_bytes = 8 * 1024, .line_bytes = 64, .associativity = 4});
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.fill(address));
    address += 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cache_fill_evict);

// SimCache::find_many as the DSE cache-peel loop uses it: one call probes
// a 256-key batch at a 50% hit rate (one lock take per shard).
void bm_simcache_probe_batch(benchmark::State& state) {
  exec::SimCache cache(1 << 12);
  constexpr std::size_t kBatch = 256;
  std::vector<std::string> keys;
  keys.reserve(kBatch);
  std::vector<std::pair<std::string, exec::SimCache::Value>> seeded;
  for (std::size_t i = 0; i < kBatch; ++i) {
    std::string key = "n=4 a0=1 a1=0.5 a2=1 probe=";
    key += std::to_string(i);
    keys.push_back(key);
    if (i % 2 == 0) seeded.emplace_back(key, exec::SimCache::Value{static_cast<double>(i), i});
  }
  cache.insert_many(seeded);
  for (auto _ : state) benchmark::DoNotOptimize(cache.find_many(keys));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(bm_simcache_probe_batch);

void bm_mshr_request(benchmark::State& state) {
  sim::MshrFile mshr(16);
  std::uint64_t line = 0, cycle = 0;
  for (auto _ : state) {
    const auto grant = mshr.request(line, cycle);
    mshr.complete(line, grant.start_cycle + 100);
    ++line;
    cycle += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_mshr_request);

// ---------------------------------------------------------------------------
// DRAM / NoC

void bm_dram_access(benchmark::State& state) {
  sim::DramModel dram(sim::DramConfig{});
  Rng rng(1);
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dram.access(rng.uniform_below(1 << 20), cycle));
    cycle += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_dram_access);

void bm_noc_round_trip(benchmark::State& state) {
  sim::MeshNoc noc({.nodes = 64});
  std::uint32_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(noc.round_trip(src, 63 - src));
    src = (src + 1) % 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_noc_round_trip);

// ---------------------------------------------------------------------------
// Trace substrate

void bm_zipf_generator(benchmark::State& state) {
  ZipfStreamGenerator::Params p;
  p.f_mem = 0.5;
  ZipfStreamGenerator generator(p);
  for (auto _ : state) benchmark::DoNotOptimize(generator.next().address);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_zipf_generator);

void bm_stack_distance(benchmark::State& state) {
  StackDistanceAnalyzer analyzer(64);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.access(rng.zipf(1 << 16, 0.8) * 64));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_stack_distance);

// ---------------------------------------------------------------------------
// End-to-end simulator

void bm_simulate_system(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  sim::SystemConfig config;
  config.hierarchy.cores = cores;
  config.hierarchy.noc.nodes = std::max(4u, cores);
  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < cores; ++c) {
    ZipfStreamGenerator::Params p;
    p.f_mem = 0.4;
    p.seed = c + 1;
    traces.push_back(ZipfStreamGenerator(p).generate(20'000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_system(config, traces).cycles);
  }
  state.SetItemsProcessed(state.iterations() * 20'000 * cores);
}
BENCHMARK(bm_simulate_system)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Solvers

void bm_newton_2x2(benchmark::State& state) {
  ResidualFn f = [](const Vector& v) {
    return Vector{v[0] * v[0] + v[1] * v[1] - 4.0, v[0] * v[1] - 1.0};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(newton_solve(f, {2.0, 0.3}).residual_norm);
  }
}
BENCHMARK(bm_newton_2x2);

void bm_nelder_mead_rosenbrock(benchmark::State& state) {
  MultiFn rosenbrock = [](const Vector& v) {
    const double a = 1.0 - v[0];
    const double b = v[1] - v[0] * v[0];
    return a * a + 100.0 * b * b;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(nelder_mead_minimize(rosenbrock, {-1.2, 1.0}).value);
  }
  state.SetLabel("rosenbrock 2d");
}
BENCHMARK(bm_nelder_mead_rosenbrock)->Unit(benchmark::kMicrosecond);

void bm_lu_solve_8x8(benchmark::State& state) {
  Rng rng(9);
  Matrix a(8, 8);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) a(r, c) = rng.normal() + (r == c ? 4.0 : 0.0);
  const Vector b(8, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(lu_solve(a, b)[0]);
}
BENCHMARK(bm_lu_solve_8x8);

// ---------------------------------------------------------------------------
// ANN

void bm_mlp_train_epoch(benchmark::State& state) {
  MlpConfig config;
  config.layer_sizes = {6, 16, 16, 1};
  Mlp mlp(config);
  Rng rng(3);
  std::vector<Vector> x;
  std::vector<double> y;
  for (int i = 0; i < 128; ++i) {
    Vector v(6);
    for (double& d : v) d = rng.uniform(-1, 1);
    x.push_back(v);
    y.push_back(v[0] * v[1] + v[2]);
  }
  mlp.fit(x, y, 1);  // fit scaler
  for (auto _ : state) benchmark::DoNotOptimize(mlp.train_epoch(x, y));
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(bm_mlp_train_epoch)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Telemetry overhead

void bm_obs_kernel(benchmark::State& state) {
  const auto variant = state.range(0);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    switch (variant) {
      case 0: acc = bench::obs_kernel_plain(4096); break;
      default: acc = bench::obs_kernel_instrumented(4096); break;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(variant == 0 ? "plain" : "instrumented");
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(bm_obs_kernel)->Arg(0)->Arg(1);

void bm_simulate_system_obs(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  sim::SystemConfig config;
  config.hierarchy.cores = 4;
  config.hierarchy.noc.nodes = 4;
  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < 4; ++c) {
    ZipfStreamGenerator::Params p;
    p.f_mem = 0.4;
    p.seed = c + 1;
    traces.push_back(ZipfStreamGenerator(p).generate(20'000));
  }
  obs::set_enabled(obs_on);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_system(config, traces).cycles);
  }
  obs::set_enabled(true);
  state.SetLabel(obs_on ? "telemetry on" : "telemetry off");
}
BENCHMARK(bm_simulate_system_obs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

using Clock = std::chrono::steady_clock;

struct AbResult {
  double a_ms = 0.0;  ///< median time of the baseline side
  double b_ms = 0.0;  ///< median time of the measured side
  double overhead_pct = 0.0;
};

/// A/B of `run(true)` (the measured side) over `run(false)` (the baseline):
/// `rounds` adjacent pairs, alternating which side runs first, and the
/// median of the per-pair ratios. Noise on a shared host comes in bursts of
/// one run to seconds; a burst slows both halves of a pair, while the
/// per-side minimum rests on one lucky run each and swung +/-11% on a
/// shared 4-core VM for a change with no real cost.
AbResult paired_ab(int rounds, const std::function<double(bool)>& run) {
  run(true);  // warm-up: caches, registry slots, trace buffers
  run(false);
  std::vector<double> a, b, ratio;
  for (int r = 0; r < rounds; ++r) {
    double ta, tb;
    if (r % 2 == 0) {
      tb = run(true);
      ta = run(false);
    } else {
      ta = run(false);
      tb = run(true);
    }
    a.push_back(ta);
    b.push_back(tb);
    ratio.push_back(tb / ta);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(a) * 1e3, median(b) * 1e3, (median(ratio) - 1.0) * 100.0};
}

/// Direct A/B measurement of the telemetry cost on the trace-driven
/// simulator hot loop, printed before the google-benchmark cases so the
/// headline number (<2% target) is always visible.
void report_obs_overhead() {
  sim::SystemConfig config;
  config.hierarchy.cores = 4;
  config.hierarchy.noc.nodes = 4;
  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < 4; ++c) {
    ZipfStreamGenerator::Params p;
    p.f_mem = 0.4;
    p.seed = c + 1;
    traces.push_back(ZipfStreamGenerator(p).generate(20'000));
  }

  const AbResult toggle = paired_ab(101, [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const auto begin = Clock::now();
    benchmark::DoNotOptimize(sim::simulate_system(config, traces).cycles);
    const double seconds = std::chrono::duration<double>(Clock::now() - begin).count();
    obs::set_enabled(true);
    return seconds;
  });
  std::printf("telemetry overhead on simulate_system (4 cores, 20k instr/core):\n");
  std::printf("  enabled  %.3f ms | runtime-disabled %.3f ms | overhead %+.2f%% (target < 2%%)\n",
              toggle.b_ms, toggle.a_ms, toggle.overhead_pct);

  // The batched sweep the two scenarios below share. The sim cache is
  // cleared before every run so each run does the full simulation work (a
  // warm cache would peel everything and leave nothing to perturb).
  DseContext context;
  for (const WorkloadSpec& spec : workload_catalog())
    if (spec.name == "stencil") context.workload = spec;
  context.instructions0 = 20'000;
  context.per_core_cap = 5'000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  DseAxes axes;
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  std::vector<std::vector<double>> points;
  make_design_space(axes).for_each([&](std::size_t, const std::vector<double>& point) {
    if (design_feasible(context, point)) points.push_back(point);
  });
  auto run_sweep = [&] {
    exec::SimCache::global().clear();
    const auto begin = Clock::now();
    benchmark::DoNotOptimize(simulate_design_times_batched(context, points).size());
    return std::chrono::duration<double>(Clock::now() - begin).count();
  };

  // Flight-recorder A/B: the sweep with and without an active journal.
  const char* journal_path = "BENCH_obs_journal.tmp.jsonl";
  const AbResult journal = paired_ab(31, [&](bool with_journal) {
    std::unique_ptr<obs::RunJournal> recorder;
    if (with_journal) {
      recorder = obs::RunJournal::open(journal_path);
      obs::set_active_journal(recorder.get());
    }
    const double seconds = run_sweep();
    obs::set_active_journal(nullptr);
    return seconds;
  });
  std::remove(journal_path);
  std::printf("flight recorder overhead on batched sweep (%zu points, cold cache):\n",
              points.size());
  std::printf("  journal on %.3f ms | off %.3f ms | overhead %+.2f%% (target < 2%%)\n\n",
              journal.b_ms, journal.a_ms, journal.overhead_pct);

  // Multi-thread telemetry A/B: the sweep at pool width = hardware threads,
  // so every worker simulates concurrently and any registry slot the replay
  // hot path shared would serialize them.
  const std::size_t hw_threads = std::max(1u, std::thread::hardware_concurrency());
  exec::set_thread_count(hw_threads);
  const AbResult toggle_mt = paired_ab(31, [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const double seconds = run_sweep();
    obs::set_enabled(true);
    return seconds;
  });
  exec::set_thread_count(0);
  std::printf("telemetry overhead on batched sweep (%zu points, cold cache, %zu threads):\n",
              points.size(), hw_threads);
  std::printf("  enabled  %.3f ms | runtime-disabled %.3f ms | overhead %+.2f%% (target < 2%%)\n\n",
              toggle_mt.b_ms, toggle_mt.a_ms, toggle_mt.overhead_pct);

  // Machine-readable copy for tools/check_bench_regression.py: each
  // scenario's overhead_pct is gated against the baseline's
  // max_overhead_pct ceiling (bench/baselines/BENCH_obs_overhead.json).
  if (std::FILE* out = std::fopen("BENCH_obs_overhead.json", "w")) {
    std::fprintf(out, "{\n  \"bench\": \"obs_overhead\",\n  \"scenarios\": [\n");
    std::fprintf(out,
                 "    {\"name\": \"telemetry_runtime_toggle\", \"overhead_pct\": %.4f},\n",
                 toggle.overhead_pct);
    std::fprintf(out,
                 "    {\"name\": \"telemetry_runtime_toggle_mt\", \"overhead_pct\": %.4f},\n",
                 toggle_mt.overhead_pct);
    std::fprintf(out,
                 "    {\"name\": \"sweep_journal\", \"overhead_pct\": %.4f}\n",
                 journal.overhead_pct);
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[json] BENCH_obs_overhead.json\n\n");
  }
}

}  // namespace
}  // namespace c2b

int main(int argc, char** argv) {
  c2b::report_obs_overhead();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
