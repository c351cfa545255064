// Persistent SimCache benchmark: the cross-run warm-start headline. One
// Fig.-12-scale factorial study (make_large_axes) runs cold with a disk
// tier attached, then again after an emulated process restart (memory
// tier dropped, same cache directory re-attached). The warm-restart sweep
// must reproduce the cold optimum bitwise while simulating nothing — every
// point is served from the disk tier (100% disk-hit rate is asserted, not
// just measured) — and the wall-clock ratio is emitted to
// BENCH_persistent_cache.json for the perf-smoke CI gate: `speedup` is a
// floor, `max_disk_misses` and `max_simulations` are hard zeros, so losing
// the disk tier (speedup collapses to 1x) or its key stability (misses
// creep in) trips CI. A third, in-memory warm sweep (no restart) is
// measured for the report's memory-vs-disk attribution story.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench_util.h"
#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/trace/workloads.h"

namespace c2b::bench {
namespace {

namespace fs = std::filesystem;

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

struct Measurement {
  std::size_t grid_points = 0;
  std::size_t feasible = 0;
  std::size_t simulations_cold = 0;
  std::size_t simulations_warm = 0;
  std::uint64_t disk_entries = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t warm_misses = 0;
  double cold_ms = 0.0;
  double warm_restart_ms = 0.0;
  double warm_memory_ms = 0.0;
  double speedup = 0.0;
  double memory_speedup = 0.0;
  double disk_hit_rate_pct = 0.0;
};

int run_study(const std::string& cache_dir, Measurement& m) {
  // Same scaled Fig.-12 study as bench_surrogate_dse, so the two headline
  // numbers are comparable on the same landscape.
  DseContext context;
  context.workload = make_stencil_workload(96);
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.instructions0 = 4'000;
  context.per_core_cap = 2'000;
  context.chip.total_area = 10.0;
  context.chip.shared_area = 2.0;
  const GridSpace space = make_design_space(make_large_axes());
  m.grid_points = space.size();

  exec::SimCache& cache = exec::SimCache::global();
  cache.set_enabled(true);
  cache.detach_disk_tier();
  cache.clear();
  fs::remove_all(cache_dir);
  if (!cache.attach_disk_tier(cache_dir)) {
    std::fprintf(stderr, "cannot attach cache dir '%s'\n", cache_dir.c_str());
    return 1;
  }

  auto start = std::chrono::steady_clock::now();
  const FullDseResult cold = run_full_dse(context, space);
  m.cold_ms = wall_ms(start);
  m.feasible = cold.feasible_count;
  m.simulations_cold = cold.batch.members;  // design points actually simulated
  cache.flush_disk();

  // Emulated process restart: memory tier and counters gone, the same
  // directory re-attached — exactly what a new `c2b dse` invocation with
  // C2B_SIM_CACHE_DIR sees.
  cache.detach_disk_tier();
  cache.clear();
  if (!cache.attach_disk_tier(cache_dir)) {
    std::fprintf(stderr, "cannot re-attach cache dir '%s'\n", cache_dir.c_str());
    return 1;
  }
  m.disk_entries = cache.stats().disk_entries;

  start = std::chrono::steady_clock::now();
  const FullDseResult warm = run_full_dse(context, space);
  m.warm_restart_ms = wall_ms(start);
  m.simulations_warm = warm.batch.members;

  const exec::SimCacheStats stats = cache.stats();
  m.disk_hits = stats.disk_hits;
  m.warm_misses = stats.misses;
  const std::uint64_t probes = stats.hits + stats.disk_hits + stats.misses;
  m.disk_hit_rate_pct =
      probes > 0 ? 100.0 * static_cast<double>(stats.disk_hits) / static_cast<double>(probes)
                 : 0.0;

  // Identity first: a fast wrong answer is not a speedup.
  if (warm.best_index != cold.best_index || !bits_equal(warm.best_time, cold.best_time)) {
    std::fprintf(stderr, "warm-restart optimum diverged: %zu (%.17g) vs cold %zu (%.17g)\n",
                 warm.best_index, warm.best_time, cold.best_index, cold.best_time);
    return 1;
  }
  if (m.simulations_warm != 0 || m.warm_misses != 0) {
    std::fprintf(stderr,
                 "warm restart was not fully disk-served: %zu simulations, "
                 "%llu misses (disk entries %llu)\n",
                 m.simulations_warm, static_cast<unsigned long long>(m.warm_misses),
                 static_cast<unsigned long long>(m.disk_entries));
    return 1;
  }

  // Third sweep, same process: the memory tier now holds every promoted
  // point, so this is the in-memory peel path the report attributes
  // separately from the disk tier.
  start = std::chrono::steady_clock::now();
  const FullDseResult mem = run_full_dse(context, space);
  m.warm_memory_ms = wall_ms(start);
  if (mem.best_index != cold.best_index || !bits_equal(mem.best_time, cold.best_time)) {
    std::fprintf(stderr, "in-memory warm optimum diverged\n");
    return 1;
  }

  m.speedup = m.warm_restart_ms > 0.0 ? m.cold_ms / m.warm_restart_ms : 0.0;
  m.memory_speedup = m.warm_memory_ms > 0.0 ? m.cold_ms / m.warm_memory_ms : 0.0;

  cache.detach_disk_tier();
  cache.clear();
  fs::remove_all(cache_dir);
  return 0;
}

}  // namespace
}  // namespace c2b::bench

int main() {
  using namespace c2b;
  using namespace c2b::bench;

  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("c2b-bench-persistent-cache-" + std::to_string(getpid())))
          .string();
  Measurement m;
  if (run_study(cache_dir, m) != 0) {
    std::filesystem::remove_all(cache_dir);
    return 1;
  }

  Table table({"scenario", "grid", "feasible", "cold (ms)", "warm restart (ms)",
               "warm memory (ms)", "speedup", "disk hit %"},
              2);
  table.add_row({std::string("warm_restart_dse"), static_cast<std::int64_t>(m.grid_points),
                 static_cast<std::int64_t>(m.feasible), m.cold_ms, m.warm_restart_ms,
                 m.warm_memory_ms, m.speedup, m.disk_hit_rate_pct});
  print_table("Persistent SimCache: cold vs warm-restart DSE (same directory)", table);

  if (std::FILE* out = std::fopen("BENCH_persistent_cache.json", "w")) {
    std::fprintf(out, "{\n  \"bench\": \"persistent_cache\",\n  \"scenarios\": [\n");
    std::fprintf(out,
                 "    {\"name\": \"warm_restart_dse\", \"grid_points\": %zu, "
                 "\"feasible\": %zu, \"simulations_cold\": %zu, \"simulations\": %zu, "
                 "\"disk_entries\": %llu, \"disk_hits\": %llu, \"disk_misses\": %llu, "
                 "\"cold_ms\": %.3f, \"warm_restart_ms\": %.3f, \"warm_memory_ms\": %.3f, "
                 "\"speedup\": %.3f, \"memory_speedup\": %.3f, "
                 "\"disk_hit_rate_pct\": %.3f}\n",
                 m.grid_points, m.feasible, m.simulations_cold, m.simulations_warm,
                 static_cast<unsigned long long>(m.disk_entries),
                 static_cast<unsigned long long>(m.disk_hits),
                 static_cast<unsigned long long>(m.warm_misses), m.cold_ms,
                 m.warm_restart_ms, m.warm_memory_ms, m.speedup, m.memory_speedup,
                 m.disk_hit_rate_pct);
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[json] BENCH_persistent_cache.json\n");
  }
  return 0;
}
