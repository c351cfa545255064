// Surrogate-guided sweep pruning benchmark: one Fig.-12-scale factorial
// study (make_large_axes, ~10^5 raw points) swept exhaustively and with
// context.surrogate_enabled, cold cache both ways. The surrogate run is
// identity-checked against the exhaustive optimum first (same grid index,
// bitwise-equal time — the `surrogate` oracle family proves this on seeded
// spaces, the bench re-asserts it on the measured one), then the wall-clock
// ratio and the fraction of trace classes the pruner actually simulated are
// emitted to BENCH_surrogate_dse.json for the perf-smoke CI gate: `speedup`
// is a floor and `max_classes_simulated_pct` a hard ceiling, so losing
// either the pruning (speedup collapses toward 1x) or the band logic
// (classes_simulated_pct creeps toward 100) trips CI.
//
// A second scenario A/Bs Mlp::predict against Mlp::predict_batch on a
// surrogate-sized query stream. Both run the same forward kernel; the
// batch path maps the queries over the global pool (one activation scratch
// per chunk, each prediction written to its own slot) while the per-call
// loop runs on one thread, so the ratio scales with the pool width (~1x at
// one thread). It must not regress against per-call prediction.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "c2b/ann/mlp.h"
#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/trace/workloads.h"

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

/// The measured study: a memory-stratified stencil on the Fig.-12-scale
/// grid with an area budget that keeps classes N=1..12 feasible — the
/// slow small-N classes are several times off the incumbent, which is
/// exactly the landscape the class pruner is built for. (A flat landscape
/// is the worst case: nothing prunes and the surrogate degrades to ~1x,
/// see DESIGN.md.)
struct SweepMeasurement {
  std::size_t grid_points = 0;
  std::size_t feasible = 0;
  std::size_t classes_total = 0;
  std::size_t classes_simulated = 0;
  double exhaustive_ms = 0.0;
  double surrogate_ms = 0.0;
  double speedup = 0.0;
  double classes_simulated_pct = 0.0;
  double points_simulated_pct = 0.0;
  double mre = 0.0;
};

int run_sweep(SweepMeasurement& m) {
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

  // Cold cache for both paths; the sweeps are long enough that one timed
  // run per path is stable (and the exhaustive side is too heavy to rep).
  exec::SimCache::global().set_enabled(false);

  auto start = std::chrono::steady_clock::now();
  const FullDseResult exhaustive = run_full_dse(context, space);
  m.exhaustive_ms = wall_ms(start);

  DseContext surrogate_context = context;
  surrogate_context.surrogate_enabled = true;
  start = std::chrono::steady_clock::now();
  const FullDseResult surrogate = run_full_dse(surrogate_context, space);
  m.surrogate_ms = wall_ms(start);

  if (surrogate.best_index != exhaustive.best_index ||
      !bits_equal(surrogate.best_time, exhaustive.best_time)) {
    std::fprintf(stderr,
                 "surrogate optimum diverged: %zu (%.17g) vs exhaustive %zu (%.17g)\n",
                 surrogate.best_index, surrogate.best_time, exhaustive.best_index,
                 exhaustive.best_time);
    return 1;
  }

  m.grid_points = space.size();
  m.feasible = exhaustive.feasible_count;
  m.classes_total = surrogate.surrogate.classes_total;
  m.classes_simulated = surrogate.surrogate.classes_simulated;
  m.speedup = m.surrogate_ms > 0.0 ? m.exhaustive_ms / m.surrogate_ms : 0.0;
  m.classes_simulated_pct =
      100.0 * static_cast<double>(surrogate.surrogate.classes_simulated) /
      static_cast<double>(surrogate.surrogate.classes_total);
  m.points_simulated_pct =
      100.0 * static_cast<double>(surrogate.surrogate.points_simulated) /
      static_cast<double>(surrogate.surrogate.points_total);
  m.mre = surrogate.surrogate.mre;
  return 0;
}

struct PredictMeasurement {
  std::size_t queries = 0;
  double per_call_ms = 0.0;
  double batch_ms = 0.0;
  double speedup = 0.0;
};

int run_predict_ab(PredictMeasurement& m) {
  // A surrogate-shaped net ({6,16,16,1}) on a smooth 6-dimensional target,
  // queried with a space-sized batch — the shape predict_batch exists for.
  MlpConfig config;
  config.layer_sizes = {6, 16, 16, 1};
  config.seed = 21;
  Mlp mlp(config);
  Rng rng(31);
  std::vector<Vector> train_x;
  std::vector<double> train_y;
  for (int i = 0; i < 256; ++i) {
    Vector x(6);
    double y = 1.0;
    for (std::size_t d = 0; d < 6; ++d) {
      x[d] = rng.uniform(0.25, 4.0);
      y += (d % 2 == 0 ? 1.0 : -0.5) * std::log2(x[d]);
    }
    train_x.push_back(std::move(x));
    train_y.push_back(y);
  }
  mlp.fit(train_x, train_y, 200);

  constexpr std::size_t kQueries = 100'000;
  std::vector<Vector> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    Vector x(6);
    for (std::size_t d = 0; d < 6; ++d) x[d] = rng.uniform(0.25, 4.0);
    queries.push_back(std::move(x));
  }
  m.queries = kQueries;

  constexpr int kReps = 3;
  m.per_call_ms = 1e300;
  m.batch_ms = 1e300;
  double sink = 0.0;
  std::vector<double> batch;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (const Vector& q : queries) sink += mlp.predict(q);
    m.per_call_ms = std::min(m.per_call_ms, wall_ms(start));
    start = std::chrono::steady_clock::now();
    batch = mlp.predict_batch(queries);
    m.batch_ms = std::min(m.batch_ms, wall_ms(start));
  }
  for (std::size_t i = 0; i < queries.size(); ++i)
    if (!bits_equal(batch[i], mlp.predict(queries[i]))) {
      std::fprintf(stderr, "predict_batch diverged from predict at query %zu\n", i);
      return 1;
    }
  benchmark::DoNotOptimize(sink);
  m.speedup = m.batch_ms > 0.0 ? m.per_call_ms / m.batch_ms : 0.0;
  return 0;
}

}  // namespace
}  // namespace c2b::bench

int main() {
  using namespace c2b;
  using namespace c2b::bench;

  SweepMeasurement sweep;
  if (run_sweep(sweep) != 0) return 1;
  PredictMeasurement predict;
  if (run_predict_ab(predict) != 0) return 1;

  Table table({"scenario", "grid", "feasible", "exhaustive (ms)", "surrogate (ms)",
               "speedup", "classes sim %", "points sim %"},
              2);
  table.add_row({std::string("surrogate_stencil"), static_cast<std::int64_t>(sweep.grid_points),
                 static_cast<std::int64_t>(sweep.feasible), sweep.exhaustive_ms,
                 sweep.surrogate_ms, sweep.speedup, sweep.classes_simulated_pct,
                 sweep.points_simulated_pct});
  print_table("Surrogate-guided DSE vs exhaustive sweep (cold cache)", table);

  Table ab({"scenario", "queries", "per-call (ms)", "batch (ms)", "speedup"}, 2);
  ab.add_row({std::string("mlp_predict_batch"), static_cast<std::int64_t>(predict.queries),
              predict.per_call_ms, predict.batch_ms, predict.speedup});
  print_table("Mlp::predict vs Mlp::predict_batch", ab);

  if (std::FILE* out = std::fopen("BENCH_surrogate_dse.json", "w")) {
    std::fprintf(out, "{\n  \"bench\": \"surrogate_dse\",\n  \"scenarios\": [\n");
    std::fprintf(out,
                 "    {\"name\": \"surrogate_stencil\", \"grid_points\": %zu, "
                 "\"feasible\": %zu, \"classes_total\": %zu, \"classes_simulated\": %zu, "
                 "\"exhaustive_ms\": %.3f, \"surrogate_ms\": %.3f, \"speedup\": %.3f, "
                 "\"classes_simulated_pct\": %.3f, \"points_simulated_pct\": %.3f, "
                 "\"mre\": %.4f},\n",
                 sweep.grid_points, sweep.feasible, sweep.classes_total,
                 sweep.classes_simulated, sweep.exhaustive_ms, sweep.surrogate_ms,
                 sweep.speedup, sweep.classes_simulated_pct, sweep.points_simulated_pct,
                 sweep.mre);
    std::fprintf(out,
                 "    {\"name\": \"mlp_predict_batch\", \"queries\": %zu, "
                 "\"per_call_ms\": %.3f, \"batch_ms\": %.3f, \"speedup\": %.3f}\n",
                 predict.queries, predict.per_call_ms, predict.batch_ms, predict.speedup);
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[json] BENCH_surrogate_dse.json\n");
  }
  return 0;
}
