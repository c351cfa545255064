#include "c2b/aps/surrogate.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/common/rng.h"
#include "c2b/exec/disk_tier.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/obs.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

bool bit_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Multi-class stencil space with a steep time gradient across N: the
/// small-N classes are several times slower than the incumbent, so the
/// pruner has something real to skip, while the grid stays test-sized.
DseContext stratified_context() {
  DseContext context;
  context.base.core.issue_width = 4;
  context.base.core.rob_size = 128;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.base.hierarchy.coherence = false;
  context.workload = make_stencil_workload(64);
  context.instructions0 = 2'000;
  context.per_core_cap = 1'000;
  context.seed = 77;
  context.chip.shared_area = 2.0;
  context.chip.total_area = 10.0;
  return context;
}

DseAxes stratified_axes() {
  DseAxes axes;
  axes.a0 = {0.25, 0.5, 1.0};
  axes.a1 = {0.125, 0.25};
  axes.a2 = {0.25, 0.5};
  axes.n = {1, 2, 4, 8};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

/// Restores the process-global knobs each test twiddles.
struct ExecGuard {
  bool cache_was_enabled = exec::SimCache::global().enabled();
  ~ExecGuard() {
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(cache_was_enabled);
    exec::SimCache::global().clear();
  }
};

TEST(SurrogateSweep, EmptyPointListIsANoOp) {
  const SurrogateSweepResult result = surrogate_sweep(stratified_context(), {});
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_TRUE(result.simulated.empty());
  EXPECT_EQ(result.stats.points_total, 0u);
  EXPECT_EQ(result.stats.classes_total, 0u);
}

TEST(SurrogateSweep, MatchesExhaustiveOptimumAndPrunesClasses) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  const DseContext context = stratified_context();
  const GridSpace space = make_design_space(stratified_axes());

  const FullDseResult truth = run_full_dse(context, space);

  DseContext surrogate_context = context;
  surrogate_context.surrogate_enabled = true;
  const FullDseResult pruned = run_full_dse(surrogate_context, space);

  EXPECT_EQ(pruned.best_index, truth.best_index);
  EXPECT_TRUE(bit_equal(pruned.best_time, truth.best_time));
  EXPECT_EQ(pruned.feasible_count, truth.feasible_count);
  // Everything the surrogate simulated is bitwise the exhaustive truth;
  // pruned entries stay +infinity.
  ASSERT_EQ(pruned.times.size(), truth.times.size());
  std::size_t finite = 0;
  for (std::size_t flat = 0; flat < truth.times.size(); ++flat)
    if (std::isfinite(pruned.times[flat])) {
      EXPECT_TRUE(bit_equal(pruned.times[flat], truth.times[flat])) << "flat " << flat;
      ++finite;
    }
  EXPECT_EQ(finite, pruned.surrogate.points_simulated);
  EXPECT_GE(pruned.surrogate.classes_pruned, 1u);
  EXPECT_LT(pruned.simulations, truth.simulations);
}

TEST(SurrogateSweep, StatsAccountingIsConsistent) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  DseContext context = stratified_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(stratified_axes());
  const FullDseResult result = run_full_dse(context, space);
  const SurrogateStats& stats = result.surrogate;

  EXPECT_EQ(stats.classes_simulated + stats.classes_pruned, stats.classes_total);
  EXPECT_EQ(stats.points_total, result.feasible_count);
  EXPECT_LE(stats.points_simulated, stats.points_total);
  EXPECT_LE(stats.warmup_sims + stats.fallback_sims, stats.points_simulated);
  EXPECT_GE(stats.rounds, 1u);  // the warmup fit counts as round 1
  EXPECT_GT(stats.trained_samples, 0u);
  EXPECT_GE(stats.mre, 0.0);
  EXPECT_EQ(result.simulations, stats.points_simulated);
}

TEST(SurrogateSweep, ParetoFrontierIdenticalToExhaustive) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  const DseContext context = stratified_context();
  const GridSpace space = make_design_space(stratified_axes());

  const ParetoDseResult truth = run_pareto_dse(context, space);

  DseContext surrogate_context = context;
  surrogate_context.surrogate_enabled = true;
  const ParetoDseResult pruned = run_pareto_dse(surrogate_context, space);

  EXPECT_EQ(pruned.feasible_count, truth.feasible_count);
  ASSERT_EQ(pruned.frontier.size(), truth.frontier.size());
  for (std::size_t p = 0; p < truth.frontier.size(); ++p) {
    EXPECT_EQ(pruned.frontier[p].flat_index, truth.frontier[p].flat_index) << "point " << p;
    EXPECT_TRUE(bit_equal(pruned.frontier[p].time, truth.frontier[p].time));
    EXPECT_TRUE(bit_equal(pruned.frontier[p].power, truth.frontier[p].power));
    EXPECT_TRUE(bit_equal(pruned.frontier[p].area, truth.frontier[p].area));
  }
}

TEST(SurrogateSweep, DeterministicAcrossThreadCountsAndWarmCache) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  cache.set_enabled(false);
  DseContext context = stratified_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(stratified_axes());

  exec::set_thread_count(1);
  const FullDseResult reference = run_full_dse(context, space);

  auto expect_same = [&](const FullDseResult& other, const std::string& what) {
    EXPECT_EQ(other.best_index, reference.best_index) << what;
    EXPECT_TRUE(bit_equal(other.best_time, reference.best_time)) << what;
    ASSERT_EQ(other.times.size(), reference.times.size());
    for (std::size_t flat = 0; flat < reference.times.size(); ++flat)
      EXPECT_TRUE(bit_equal(other.times[flat], reference.times[flat]))
          << what << " flat " << flat;
    EXPECT_EQ(other.surrogate.points_simulated, reference.surrogate.points_simulated)
        << what;
    EXPECT_EQ(other.surrogate.classes_pruned, reference.surrogate.classes_pruned) << what;
    EXPECT_EQ(other.surrogate.rounds, reference.surrogate.rounds) << what;
  };

  for (const std::size_t threads : {2UL, 8UL}) {
    exec::set_thread_count(threads);
    expect_same(run_full_dse(context, space), "threads=" + std::to_string(threads));
  }

  // Warm cache: the replayed results are bitwise identical, so the
  // scheduler must take the exact same admit/prune path.
  cache.set_enabled(true);
  cache.clear();
  exec::set_thread_count(8);
  expect_same(run_full_dse(context, space), "cold cached");
  expect_same(run_full_dse(context, space), "warm replay");
}

/// The fallback ranking as a full sort: every pending point ordered by
/// (prediction, index), the first k kept.
std::vector<std::size_t> sorted_top_k(std::vector<std::size_t> pending,
                                      const std::vector<double>& predicted, std::size_t k) {
  std::sort(pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
    if (predicted[a] != predicted[b]) return predicted[a] < predicted[b];
    return a < b;
  });
  pending.resize(std::min(k, pending.size()));
  return pending;
}

TEST(SurrogateSweep, FallbackTopKMatchesFullSort) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    // Few prediction levels, so most entries tie with many others, and
    // +inf (an overflowed exp) at about one entry in five.
    const std::size_t n = rng.uniform_below(200);
    const std::uint64_t levels = 1 + rng.uniform_below(6);
    std::vector<double> predicted(n);
    for (double& p : predicted)
      p = rng.bernoulli(0.2) ? inf : 0.5 * static_cast<double>(rng.uniform_below(levels));
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.7)) pending.push_back(i);
    if (rng.bernoulli(0.5)) std::reverse(pending.begin(), pending.end());
    const std::size_t k = rng.uniform_below(n + 8);

    std::vector<std::size_t> got = fallback_top_k(pending, predicted, k);
    std::vector<std::size_t> want = sorted_top_k(pending, predicted, k);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "trial " << trial << " n " << n << " k " << k;
  }
}

/// The perfbench `dse_cold` study: the CLI's default machine on the
/// Fig.-12-scale grid, surrogate on.
DseContext dse_cold_context(std::uint64_t seed) {
  DseContext context;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.workload = make_stencil_workload();
  context.instructions0 = 20'000;
  context.per_core_cap = 10'000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  context.seed = seed;
  context.surrogate_enabled = true;
  return context;
}

TEST(SurrogateSweep, PredictsThePointListOncePerRound) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(false);
  obs::set_enabled(true);
  obs::Registry& registry = obs::Registry::global();
  registry.reset_values();
  const FullDseResult result =
      run_full_dse(dse_cold_context(99), make_design_space(make_large_axes()));
  // Each round (the warmup fit is round 1) reranks the point list once;
  // the fallback pass reuses the last round's ranking. The round count
  // follows the MLP, whose bits follow the host's libm (DESIGN.md), so
  // only "at least one admitted class" is pinned; glibc 2.36 gives 3.
  EXPECT_GE(result.surrogate.rounds, 2u);
  EXPECT_EQ(registry.counter("exec.surrogate.predict_passes").value(), result.surrogate.rounds);
}

// ---- Memoized fits ---------------------------------------------------------

namespace fs = std::filesystem;

/// Points the global cache's disk tier at a fresh scratch directory; on
/// scope exit removes it and re-attaches whatever $C2B_SIM_CACHE_DIR names.
struct ScratchTier {
  fs::path dir;

  explicit ScratchTier(const std::string& name)
      : dir(fs::temp_directory_path() /
            ("c2b-fit-test-" + name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(dir);
    restart();
  }
  ~ScratchTier() {
    exec::SimCache& cache = exec::SimCache::global();
    cache.detach_disk_tier();
    cache.clear();
    fs::remove_all(dir);
    const char* env = std::getenv("C2B_SIM_CACHE_DIR");
    if (env != nullptr && env[0] != '\0') cache.attach_disk_tier(env);
  }

  /// The emulated process restart: drop the memory tier, re-attach the dir.
  void restart() const {
    exec::SimCache& cache = exec::SimCache::global();
    cache.detach_disk_tier();
    cache.clear();
    ASSERT_TRUE(cache.attach_disk_tier(dir.string()));
  }

  /// Every file in the directory, sorted.
  std::vector<fs::path> files() const {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir)) out.push_back(entry.path());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<fs::path> fit_files() const {
    std::vector<fs::path> out;
    for (const fs::path& path : files())
      if (path.filename().string().rfind("blob-", 0) == 0) out.push_back(path);
    return out;
  }
};

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A cached sweep must be the cache-off sweep bitwise: times, optimum and
/// every SurrogateStats field but the three that say where fits came from.
void expect_same_sweep(const FullDseResult& got, const FullDseResult& want,
                       const std::string& what) {
  EXPECT_EQ(got.best_index, want.best_index) << what;
  EXPECT_TRUE(bit_equal(got.best_time, want.best_time)) << what;
  EXPECT_EQ(got.simulations, want.simulations) << what;
  ASSERT_EQ(got.times.size(), want.times.size()) << what;
  for (std::size_t flat = 0; flat < want.times.size(); ++flat)
    EXPECT_TRUE(bit_equal(got.times[flat], want.times[flat])) << what << " flat " << flat;
  const SurrogateStats& a = got.surrogate;
  const SurrogateStats& b = want.surrogate;
  EXPECT_EQ(a.classes_simulated, b.classes_simulated) << what;
  EXPECT_EQ(a.classes_pruned, b.classes_pruned) << what;
  EXPECT_EQ(a.points_simulated, b.points_simulated) << what;
  EXPECT_EQ(a.warmup_sims, b.warmup_sims) << what;
  EXPECT_EQ(a.fallback_sims, b.fallback_sims) << what;
  EXPECT_EQ(a.trained_samples, b.trained_samples) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_TRUE(bit_equal(a.mre, b.mre)) << what;
}

TEST(SurrogateFitMemo, WarmRestartServesEveryFitFromDiskAndCacheOffTouchesNoFile) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  DseContext context = stratified_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(stratified_axes());
  ScratchTier tier("warm");

  // Cache off with a tier attached: plain training, no file read or written.
  cache.set_enabled(false);
  const FullDseResult reference = run_full_dse(context, space);
  const std::size_t rounds = reference.surrogate.rounds;
  ASSERT_GE(rounds, 2u);
  EXPECT_EQ(reference.surrogate.fits_trained, rounds);
  EXPECT_EQ(reference.surrogate.fits_cached, 0u);
  EXPECT_TRUE(tier.files().empty());

  cache.set_enabled(true);
  const FullDseResult cold = run_full_dse(context, space);
  expect_same_sweep(cold, reference, "cold");
  EXPECT_EQ(cold.surrogate.fits_trained, rounds);
  EXPECT_EQ(cold.surrogate.fits_cached, 0u);
  EXPECT_EQ(tier.fit_files().size(), rounds);
  cache.flush_disk();

  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    exec::set_thread_count(threads);
    tier.restart();
    const FullDseResult warm = run_full_dse(context, space);
    expect_same_sweep(warm, reference, "warm restart threads=" + std::to_string(threads));
    EXPECT_EQ(warm.surrogate.fits_trained, 0u);
    EXPECT_EQ(warm.surrogate.fits_cached, rounds);
    EXPECT_EQ(warm.surrogate.fit_drops, 0u);
  }

  // Cache off again, now over a populated tier: still nothing read.
  std::vector<std::pair<fs::path, fs::file_time_type>> before;
  for (const fs::path& path : tier.files()) before.emplace_back(path, fs::last_write_time(path));
  cache.set_enabled(false);
  const FullDseResult off = run_full_dse(context, space);
  expect_same_sweep(off, reference, "cache off over a populated tier");
  EXPECT_EQ(off.surrogate.fits_trained, rounds);
  EXPECT_EQ(off.surrogate.fits_cached, 0u);
  std::vector<std::pair<fs::path, fs::file_time_type>> after;
  for (const fs::path& path : tier.files()) after.emplace_back(path, fs::last_write_time(path));
  EXPECT_EQ(after, before);
}

// A damaged fit file costs one retraining: the sweep is bitwise the same,
// the drop is counted, and the retrained fit replaces the file.
TEST(SurrogateFitMemo, TornFlippedOrForeignFitFilesFallBackToTraining) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  DseContext context = stratified_context();
  context.surrogate_enabled = true;
  const GridSpace space = make_design_space(stratified_axes());
  ScratchTier tier("damaged");

  cache.set_enabled(false);
  const FullDseResult reference = run_full_dse(context, space);
  cache.set_enabled(true);
  run_full_dse(context, space);
  cache.flush_disk();
  const std::vector<fs::path> fits = tier.fit_files();
  ASSERT_EQ(fits.size(), reference.surrogate.rounds);
  ASSERT_GE(fits.size(), 2u);
  std::vector<std::string> pristine;
  for (const fs::path& path : fits) pristine.push_back(read_bytes(path));

  const auto damage = [&](const std::string& kind) {
    std::string bytes = pristine[0];
    if (kind == "torn") bytes.resize(bytes.size() / 2);
    if (kind == "flipped") bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
    if (kind == "foreign") bytes = pristine[1];  // intact, but another fit's key
    write_bytes(fits[0], bytes);
  };
  for (const std::string kind : {"torn", "flipped", "foreign"}) {
    for (std::size_t i = 0; i < fits.size(); ++i) write_bytes(fits[i], pristine[i]);
    damage(kind);
    tier.restart();
    const FullDseResult got = run_full_dse(context, space);
    expect_same_sweep(got, reference, kind);
    EXPECT_EQ(got.surrogate.fit_drops, 1u) << kind;
    EXPECT_EQ(got.surrogate.fits_trained, 1u) << kind;
    EXPECT_EQ(got.surrogate.fits_cached, fits.size() - 1) << kind;
    EXPECT_EQ(read_bytes(fits[0]), pristine[0]) << kind << ": the retrained fit was not rewritten";
  }
}

struct FitCase {
  MlpConfig config;
  std::vector<Vector> inputs;
  std::vector<double> targets;
  int epochs = 12;  // short of the plateau stop, so every epoch counts
};

FitCase fit_case() {
  FitCase c;
  c.config.layer_sizes = {3, 6, 6, 1};
  c.config.seed = 17;
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    const Vector x{rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)};
    c.targets.push_back(x[0] * x[1] - 0.5 * x[2] + 0.25 * x[0] * x[0]);
    c.inputs.push_back(x);
  }
  return c;
}

/// The snapshot a plain (unmemoized) fit leaves.
std::string plain_fit(Mlp net, const FitCase& c, int epochs) {
  net.fit(c.inputs, c.targets, epochs);
  return net.snapshot();
}

// Each part of the key keeps one fit file from answering for another fit:
// a fit that differs from a stored one only in its pre-fit state, data,
// epochs or hyper-parameters trains, and lands where plain training lands.
TEST(SurrogateFitMemo, EveryInputOfTheFitSeparatesFitFiles) {
  ExecGuard guard;
  exec::SimCache::global().set_enabled(true);
  ScratchTier tier("key");
  const FitCase base = fit_case();
  {
    Mlp net(base.config);
    EXPECT_FALSE(memoized_fit(net, base.inputs, base.targets, base.epochs).cached);
    Mlp again(base.config);
    EXPECT_TRUE(memoized_fit(again, base.inputs, base.targets, base.epochs).cached);
    EXPECT_EQ(again.snapshot(), net.snapshot());
  }
  const auto expect_trains = [&](Mlp net, const std::vector<double>& targets, int epochs,
                                 const std::string& what) {
    FitCase c = base;
    c.targets = targets;
    const std::string want = plain_fit(net, c, epochs);
    const FitMemoOutcome outcome = memoized_fit(net, c.inputs, c.targets, epochs);
    EXPECT_FALSE(outcome.cached) << what;
    EXPECT_FALSE(outcome.dropped) << what;
    EXPECT_EQ(net.snapshot(), want) << what;
  };
  Mlp warmed(base.config);
  warmed.fit(base.inputs, base.targets, 2);
  expect_trains(warmed, base.targets, base.epochs, "pre-fit state");
  std::vector<double> moved = base.targets;
  moved[7] += 0.5;
  expect_trains(Mlp(base.config), moved, base.epochs, "targets");
  expect_trains(Mlp(base.config), base.targets, base.epochs + 7, "epochs");
  MlpConfig faster = base.config;
  faster.learning_rate *= 3.0;
  expect_trains(Mlp(faster), base.targets, base.epochs, "learning rate");
}

// A fit file written under another libm's tag (planted under this host's
// file name, as a digest collision or a shared directory would put it)
// holds another net: it is a counted drop, and the fit trains.
TEST(SurrogateFitMemo, FitFileOfAnotherLibmTagFallsBackToTraining) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  cache.set_enabled(true);
  ScratchTier tier("libm");
  const FitCase c = fit_case();
  Mlp net(c.config);
  const std::string fit_key = net.fit_key(c.inputs, c.targets, c.epochs);
  const std::string other_key = fit_memo_key(fit_key, "glibc 0.0 fma0 canary none");
  const std::string own_key = fit_memo_key(fit_key);
  ASSERT_NE(other_key, own_key);

  FitCase elsewhere = c;
  elsewhere.targets.assign(c.targets.size(), 1.0);  // another host's (different) net
  cache.write_blob(other_key, plain_fit(Mlp(c.config), elsewhere, c.epochs));
  fs::rename(tier.dir / exec::DiskTier::blob_name(other_key),
             tier.dir / exec::DiskTier::blob_name(own_key));

  const std::string want = plain_fit(net, c, c.epochs);
  const FitMemoOutcome outcome = memoized_fit(net, c.inputs, c.targets, c.epochs);
  EXPECT_FALSE(outcome.cached);
  EXPECT_TRUE(outcome.dropped);
  EXPECT_EQ(net.snapshot(), want);
  Mlp again(c.config);
  EXPECT_TRUE(memoized_fit(again, c.inputs, c.targets, c.epochs).cached);
  EXPECT_EQ(again.snapshot(), want);
}

TEST(SurrogateFitMemo, WithoutADiskTierAFitIsAPlainFit) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  cache.set_enabled(true);
  cache.detach_disk_tier();
  const FitCase c = fit_case();
  Mlp net(c.config);
  const FitMemoOutcome outcome = memoized_fit(net, c.inputs, c.targets, c.epochs);
  EXPECT_FALSE(outcome.cached);
  EXPECT_FALSE(outcome.dropped);
  EXPECT_EQ(net.snapshot(), plain_fit(Mlp(c.config), c, c.epochs));
  const char* env = std::getenv("C2B_SIM_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') cache.attach_disk_tier(env);
}

// Writers replacing one fit file while readers restore it: every reader
// ends with the trained state, and none ever sees a partial file.
TEST(SurrogateFitMemo, ConcurrentWritersAndReadersOfOneFitNeverSeeAWrongState) {
  ExecGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  cache.set_enabled(true);
  ScratchTier tier("race");
  const FitCase c = fit_case();
  const std::string want = plain_fit(Mlp(c.config), c, c.epochs);
  const std::string key = fit_memo_key(Mlp(c.config).fit_key(c.inputs, c.targets, c.epochs));

  std::atomic<int> wrong{0};
  std::atomic<int> drops{0};
  std::atomic<int> cached{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) cache.write_blob(key, want);
    });
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        Mlp net(c.config);
        const FitMemoOutcome outcome = memoized_fit(net, c.inputs, c.targets, c.epochs);
        if (net.snapshot() != want) ++wrong;
        if (outcome.dropped) ++drops;
        if (outcome.cached) ++cached;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(drops.load(), 0);
  EXPECT_GT(cached.load(), 0);
  // Only the one fit file is left: every temporary was renamed into place.
  ASSERT_EQ(tier.files().size(), 1u);
  EXPECT_EQ(tier.files()[0].filename().string(), exec::DiskTier::blob_name(key));
}

}  // namespace
}  // namespace c2b
