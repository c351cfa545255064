#include "c2b/aps/surrogate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#if __has_include(<gnu/libc-version.h>)
#include <gnu/libc-version.h>
#endif

#include "c2b/ann/mlp.h"
#include "c2b/common/assert.h"
#include "c2b/common/rng.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"

namespace c2b {
namespace {

// Training-schedule constants. The first fit gets the long budget (the net
// starts from Xavier noise); later rounds warm-start from the previous
// weights and only need to absorb the newly admitted class. Both fits stop
// early on an MSE plateau (Mlp::fit), so these are ceilings.
constexpr int kWarmupEpochs = 300;
constexpr int kRoundEpochs = 120;
/// Stream-seed salt for the surrogate's MLP, distinct from every other
/// derive_stream_seed consumer (check oracles use 7e3..9e4, run_ann_dse
/// uses the raw option seed).
constexpr std::uint64_t kSurrogateSeedSalt = 7'777'000;
/// Exact fallback sizing: at least this many points, or 1% of the space,
/// whichever is larger — plus the predicted-best member of every pruned
/// class (added separately so no class goes entirely unverified).
constexpr std::size_t kFallbackMin = 32;
constexpr std::size_t kFallbackFraction = 100;
/// Fit-cost ceiling: past this many streamed samples, each round trains on
/// a deterministic strided subsample instead of the full set. Without the
/// cap a sweep whose landscape is flat across classes (nothing prunable,
/// everything admitted) would spend more time in backprop than the
/// exhaustive sweep spends simulating.
constexpr std::size_t kTrainCap = 2048;
/// Relative pruning band: a point stays a candidate while its predicted
/// time is within (1 + kBand) of the incumbent (Pareto mode: of a frontier
/// point no worse in power and area).
constexpr double kBand = 0.25;
/// Exact samples per trace class, strided over its members, that seed the
/// first fit.
constexpr std::size_t kWarmup = 3;

/// Distinct values per dimension whose log2 features_of remembers; a
/// factorial grid repeats a handful per axis, so past this many the list
/// is not a grid and each further value is taken directly.
constexpr std::size_t kLog2Memo = 64;

/// The net's view of every point, built once per sweep: the training set,
/// each repredict and the final MRE pass all read these. The MLP sees log2
/// coordinates: every axis (areas, N, issue, ROB) is sampled at
/// near-power-of-two steps, so the log2 grid is close to uniform and the
/// min/max scaler wastes no range on the 16x spread. Each distinct
/// coordinate's log2 is computed once (equal inputs give equal outputs,
/// so the features are bitwise those of a log2 per coordinate).
std::vector<Vector> features_of(const std::vector<std::vector<double>>& points) {
  const std::size_t dim = points[0].size();
  std::vector<std::vector<std::pair<double, double>>> memo(dim);
  std::vector<Vector> features(points.size(), Vector(dim));
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      const double x = points[i][d];
      std::vector<std::pair<double, double>>& seen = memo[d];
      const auto hit = std::find_if(seen.begin(), seen.end(),
                                    [x](const std::pair<double, double>& e) { return e.first == x; });
      if (hit != seen.end()) {
        features[i][d] = hit->second;
        continue;
      }
      features[i][d] = std::log2(x);
      if (seen.size() < kLog2Memo) seen.emplace_back(x, features[i][d]);
    }
  }
  return features;
}

std::uint32_t cores_of(const std::vector<double>& point) {
  return static_cast<std::uint32_t>(std::lround(point[kAxisN]));
}

struct ClassState {
  std::uint32_t cores = 0;
  std::vector<std::size_t> members;  ///< indices into the point list
  bool admitted = false;
};

/// A simulated point's objective coordinates, for Pareto-mode pruning.
struct SimPoint {
  double time = 0.0;
  double power = 0.0;
  double area = 0.0;
};

bool sim_dominates(const SimPoint& a, const SimPoint& b) {
  if (a.time > b.time || a.power > b.power || a.area > b.area) return false;
  return a.time < b.time || a.power < b.power || a.area < b.area;
}

std::string compute_libm_tag() {
  std::string tag;
#if __has_include(<gnu/libc-version.h>)
  tag += "glibc ";
  tag += gnu_get_libc_version();
#else
  tag += "libc unknown";
#endif
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  tag += " fma" + std::to_string(__builtin_cpu_supports("fma") != 0);
  tag += " fma4" + std::to_string(__builtin_cpu_supports("fma4") != 0);
  tag += " avx2" + std::to_string(__builtin_cpu_supports("avx2") != 0);
  tag += " sse4.1" + std::to_string(__builtin_cpu_supports("sse4.1") != 0);
#endif
  // The canary: a fit through every part of the training path (scaler,
  // target normalization, shuffle, tanh forward pass, SGD step), whose
  // bits change whenever libm's tanh or the training code does.
  MlpConfig config;
  config.layer_sizes = {2, 3, 3, 1};
  config.seed = 11;
  Mlp canary(config);
  std::vector<Vector> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back({0.5 * i, 3.0 - 0.25 * i * i});
    targets.push_back(1.0 + 0.75 * i - 0.125 * i * i);
  }
  canary.fit(inputs, targets, 16);
  tag += " canary ";
  tag += canary.snapshot();
  return tag;
}

}  // namespace

const std::string& fit_libm_tag() {
  static const std::string tag = compute_libm_tag();
  return tag;
}

std::string fit_memo_key(const std::string& fit_key, const std::string& libm_tag) {
  // fit_key ends with its last length-prefixed part, so the tag appended
  // after it cannot be confused with key bytes.
  return fit_key + libm_tag;
}

FitMemoOutcome memoized_fit(Mlp& model, const std::vector<Vector>& inputs,
                            const std::vector<double>& targets, int epochs) {
  exec::SimCache& cache = exec::SimCache::global();
  if (!cache.enabled() || !cache.has_disk_tier()) {
    model.fit(inputs, targets, epochs);
    return {};
  }
  const std::string key = fit_memo_key(model.fit_key(inputs, targets, epochs));
  const exec::BlobLookup found = cache.read_blob(key);
  if (found.payload && model.restore(*found.payload)) return {true, false};
  model.fit(inputs, targets, epochs);
  cache.write_blob(key, model.snapshot());
  return {false, found.dropped || found.payload.has_value()};
}

std::vector<std::size_t> fallback_top_k(std::vector<std::size_t> pending,
                                        const std::vector<double>& predicted, std::size_t k) {
  if (k >= pending.size()) return pending;
  // (prediction, index) is a strict total order on distinct indices, so the
  // first k after partitioning are exactly the first k of the full sort.
  std::nth_element(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(k),
                   pending.end(), [&](std::size_t a, std::size_t b) {
                     if (predicted[a] != predicted[b]) return predicted[a] < predicted[b];
                     return a < b;
                   });
  pending.resize(k);
  return pending;
}

SurrogateSweepResult surrogate_sweep(const DseContext& context,
                                     const std::vector<std::vector<double>>& points,
                                     const SurrogateObjectives* pareto) {
  C2B_SPAN("aps/surrogate_sweep");
  SurrogateSweepResult result;
  result.outcomes.resize(points.size());
  result.simulated.assign(points.size(), 0);
  result.stats.points_total = points.size();
  if (points.empty()) return result;
  if (pareto) {
    C2B_REQUIRE(pareto->power.size() == points.size() && pareto->area.size() == points.size(),
                "Pareto objectives must parallel the point list");
  }

  // Group by trace-equivalence class. Within one context the class key
  // varies only through N (see trace_class_key), so the core count *is*
  // the class; a std::map keeps the round ordering deterministic.
  std::map<std::uint32_t, std::vector<std::size_t>> by_cores;
  for (std::size_t i = 0; i < points.size(); ++i) by_cores[cores_of(points[i])].push_back(i);
  std::vector<ClassState> classes;
  classes.reserve(by_cores.size());
  for (auto& [cores, members] : by_cores)
    classes.push_back(ClassState{cores, std::move(members), false});
  result.stats.classes_total = classes.size();

  const std::vector<Vector> features = features_of(points);

  // Training set: (log2 point -> log time) in the order results streamed
  // in — a pure function of prior simulation results, so identical at any
  // thread count.
  std::vector<Vector> train_x;
  std::vector<double> train_y;
  auto simulate = [&](const std::vector<std::size_t>& indices) {
    if (indices.empty()) return;
    std::vector<std::vector<double>> subset;
    subset.reserve(indices.size());
    for (const std::size_t idx : indices) subset.push_back(points[idx]);
    BatchReplayStats round_batch;
    const std::vector<BatchSimOutcome> outcomes =
        simulate_design_times_batched(context, subset, &round_batch);
    result.batch.merge(round_batch);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const std::size_t idx = indices[k];
      result.outcomes[idx] = outcomes[k];
      result.simulated[idx] = 1;
      if (outcomes[k].time > 0.0) {
        train_x.push_back(features[idx]);
        train_y.push_back(std::log(outcomes[k].time));
      }
    }
    result.stats.points_simulated += indices.size();
  };

  // --- warmup: a strided exact sample from every class ---------------------
  std::vector<std::size_t> warmup_indices;
  for (const ClassState& cls : classes) {
    const std::size_t take = std::min(kWarmup, cls.members.size());
    const std::size_t stride = cls.members.size() / take;
    for (std::size_t j = 0; j < take; ++j) warmup_indices.push_back(cls.members[j * stride]);
  }
  simulate(warmup_indices);
  result.stats.warmup_sims = warmup_indices.size();

  MlpConfig mlp_config;
  mlp_config.layer_sizes = {points[0].size(), 16, 16, 1};
  mlp_config.seed = Rng::derive_stream_seed(context.seed, kSurrogateSeedSalt);
  Mlp model(mlp_config);
  auto fit = [&](const std::vector<Vector>& x, const std::vector<double>& y, int epochs) {
    const FitMemoOutcome outcome = memoized_fit(model, x, y, epochs);
    ++(outcome.cached ? result.stats.fits_cached : result.stats.fits_trained);
    result.stats.fit_drops += outcome.dropped ? 1 : 0;
  };
  auto refit = [&](int epochs) {
    if (train_x.size() <= kTrainCap) {
      fit(train_x, train_y, epochs);
      return;
    }
    // Strided subsample over the streamed order: pure function of the
    // sample count, so retraining stays thread-count independent.
    const std::size_t stride = (train_x.size() + kTrainCap - 1) / kTrainCap;
    std::vector<Vector> sub_x;
    std::vector<double> sub_y;
    sub_x.reserve(kTrainCap);
    sub_y.reserve(kTrainCap);
    for (std::size_t k = 0; k < train_x.size(); k += stride) {
      sub_x.push_back(train_x[k]);
      sub_y.push_back(train_y[k]);
    }
    fit(sub_x, sub_y, epochs);
  };
  refit(kWarmupEpochs);
  ++result.stats.rounds;

  const double admit_factor = 1.0 + kBand;

  // Per-round scratch, refreshed from the current model: predicted time for
  // every unsimulated point (+inf where simulated, so mins ignore them).
  // The batch covers every point so it can read `features` in place;
  // predictions are independent, so the simulated points' share changes
  // none of the others.
  std::vector<double> predicted(points.size(), std::numeric_limits<double>::infinity());
  auto repredict = [&]() {
    C2B_COUNTER_INC("exec.surrogate.predict_passes");
    const std::vector<double> log_pred = model.predict_batch(features);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (result.simulated[i]) {
        predicted[i] = std::numeric_limits<double>::infinity();
      } else {
        pending.push_back(i);
        predicted[i] = std::exp(log_pred[i]);
      }
    }
    return pending;
  };

  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<SimPoint> frontier;
  auto refresh_incumbent = [&]() {
    incumbent = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < points.size(); ++i)
      if (result.simulated[i]) incumbent = std::min(incumbent, result.outcomes[i].time);
    if (!pareto) return;
    std::vector<SimPoint> sims;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (result.simulated[i])
        sims.push_back(SimPoint{result.outcomes[i].time, pareto->power[i], pareto->area[i]});
    frontier.clear();
    for (std::size_t a = 0; a < sims.size(); ++a) {
      bool dominated = false;
      for (std::size_t b = 0; b < sims.size(); ++b)
        if (b != a && sim_dominates(sims[b], sims[a])) {
          dominated = true;
          break;
        }
      if (!dominated) frontier.push_back(sims[a]);
    }
  };

  // A point is confidently prunable when its *inflated-by-the-band* truth
  // would still lose: plain mode against the incumbent time, Pareto mode
  // against some frontier point that is no worse in power and area. Ties
  // and near-ties always fall inside the band, so equal-coordinate frontier
  // members are never pruned away.
  auto prunable = [&](std::size_t i) {
    if (!pareto) return predicted[i] > incumbent * admit_factor;
    for (const SimPoint& s : frontier)
      if (s.power <= pareto->power[i] && s.area <= pareto->area[i] &&
          s.time * admit_factor <= predicted[i])
        return true;
    return false;
  };

  // --- scheduling rounds: admit the most promising class, retrain ----------
  // The unsimulated points as of the last repredict; when the loop ends
  // nothing has been simulated or refit since, so they and `predicted`
  // are already the final model's ranking for the fallback pass.
  std::vector<std::size_t> pending;
  for (;;) {
    pending = repredict();
    refresh_incumbent();
    std::size_t best_class = classes.size();
    double best_pred = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].admitted) continue;
      double class_pred = std::numeric_limits<double>::infinity();
      bool keepable = false;
      for (const std::size_t idx : classes[c].members) {
        if (result.simulated[idx]) continue;
        if (!prunable(idx)) {
          keepable = true;
          class_pred = std::min(class_pred, predicted[idx]);
        }
      }
      if (keepable && class_pred < best_pred) {
        best_pred = class_pred;
        best_class = c;
      }
    }
    if (best_class == classes.size()) break;  // every remaining class is outside the band

    ClassState& cls = classes[best_class];
    cls.admitted = true;
    std::vector<std::size_t> todo;
    for (const std::size_t idx : cls.members)
      if (!result.simulated[idx]) todo.push_back(idx);
    simulate(todo);
    refit(kRoundEpochs);
    ++result.stats.rounds;
    if (obs::RunJournal* journal = obs::active_journal())
      journal->emit(obs::JournalEvent("surrogate_round")
                        .count("round", result.stats.rounds)
                        .num("class_n", static_cast<double>(cls.cores))
                        .count("class_members", todo.size())
                        .num("predicted_best", best_pred)
                        .num("incumbent", incumbent)
                        .count("trained_samples", train_y.size()));
  }

  // --- exact fallback pass --------------------------------------------------
  // Rank what is left under the final model (the last round's predictions)
  // and simulate the predicted neighborhood of the optimum for real: the global top K plus the
  // predicted-best member of every pruned class. This is what turns the
  // band from a heuristic into a checked one — the reported optimum can
  // only come from a simulated point.
  if (!pending.empty()) {
    const std::size_t top_k = std::max(kFallbackMin, points.size() / kFallbackFraction);
    std::vector<std::uint8_t> take(points.size(), 0);
    for (const std::size_t idx : fallback_top_k(std::move(pending), predicted, top_k))
      take[idx] = 1;
    for (const ClassState& cls : classes) {
      if (cls.admitted) continue;
      std::size_t best_idx = points.size();
      for (const std::size_t idx : cls.members) {
        if (result.simulated[idx]) continue;
        if (best_idx == points.size() || predicted[idx] < predicted[best_idx]) best_idx = idx;
      }
      if (best_idx != points.size()) take[best_idx] = 1;
    }
    std::vector<std::size_t> fallback;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (take[i]) fallback.push_back(i);
    simulate(fallback);
    result.stats.fallback_sims = fallback.size();
  }

  // --- accounting + final model quality ------------------------------------
  for (const ClassState& cls : classes) {
    bool full = true;
    for (const std::size_t idx : cls.members)
      if (!result.simulated[idx]) {
        full = false;
        break;
      }
    if (cls.admitted || full)
      ++result.stats.classes_simulated;
    else
      ++result.stats.classes_pruned;
  }
  result.stats.trained_samples = train_y.size();

  // Final-model mean relative error in the *time* domain over everything
  // simulated (fallback points included, which the net never trained on).
  {
    std::vector<Vector> eval_x;
    std::vector<std::size_t> eval_idx;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (result.simulated[i] && result.outcomes[i].time > 0.0) {
        eval_x.push_back(features[i]);
        eval_idx.push_back(i);
      }
    if (!eval_x.empty()) {
      const std::vector<double> log_pred = model.predict_batch(eval_x);
      double sum = 0.0;
      for (std::size_t k = 0; k < eval_idx.size(); ++k) {
        const double truth = result.outcomes[eval_idx[k]].time;
        sum += std::fabs(std::exp(log_pred[k]) - truth) / truth;
      }
      result.stats.mre = sum / static_cast<double>(eval_idx.size());
    }
  }

  C2B_COUNTER_ADD("exec.surrogate.trained_samples", result.stats.trained_samples);
  C2B_COUNTER_ADD("exec.surrogate.classes_pruned", result.stats.classes_pruned);
  C2B_COUNTER_ADD("exec.surrogate.classes_simulated", result.stats.classes_simulated);
  C2B_COUNTER_ADD("exec.surrogate.fallback_sims", result.stats.fallback_sims);
  C2B_COUNTER_ADD("exec.surrogate.fits_trained", result.stats.fits_trained);
  C2B_COUNTER_ADD("exec.surrogate.fits_cached", result.stats.fits_cached);
  C2B_COUNTER_ADD("exec.surrogate.fit_drops", result.stats.fit_drops);
  C2B_GAUGE_SET("exec.surrogate.mre", result.stats.mre);
  if (obs::RunJournal* journal = obs::active_journal())
    journal->emit(obs::JournalEvent("surrogate_summary")
                      .count("classes_total", result.stats.classes_total)
                      .count("classes_simulated", result.stats.classes_simulated)
                      .count("classes_pruned", result.stats.classes_pruned)
                      .count("points_total", result.stats.points_total)
                      .count("points_simulated", result.stats.points_simulated)
                      .count("warmup_sims", result.stats.warmup_sims)
                      .count("fallback_sims", result.stats.fallback_sims)
                      .count("trained_samples", result.stats.trained_samples)
                      .count("rounds", result.stats.rounds)
                      .num("mre", result.stats.mre)
                      .count("fits_trained", result.stats.fits_trained)
                      .count("fits_cached", result.stats.fits_cached)
                      .count("fit_drops", result.stats.fit_drops));
  return result;
}

}  // namespace c2b
