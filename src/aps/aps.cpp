#include "c2b/aps/aps.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>

#include "c2b/aps/surrogate.h"

#include "c2b/common/assert.h"
#include "c2b/common/math_util.h"
#include "c2b/common/log.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"

namespace c2b {

FeasibleDesigns feasible_designs(const DseContext& context, const GridSpace& space) {
  FeasibleDesigns plan;
  const ConstraintSet constraints = design_constraints(context);
  space.for_each([&](std::size_t flat, const std::vector<double>& point) {
    if (!design_feasible(constraints, point)) return;
    plan.flats.push_back(flat);
    plan.points.push_back(point);
  });
  return plan;
}

FullDseResult run_full_dse(const DseContext& context, const GridSpace& space) {
  C2B_SPAN("aps/full_dse");
  FullDseResult result;
  result.times.assign(space.size(), std::numeric_limits<double>::infinity());
  // Feasibility is cheap: filter serially, then hand the whole work list to
  // the batched replay engine, which groups it into trace-equivalence
  // classes and schedules those on the thread pool. Outcomes come back in
  // work-list order, so the scatter below is serial and bit-identical at
  // any thread count.
  FeasibleDesigns plan;
  {
    obs::PhaseScope phase("plan");
    plan = feasible_designs(context, space);
  }
  obs::PhaseScope phase("sweep");
  result.feasible_count = plan.flats.size();
  C2B_REQUIRE(result.feasible_count > 0, "no feasible design in the space");
  if (context.surrogate_enabled) {
    SurrogateSweepResult sweep = surrogate_sweep(context, plan.points);
    for (std::size_t i = 0; i < plan.flats.size(); ++i) {
      if (!sweep.simulated[i]) continue;  // pruned: stays +infinity
      result.times[plan.flats[i]] = sweep.outcomes[i].time;
      C2B_COUNTER_INC("aps.full_dse.simulations");
    }
    result.batch = sweep.batch;
    result.surrogate = sweep.stats;
    result.simulations = sweep.stats.points_simulated;
  } else {
    const std::vector<BatchSimOutcome> outcomes =
        simulate_design_times_batched(context, plan.points, &result.batch);
    for (std::size_t i = 0; i < plan.flats.size(); ++i) {
      result.times[plan.flats[i]] = outcomes[i].time;
      C2B_COUNTER_INC("aps.full_dse.simulations");
    }
    result.simulations = plan.flats.size();
  }
  result.best_index = static_cast<std::size_t>(
      std::min_element(result.times.begin(), result.times.end()) - result.times.begin());
  result.best_time = result.times[result.best_index];
  return result;
}

C2BoundModel build_calibrated_model(const DseContext& context, const Characterization& c) {
  AppProfile app = c.app;
  app.ic0 = static_cast<double>(context.instructions0);
  // Concurrency the design can rely on: the detector's C_M includes merged
  // secondary misses riding in-flight primaries, which will not survive a
  // cache shrink; clamp to the MSHR-bounded MLP (and C_H to the port-level
  // parallelism) so area sensitivity is not wished away.
  app.miss_concurrency =
      std::min(app.miss_concurrency,
               static_cast<double>(context.base.hierarchy.l1_mshr_entries));
  app.hit_concurrency =
      std::min(app.hit_concurrency,
               static_cast<double>(context.base.hierarchy.l1_banks *
                                   context.base.hierarchy.l1_ports_per_bank));

  MachineProfile machine;
  // Pollack anchored at the baseline core: the simulator maps core area to
  // functional units as fu = 2 sqrt(A0), so the characterized CPI_exe was
  // measured at a0_base = (fu/2)^2; pick (k0, phi0) with
  // CPI_exe(a0_base) == measured.
  const double cpi_exe = std::max(0.05, c.cpi_exe);
  const double fu_base = static_cast<double>(context.base.core.functional_units);
  const double a0_base = std::max(0.25, (fu_base / 2.0) * (fu_base / 2.0));
  machine.pollack.phi0 = 0.25 * cpi_exe;
  machine.pollack.k0 = 0.75 * cpi_exe * std::sqrt(a0_base);
  machine.l1_hit_time = static_cast<double>(context.base.hierarchy.l1_hit_latency);
  machine.l2_latency = static_cast<double>(context.base.hierarchy.l2_hit_latency) +
                       2.0 * context.base.hierarchy.noc.hop_latency;
  machine.memory_latency =
      static_cast<double>(context.base.hierarchy.dram.t_rcd + context.base.hierarchy.dram.t_cas +
                          context.base.hierarchy.dram.t_bus) +
      machine.l2_latency;
  // The stack-distance fit is MR(S) = alpha_fit * S^-beta with S in absolute
  // lines; MissModel expects the normalized form MR = alpha * (S/WS)^-beta,
  // so alpha = alpha_fit * WS^-beta (the miss ratio when the cache matches
  // the working set). The L2's *local* miss curve is the stack curve at the
  // L2 capacity relative to the traffic already filtered by the baseline
  // L1: alpha_l2 = (c1_base / WS)^beta.
  {
    const double beta = std::max(0.1, c.l1_power_law.beta);
    const double alpha_fit = std::max(1e-6, c.l1_power_law.alpha);
    const double ws0 = std::max(1.0, app.working_set_lines0);
    const double c1_base_lines =
        static_cast<double>(context.base.hierarchy.l1_geometry.lines());
    const double alpha_l1 =
        clamp(alpha_fit * std::pow(ws0, -beta), 1e-4, 1.0);
    const double alpha_l2 = clamp(std::pow(c1_base_lines / ws0, beta), 1e-3, 1.0);
    machine.l1_miss = MissModel{.alpha = alpha_l1, .beta = beta, .mr_cap = 1.0,
                                .mr_floor = 1e-4};
    machine.l2_miss = MissModel{.alpha = alpha_l2, .beta = beta, .mr_cap = 1.0,
                                .mr_floor = 1e-3};
  }
  machine.chip = context.chip;
  // Shared memory controllers queue with aggregate off-chip traffic; without
  // this term the analytic model sees no cost to shrinking caches at high N.
  machine.memory_contention = 0.05;

  // Calibrate the stall scale so the analytic CPI reproduces the measured
  // CPI at the baseline configuration (areas implied by the base caches).
  {
    const ChipConstraints& chip = machine.chip;
    const double a1_base = std::max(
        chip.min_l1_area, static_cast<double>(context.base.hierarchy.l1_geometry.size_bytes) /
                              1024.0 / chip.l1_kib_per_area);
    const double a2_base = std::max(
        chip.min_l2_area, static_cast<double>(context.base.hierarchy.l2_geometry.size_bytes) /
                              1024.0 / chip.l2_kib_per_area);
    const C2BoundModel probe(app, machine);
    const double analytic_stall =
        probe.evaluate({.n_cores = 1.0, .a0 = a0_base, .a1 = a1_base, .a2 = a2_base})
            .stall_per_instruction;
    const double measured_stall = std::max(1e-6, c.measured_cpi - cpi_exe);
    if (analytic_stall > 1e-12) app.stall_scale = measured_stall / analytic_stall;
  }
  return C2BoundModel(app, machine);
}

ApsResult run_aps(const DseContext& context, const GridSpace& space, const ApsOptions& options) {
  C2B_SPAN("aps/run_aps");
  ApsResult result;

  // ---- Step 1: characterization (Fig. 6 lines 1-3) ----
  {
    obs::PhaseScope phase("characterize");
    result.characterization = characterize(context.workload, context.base, options.characterize);
    result.simulations += result.characterization.simulation_runs;
    result.memory_accesses += result.characterization.memory_accesses;
    if (auto* journal = obs::active_journal())
      journal->emit(obs::JournalEvent("characterized")
                        .str("app", context.workload.name)
                        .num("measured_cpi", result.characterization.measured_cpi)
                        .num("cpi_exe", result.characterization.cpi_exe)
                        .num("camat", result.characterization.camat.camat_value)
                        .count("simulation_runs", result.characterization.simulation_runs)
                        .count("memory_accesses", result.characterization.memory_accesses));
  }

  // ---- Step 2: analytic optimization (Fig. 6 lines 4-13) ----
  {
    C2B_SPAN("aps/analytic_solve");
    obs::PhaseScope phase("analytic_solve");
    OptimizerOptions opt;
    opt.n_max = static_cast<long long>(
        *std::max_element(space.axis(kAxisN).values.begin(), space.axis(kAxisN).values.end()));
    const C2BoundOptimizer optimizer(build_calibrated_model(context, result.characterization),
                                     opt);
    result.analytic = optimizer.optimize();
    if (auto* journal = obs::active_journal())
      journal->emit(
          obs::JournalEvent("solver")
              .num("n_cores", result.analytic.best.design.n_cores)
              .num("a0", result.analytic.best.design.a0)
              .num("a1", result.analytic.best.design.a1)
              .num("a2", result.analytic.best.design.a2)
              .num("lambda", result.analytic.lambda)
              .count("lagrange_converged", result.analytic.lagrange_converged ? 1 : 0)
              .count("case", static_cast<std::uint64_t>(result.analytic.opt_case))
              .count("core_counts_scanned", result.analytic.per_core_count.size()));
  }

  // ---- Step 3: snap to the grid and simulate the narrowed region ----
  // Snap the analytic (A0, A1, A2, N) to the nearest *feasible* grid point
  // (log-scale per-axis distance; the analytic solve works in continuous
  // area space and may sit beyond the buildable axis ranges, in which case
  // the snap clamps to the closest chip that actually exists).
  // N is the model's primary output ("once these fundamental parameters are
  // fixed, the skeleton of CMP becomes clear"), so the snap is hierarchical:
  // match the core count first, then the area split — a mismatched cache
  // axis must never drag the snap onto a different skeleton.
  const DesignPoint& best = result.analytic.best.design;
  const std::array<double, 4> target{best.a0, best.a1, best.a2, best.n_cores};
  constexpr double kCoreCountWeight = 1e3;
  double best_distance = std::numeric_limits<double>::infinity();
  std::size_t snapped = 0;
  const ConstraintSet constraints = design_constraints(context);
  space.for_each([&](std::size_t flat, const std::vector<double>& point) {
    if (!design_feasible(constraints, point)) return;
    double distance = 0.0;
    for (std::size_t axis = 0; axis < 4; ++axis) {
      const double diff = std::log(point[axis]) - std::log(std::max(1e-6, target[axis]));
      distance += (axis == kAxisN ? kCoreCountWeight : 1.0) * diff * diff;
    }
    if (distance < best_distance) {
      best_distance = distance;
      snapped = flat;
    }
  });
  C2B_REQUIRE(std::isfinite(best_distance), "no feasible grid point to snap to");
  result.snapped_index = snapped;

  // The region APS simulates (Fig. 6 line 15, "adjacent regions in the
  // design space nearby the solution"): the analytic solve pins N and A0;
  // simulation refines the cache split (a radius-r neighborhood over the
  // A1/A2 axes, where the power-law model is coarsest) times the full
  // issue x ROB cross it never modeled at all.
  const auto snapped_idx = space.indices(result.snapped_index);
  std::unordered_set<std::size_t> region;
  const std::size_t issue_count = space.axis(kAxisIssue).values.size();
  const std::size_t rob_count = space.axis(kAxisRob).values.size();
  const auto radius = static_cast<std::ptrdiff_t>(std::max<std::size_t>(
      1, options.neighborhood_radius));
  auto clipped = [&](std::size_t axis, std::ptrdiff_t delta) {
    const auto base = static_cast<std::ptrdiff_t>(snapped_idx[axis]);
    const auto size = static_cast<std::ptrdiff_t>(space.axis(axis).values.size());
    const std::ptrdiff_t moved = std::clamp<std::ptrdiff_t>(base + delta, 0, size - 1);
    return static_cast<std::size_t>(moved);
  };
  for (std::ptrdiff_t da1 = -radius; da1 <= radius; ++da1) {
    for (std::ptrdiff_t da2 = -radius; da2 <= radius; ++da2) {
      for (std::size_t i = 0; i < issue_count; ++i) {
        for (std::size_t r = 0; r < rob_count; ++r) {
          auto idx = snapped_idx;
          idx[kAxisA1] = clipped(kAxisA1, da1);
          idx[kAxisA2] = clipped(kAxisA2, da2);
          idx[kAxisIssue] = i;
          idx[kAxisRob] = r;
          region.insert(space.flat_index(idx));
        }
      }
    }
  }

  C2B_SPAN("aps/neighborhood_sim");
  obs::PhaseScope phase("neighborhood_sim");
  // Feasibility is cheap: filter serially into a sorted work list, then
  // hand the candidates to the batched replay engine (the neighborhood
  // shares trace streams across its whole issue x ROB x cache-split cross,
  // so one class typically covers it). Outcomes land in work-list order,
  // so the reduction below (strict-< best pick, access totals) is the
  // serial loop verbatim — bit-identical at any thread count.
  std::vector<std::size_t> candidates(region.begin(), region.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](std::size_t flat) {
                                    return !design_feasible(constraints, space.point(flat));
                                  }),
                   candidates.end());
  std::vector<std::vector<double>> candidate_points;
  candidate_points.reserve(candidates.size());
  for (const std::size_t flat : candidates) candidate_points.push_back(space.point(flat));
  const std::vector<BatchSimOutcome> outcomes =
      simulate_design_times_batched(context, candidate_points, &result.batch);
  C2B_COUNTER_ADD("aps.neighborhood.simulations", candidates.size());

  result.best_time = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    result.memory_accesses += outcomes[i].memory_accesses;
    ++result.simulations;
    result.simulated_indices.push_back(candidates[i]);
    if (outcomes[i].time < result.best_time) {
      result.best_time = outcomes[i].time;
      result.best_index = candidates[i];
    }
  }
  C2B_REQUIRE(!result.simulated_indices.empty(), "APS simulated no designs");
  result.narrowing_factor =
      static_cast<double>(space.size()) / static_cast<double>(result.simulated_indices.size());
  return result;
}

double design_regret(const FullDseResult& truth, std::size_t index) {
  C2B_REQUIRE(index < truth.times.size(), "design index out of range");
  C2B_REQUIRE(truth.best_time > 0.0, "ground truth must be populated");
  return (truth.times[index] - truth.best_time) / truth.best_time;
}

AnnDseResult run_ann_dse(const GridSpace& space, const FullDseResult& truth,
                         double target_regret, const AnnDseOptions& options) {
  C2B_REQUIRE(truth.times.size() == space.size(), "truth/space mismatch");
  AnnDseResult result;
  Rng rng(options.seed);

  // Candidate pool: feasible designs only (infeasible ones are not chips).
  std::vector<std::size_t> pool;
  pool.reserve(space.size());
  for (std::size_t i = 0; i < space.size(); ++i)
    if (std::isfinite(truth.times[i])) pool.push_back(i);
  C2B_REQUIRE(!pool.empty(), "no feasible designs to train on");
  // Random draw order (sampling without replacement).
  for (std::size_t i = pool.size() - 1; i > 0; --i)
    std::swap(pool[i], pool[rng.uniform_below(i + 1)]);
  // Feature vectors in draw order, queried every round.
  std::vector<Vector> pool_features;
  pool_features.reserve(pool.size());
  for (const std::size_t flat : pool) pool_features.push_back(space.point(flat));

  std::vector<Vector> train_x;
  std::vector<double> train_y;
  std::size_t drawn = 0;
  auto draw = [&](std::size_t count) {
    while (count-- > 0 && drawn < pool.size()) {
      train_x.push_back(pool_features[drawn]);
      // Learn log-time: multiplicative structure, relative-error friendly.
      train_y.push_back(std::log(truth.times[pool[drawn]]));
      ++drawn;
    }
  };

  draw(options.initial_samples);
  const std::size_t cap = std::min(options.max_samples, pool.size());
  while (true) {
    MlpConfig config;
    config.layer_sizes.push_back(pool_features[0].size());
    for (const std::size_t h : options.hidden_layers) config.layer_sizes.push_back(h);
    config.layer_sizes.push_back(1);
    config.seed = options.seed + train_x.size();
    Mlp mlp(config);
    mlp.fit(train_x, train_y, options.epochs_per_round);

    // Predict over every feasible design in one batch; pick the predicted
    // best and sum the errors serially, in pool order.
    const std::vector<double> log_preds = mlp.predict_batch(pool_features);
    std::size_t predicted_best = pool[0];
    double predicted_best_value = std::numeric_limits<double>::infinity();
    double rel_error_sum = 0.0;
    for (std::size_t k = 0; k < pool.size(); ++k) {
      const std::size_t flat = pool[k];
      const double log_pred = log_preds[k];
      if (log_pred < predicted_best_value) {
        predicted_best_value = log_pred;
        predicted_best = flat;
      }
      const double pred = std::exp(log_pred);
      rel_error_sum += std::fabs(pred - truth.times[flat]) / truth.times[flat];
    }
    result.simulations = train_x.size();
    result.best_index = predicted_best;
    result.best_time = truth.times[predicted_best];
    result.mean_relative_error = rel_error_sum / static_cast<double>(pool.size());

    if (design_regret(truth, predicted_best) <= target_regret) {
      result.reached_target = true;
      break;
    }
    if (train_x.size() >= cap) break;
    draw(options.batch_size);
  }
  return result;
}

}  // namespace c2b
