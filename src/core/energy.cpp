#include "c2b/core/energy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "c2b/common/assert.h"
#include "c2b/solver/minimize.h"

namespace c2b {

void EnergyModel::validate() const {
  C2B_REQUIRE(epi_base > 0.0, "core EPI must be positive");
  C2B_REQUIRE(epi_area_exponent >= 0.0, "EPI area exponent must be non-negative");
  C2B_REQUIRE(l1_access_base > 0.0 && l2_access_base > 0.0, "cache energies must be positive");
  C2B_REQUIRE(cache_energy_exponent >= 0.0, "cache energy exponent must be non-negative");
  C2B_REQUIRE(dram_access_energy >= 0.0, "DRAM energy must be non-negative");
  C2B_REQUIRE(leakage_per_area_cycle >= 0.0, "leakage must be non-negative");
}

EnergyAwareModel::EnergyAwareModel(C2BoundModel model, EnergyModel energy)
    : model_(std::move(model)), energy_(energy) {
  energy_.validate();
}

EnergyEvaluation EnergyAwareModel::evaluate(const DesignPoint& d) const {
  EnergyEvaluation e;
  e.performance = model_.evaluate(d);
  const AppProfile& app = model_.app();
  const ChipConstraints& chip = model_.machine().chip;

  // Total dynamic instructions across the scaled problem.
  const double instructions = e.performance.problem_size;
  const double l1_accesses = instructions * app.f_mem;
  const double l2_accesses = l1_accesses * e.performance.l1_miss_rate;
  const double dram_accesses = l2_accesses * e.performance.l2_local_miss_rate;

  const double l1_kib = chip.l1_capacity_lines(d.a1) * chip.line_bytes / 1024.0;
  const double l2_kib = chip.l2_capacity_lines(d.a2) * chip.line_bytes / 1024.0;

  e.core_dynamic =
      instructions * energy_.epi_base * std::pow(d.a0, energy_.epi_area_exponent);
  e.l1_dynamic =
      l1_accesses * energy_.l1_access_base * std::pow(l1_kib, energy_.cache_energy_exponent);
  e.l2_dynamic =
      l2_accesses * energy_.l2_access_base * std::pow(l2_kib, energy_.cache_energy_exponent);
  e.dram_dynamic = dram_accesses * energy_.dram_access_energy;

  const double occupied_area = d.n_cores * d.per_core_area() + chip.shared_area;
  e.static_energy =
      energy_.leakage_per_area_cycle * occupied_area * e.performance.execution_time;

  e.total_energy =
      e.core_dynamic + e.l1_dynamic + e.l2_dynamic + e.dram_dynamic + e.static_energy;
  e.average_power = e.total_energy / e.performance.execution_time;
  e.edp = e.total_energy * e.performance.execution_time;
  e.ed2p = e.edp * e.performance.execution_time;
  return e;
}

double EnergyAwareModel::objective_value(const DesignPoint& d,
                                         DesignObjective objective) const {
  const EnergyEvaluation e = evaluate(d);
  switch (objective) {
    case DesignObjective::kTime:
      return e.performance.execution_time;
    case DesignObjective::kEnergy:
      return e.total_energy;
    case DesignObjective::kEdp:
      return e.edp;
    case DesignObjective::kEd2p:
      return e.ed2p;
  }
  return e.edp;
}

EnergyAwareOptimizer::EnergyAwareOptimizer(EnergyAwareModel model, OptimizerOptions options)
    : model_(std::move(model)), options_(options) {
  C2B_REQUIRE(options_.n_min >= 1, "n_min >= 1");
}

EnergyEvaluation EnergyAwareOptimizer::best_allocation(long long n_cores,
                                                       DesignObjective objective) const {
  const ChipConstraints& chip = model_.model().machine().chip;
  const double n = static_cast<double>(n_cores);
  const double budget = chip.per_core_budget(n);
  C2B_REQUIRE(budget >= chip.min_core_area + chip.min_l1_area + chip.min_l2_area,
              "per-core budget below minimum areas");

  auto objective_fn = [&](const Vector& x) {
    const double a1 = x[0];
    const double a2 = x[1];
    const double a0 = budget - a1 - a2;
    double penalty = 0.0;
    auto violation = [](double v) { return v > 0.0 ? v : 0.0; };
    penalty += violation(chip.min_l1_area - a1);
    penalty += violation(chip.min_l2_area - a2);
    penalty += violation(chip.min_core_area - a0);
    // Above every feasible objective value: ED^2P runs past 1e16 on
    // realistic chips, so a smaller constant lets the search settle in the
    // infeasible region.
    if (penalty > 0.0) return 1e300 * (1.0 + penalty);
    return model_.objective_value({.n_cores = n, .a0 = a0, .a1 = a1, .a2 = a2}, objective);
  };

  NelderMeadOptions nm;
  nm.tolerance = 1e-12;
  nm.initial_step = 0.2;
  double best_value = std::numeric_limits<double>::infinity();
  Vector best_x{budget * 0.2, budget * 0.4};
  const int restarts = std::max(1, options_.nelder_mead_restarts);
  for (int restart = 0; restart < restarts; ++restart) {
    const double l1_frac = 0.1 + 0.25 * restart / static_cast<double>(restarts);
    const double l2_frac = 0.2 + 0.4 * restart / static_cast<double>(restarts);
    const NelderMeadResult res =
        nelder_mead_minimize(objective_fn, {budget * l1_frac, budget * l2_frac}, nm);
    if (res.value < best_value) {
      best_value = res.value;
      best_x = res.x;
    }
  }
  return model_.evaluate(
      {.n_cores = n, .a0 = budget - best_x[0] - best_x[1], .a1 = best_x[0], .a2 = best_x[1]});
}

EnergyOptimum EnergyAwareOptimizer::optimize(DesignObjective objective) const {
  const ChipConstraints& chip = model_.model().machine().chip;
  long long n_max = options_.n_max > 0 ? options_.n_max : chip.max_cores();
  n_max = std::min(n_max, options_.n_cap);
  C2B_REQUIRE(n_max >= options_.n_min, "no feasible core count in range");

  EnergyOptimum result;
  result.objective = objective;
  double best_value = std::numeric_limits<double>::infinity();
  bool have_best = false;
  for (long long n = options_.n_min; n <= n_max; ++n) {
    const double budget = chip.per_core_budget(static_cast<double>(n));
    if (budget < chip.min_core_area + chip.min_l1_area + chip.min_l2_area) break;
    EnergyEvaluation eval = best_allocation(n, objective);
    const double value = [&] {
      switch (objective) {
        case DesignObjective::kTime:
          return eval.performance.execution_time;
        case DesignObjective::kEnergy:
          return eval.total_energy;
        case DesignObjective::kEdp:
          return eval.edp;
        case DesignObjective::kEd2p:
          return eval.ed2p;
      }
      return eval.edp;
    }();
    result.per_core_count.push_back(eval);
    if (value < best_value) {
      best_value = value;
      result.best = std::move(eval);
      have_best = true;
    }
  }
  C2B_REQUIRE(have_best, "no feasible design found");
  return result;
}

std::vector<ParetoPoint> EnergyAwareOptimizer::pareto_front() const {
  const ChipConstraints& chip = model_.model().machine().chip;
  long long n_max = options_.n_max > 0 ? options_.n_max : chip.max_cores();
  n_max = std::min(n_max, options_.n_cap);

  std::vector<EnergyEvaluation> candidates;
  for (long long n = options_.n_min; n <= n_max; ++n) {
    const double budget = chip.per_core_budget(static_cast<double>(n));
    if (budget < chip.min_core_area + chip.min_l1_area + chip.min_l2_area) break;
    candidates.push_back(best_allocation(n, DesignObjective::kTime));
    candidates.push_back(best_allocation(n, DesignObjective::kEnergy));
  }
  C2B_REQUIRE(!candidates.empty(), "no feasible designs for the Pareto front");

  std::sort(candidates.begin(), candidates.end(),
            [](const EnergyEvaluation& a, const EnergyEvaluation& b) {
              if (a.performance.execution_time != b.performance.execution_time)
                return a.performance.execution_time < b.performance.execution_time;
              return a.total_energy < b.total_energy;
            });
  std::vector<ParetoPoint> front;
  double best_energy = std::numeric_limits<double>::infinity();
  for (EnergyEvaluation& candidate : candidates) {
    if (candidate.total_energy < best_energy - 1e-12) {
      best_energy = candidate.total_energy;
      front.push_back({std::move(candidate)});
    }
  }
  return front;
}

}  // namespace c2b
