#include "c2b/core/c2bound.h"

#include <cmath>

#include "c2b/common/assert.h"
#include "c2b/laws/speedup.h"

namespace c2b {

void AppProfile::validate() const {
  C2B_REQUIRE(ic0 > 0.0, "IC0 must be positive");
  C2B_REQUIRE(f_mem >= 0.0 && f_mem <= 1.0, "f_mem in [0,1]");
  C2B_REQUIRE(f_seq >= 0.0 && f_seq <= 1.0, "f_seq in [0,1]");
  C2B_REQUIRE(overlap_ratio >= 0.0 && overlap_ratio <= 1.0, "overlap ratio in [0,1]");
  C2B_REQUIRE(working_set_lines0 > 0.0, "working set must be positive");
  C2B_REQUIRE(hit_concurrency >= 1.0, "C_H >= 1");
  C2B_REQUIRE(miss_concurrency >= 1.0, "C_M >= 1");
  C2B_REQUIRE(pure_miss_fraction >= 0.0 && pure_miss_fraction <= 1.0, "pMR/MR in [0,1]");
  C2B_REQUIRE(pure_penalty_fraction >= 0.0 && pure_penalty_fraction <= 1.5,
              "pAMP/AMP in [0,1.5]");
  C2B_REQUIRE(stall_scale > 0.0, "stall calibration factor must be positive");
}

void MachineProfile::validate() const {
  C2B_REQUIRE(l1_hit_time > 0.0, "L1 hit time must be positive");
  C2B_REQUIRE(l2_latency > 0.0, "L2 latency must be positive");
  C2B_REQUIRE(memory_latency > l2_latency, "DRAM must be slower than L2");
  C2B_REQUIRE(cycle_time > 0.0, "cycle time must be positive");
  chip.validate();
}

C2BoundModel::C2BoundModel(AppProfile app, MachineProfile machine)
    : app_(std::move(app)), machine_(std::move(machine)) {
  app_.validate();
  machine_.validate();
}

double C2BoundModel::per_core_working_set(double n) const {
  C2B_REQUIRE(n >= 1.0, "core count must be >= 1");
  return app_.working_set_lines0 * app_.g.memory_scale(n) / n;
}

double C2BoundModel::contention_multiplier(double n, double mr1, double mr2_local) const {
  return 1.0 + machine_.memory_contention * (n - 1.0) * app_.f_mem * mr1 * mr2_local;
}

CamatParams C2BoundModel::camat_at(const DesignPoint& d) const {
  const double ws = per_core_working_set(d.n_cores);
  const double c1 = machine_.chip.l1_capacity_lines(d.a1);
  const double c2 = machine_.chip.l2_capacity_lines(d.a2);

  const double mr1 = machine_.l1_miss.miss_rate(c1, ws);
  const double mr2_local = machine_.l2_miss.miss_rate(c2, ws);
  const double amp = machine_.l2_latency +
                     mr2_local * machine_.memory_latency *
                         contention_multiplier(d.n_cores, mr1, mr2_local);

  CamatParams p;
  p.hit_time = machine_.l1_hit_time;
  p.hit_concurrency = app_.hit_concurrency;
  p.pure_miss_rate = app_.pure_miss_fraction * mr1;
  p.pure_miss_penalty = app_.pure_penalty_fraction * amp;
  p.miss_concurrency = app_.miss_concurrency;
  return p;
}

Evaluation C2BoundModel::evaluate(const DesignPoint& d) const {
  C2B_REQUIRE(d.n_cores >= 1.0, "core count must be >= 1");
  C2B_REQUIRE(d.a0 > 0.0 && d.a1 > 0.0 && d.a2 > 0.0, "areas must be positive");

  Evaluation e;
  e.design = d;
  e.cpi_exe = machine_.pollack.cpi_exe(d.a0);

  const double ws = per_core_working_set(d.n_cores);
  const double c1 = machine_.chip.l1_capacity_lines(d.a1);
  const double c2 = machine_.chip.l2_capacity_lines(d.a2);
  e.l1_miss_rate = machine_.l1_miss.miss_rate(c1, ws);
  e.l2_local_miss_rate = machine_.l2_miss.miss_rate(c2, ws);

  const double amp =
      machine_.l2_latency +
      e.l2_local_miss_rate * machine_.memory_latency *
          contention_multiplier(d.n_cores, e.l1_miss_rate, e.l2_local_miss_rate);
  e.amat_params = {.hit_time = machine_.l1_hit_time, .miss_rate = e.l1_miss_rate,
                   .miss_penalty = amp};
  e.amat = amat(e.amat_params);
  e.camat_params = camat_at(d);
  e.camat = camat(e.camat_params);
  e.concurrency_c = e.camat > 0.0 ? e.amat / e.camat : 1.0;

  e.stall_per_instruction =
      app_.stall_scale * data_stall_camat(app_.f_mem, e.camat, app_.overlap_ratio);

  const double g_n = app_.g(d.n_cores);
  const double time_factor = app_.f_seq + g_n * (1.0 - app_.f_seq) / d.n_cores;
  e.execution_time = app_.ic0 * (e.cpi_exe + e.stall_per_instruction) * time_factor *
                     machine_.cycle_time;
  e.problem_size = g_n * app_.ic0;
  e.throughput = e.problem_size / e.execution_time;
  e.speedup_vs_serial = sunni_speedup(app_.f_seq, g_n, d.n_cores);
  return e;
}

}  // namespace c2b
