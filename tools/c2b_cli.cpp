// c2b — the C²-Bound command-line tool.
//
//   c2b workloads
//       List the built-in synthetic workloads.
//   c2b characterize --workload <name> [--instructions N] [--simpoints]
//       Trace + simulate the workload and print its measured AppProfile.
//   c2b optimize [--f-mem F] [--f-seq F] [--ch C] [--cm C] [--overlap R]
//                [--working-set LINES] [--g fixed|linear|power:<b>|fft:<M>]
//                [--area A] [--shared-area A] [--contention Q] [--n-max N]
//                [--asymmetric] [--objective time|energy|edp|ed2p]
//       Solve the C²-Bound chip-design problem for the given profile and
//       print the optimum, the per-N frontier, and the elasticity profile.
//   c2b simulate --workload <name> [--cores N] [--l1-kib K] [--l2-kib K]
//                [--issue W] [--rob R] [--prefetch none|nextline|stride]
//                [--coherence] [--instructions N]
//       Run the cycle-level simulator and print CPI, C-AMAT, APC per layer.
//   c2b trace --workload <name> --out <file> [--instructions N] [--scale S]
//       Generate a trace and save it in the binary trace format.
//   c2b aps [--workload <name>] [--instructions N] [--per-core-cap N]
//           [--characterize-instructions N] [--radius R] [--area A]
//           [--shared-area A] [--seed S] [--repeat N]
//       Run the APS design-space exploration (characterize, analytic
//       solve, neighborhood simulation) on a small grid and print the
//       chosen design plus the run's simulation/memory-access totals.
//       --repeat re-runs the whole flow N times: repeats are served by the
//       memoized simulation cache and must match the first run bit for bit
//       (watch exec.simcache.hit in --metrics-out).
//   c2b dse [--workload <name>] [--instructions N] [--per-core-cap N]
//           [--area A] [--shared-area A] [--seed S] [--pareto]
//           [--power-budget P] [--bw-budget B] [--noc-budget L]
//           [--surrogate | --no-surrogate] [--surrogate-band B]
//           [--surrogate-warmup N] [--large-axes]
//       Run the full-factorial DSE (every feasible grid point simulated,
//       batched over shared trace streams) and print the ground-truth best
//       design plus the batch/cache effectiveness summary.
//       --surrogate enables the MLP-guided sweep pruner: trace-equivalence
//       classes whose predicted best member falls outside the relative
//       --surrogate-band (default 0.25) of the incumbent are skipped, after
//       --surrogate-warmup (default 3) exact samples per class seed the
//       model; a guaranteed exact fallback pass makes the printed optimum
//       (and the --pareto frontier) simulator ground truth either way.
//       --large-axes swaps in the Fig.-12-scale preset grid (~10^5 points)
//       instead of the default smoke-sized grid.
//       --power-budget / --bw-budget / --noc-budget (all > 0; also accepted
//       by `c2b aps`) add power, off-chip-bandwidth, and NoC-bisection
//       ceilings to the Eq. (12) area constraint; infeasible points are
//       never simulated. --pareto switches to the Pareto-frontier mode:
//       every feasible point is swept with the same batched engine and the
//       non-dominated (time, power, area) set is printed along with
//       per-constraint rejection/binding statistics.
//   c2b report --journal <file> [--top K] [--heatmap-out <csv>]
//       Replay a run journal (see --journal-out) into a post-mortem: phase
//       time breakdown, cache/batch effectiveness, top-K slowest trace
//       classes, per-class sim-time percentiles, and (with --heatmap-out)
//       an objective-vs-(N, cache split) CSV heatmap.
//   c2b check [--family all|analytic|determinism|invariants|kernel|constraint|surrogate|cache]
//             [--seed S] [--configs N] [--aps-configs N] [--cases N]
//             [--designs N] [--kernel-configs N] [--constraint-sets N]
//             [--surrogate-sets N] [--cache-sets N] [--bands-out <file>]
//             [--corpus <dir>]
//       Run the differential oracle families (analytic model vs simulator
//       tolerance bands, serial-vs-parallel determinism on random configs,
//       invariant registry). Deterministic for a fixed --seed; failures
//       print a one-line C2B_CHECK_SEED/C2B_CHECK_CASE repro and exit
//       nonzero. --bands-out exports the per-workload tolerance bands as
//       JSON; --corpus persists shrunk property counterexamples.
//
// Flags accepted by every command:
//   --threads N            parallel execution width for the DSE/APS sweeps
//                          (default: C2B_THREADS env, else hardware
//                          concurrency; 1 = serial)
//   --metrics-out <path>   dump the counter/gauge/histogram registry after
//                          the command (JSON, or CSV when path ends .csv)
//   --trace-out <path>     dump recorded spans as Chrome trace-event JSON
//                          (load in chrome://tracing or Perfetto)
//   --span-sample-period N record only every Nth span per thread
//   --journal-out <path>   record the run into an append-only JSONL journal
//                          (the flight recorder `c2b report` replays)
//   --progress[=N]         live progress/ETA line on stderr, redrawn at
//                          most every N ms (default 500), plus a per-phase
//                          wall-clock attribution summary at end of run
//
// Every command prints plain text to stdout; exit code 0 on success.
// Unknown flags are an error: each command lists them and exits nonzero.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "c2b/aps/aps.h"
#include "c2b/aps/characterize.h"
#include "c2b/check/oracles.h"
#include "c2b/core/asymmetric.h"
#include "c2b/core/energy.h"
#include "c2b/core/optimizer.h"
#include "c2b/core/sensitivity.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/export.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"
#include "c2b/obs/progress.h"
#include "c2b/obs/report.h"
#include "c2b/sim/system/system.h"
#include "c2b/trace/trace_io.h"
#include "c2b/trace/workloads.h"
#include "cli_args.h"

namespace c2b::cli {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: c2b <command> [flags]\n"
               "commands: workloads | characterize | optimize | simulate | trace | aps | dse | report | check\n"
               "run `c2b <command> --help` is not needed — see the header of\n"
               "tools/c2b_cli.cpp or README.md for the flag lists.\n");
  return 2;
}

const WorkloadSpec* find_workload(const std::vector<WorkloadSpec>& catalog,
                                  const std::string& name) {
  for (const WorkloadSpec& spec : catalog)
    if (spec.name == name) return &spec;
  return nullptr;
}

ScalingFunction parse_g(const std::string& text) {
  if (text == "fixed") return ScalingFunction::fixed();
  if (text == "linear") return ScalingFunction::linear();
  if (text.rfind("power:", 0) == 0) return ScalingFunction::power(std::stod(text.substr(6)));
  if (text.rfind("fft:", 0) == 0) return ScalingFunction::fft_like(std::stod(text.substr(4)));
  throw std::invalid_argument("unknown g(N) spec '" + text +
                              "' (want fixed|linear|power:<b>|fft:<M>)");
}

sim::SystemConfig default_system() {
  sim::SystemConfig config;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

// ---------------------------------------------------------------------------

int cmd_workloads(const Args& args) {
  args.finish();
  std::printf("%-20s %-8s %-10s %s\n", "name", "f_seq", "g(N)", "emulates");
  for (const WorkloadSpec& spec : workload_catalog()) {
    std::printf("%-20s %-8.2f %-10s %s\n", spec.name.c_str(), spec.f_seq,
                spec.g.description().substr(0, 10).c_str(), spec.emulates.c_str());
  }
  return 0;
}

int cmd_characterize(const Args& args) {
  const std::string name = args.get("workload", std::string("fluidanimate_like"));
  const auto catalog = workload_catalog();
  const WorkloadSpec* spec = find_workload(catalog, name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (see `c2b workloads`)\n", name.c_str());
    return 2;
  }
  CharacterizeOptions options;
  options.instructions =
      static_cast<std::uint64_t>(args.get("instructions", 200'000LL));
  options.use_simpoints = args.has("simpoints");
  args.mark_used("simpoints");
  args.finish();

  const Characterization c = characterize(*spec, default_system(), options);
  std::printf("workload: %s (%s)\n", spec->name.c_str(), spec->emulates.c_str());
  std::printf("simulated %zu instructions in %zu runs\n\n", c.simulated_instructions,
              c.simulation_runs);
  std::printf("f_mem                 %8.3f\n", c.app.f_mem);
  std::printf("CPI (measured)        %8.3f\n", c.measured_cpi);
  std::printf("CPI_exe (perfect mem) %8.3f\n", c.cpi_exe);
  std::printf("AMAT                  %8.3f cycles\n", c.camat.amat_value);
  std::printf("C-AMAT                %8.3f cycles\n", c.camat.camat_value);
  std::printf("concurrency C         %8.3f\n", c.camat.concurrency_c);
  std::printf("C_H / C_M             %8.3f / %.3f\n", c.app.hit_concurrency,
              c.app.miss_concurrency);
  std::printf("pMR/MR, pAMP/AMP      %8.3f / %.3f\n", c.app.pure_miss_fraction,
              c.app.pure_penalty_fraction);
  std::printf("overlap ratio         %8.3f\n", c.app.overlap_ratio);
  std::printf("working set           %8.0f lines\n", c.app.working_set_lines0);
  std::printf("L1 miss power law     MR(S) ~ %.4g * S^-%.3f\n", c.l1_power_law.alpha,
              c.l1_power_law.beta);
  std::printf("APC per layer         L1 %.3f | L2 %.4f | DRAM %.4f\n", c.hierarchy.apc_l1,
              c.hierarchy.apc_l2, c.hierarchy.apc_mem);
  return 0;
}

AppProfile profile_from_flags(const Args& args) {
  AppProfile app;
  app.ic0 = args.get("ic0", 1e6);
  app.f_mem = args.get("f-mem", 0.35);
  app.f_seq = args.get("f-seq", 0.05);
  app.overlap_ratio = args.get("overlap", 0.3);
  app.working_set_lines0 = args.get("working-set", 32768.0);
  app.g = parse_g(args.get("g", std::string("power:1.5")));
  app.hit_concurrency = args.get("ch", 2.0);
  app.miss_concurrency = args.get("cm", 3.0);
  app.pure_miss_fraction = args.get("pure-miss-fraction", 0.6);
  app.pure_penalty_fraction = args.get("pure-penalty-fraction", 0.8);
  return app;
}

MachineProfile machine_from_flags(const Args& args) {
  MachineProfile machine;
  machine.chip.total_area = args.get("area", 256.0);
  machine.chip.shared_area = args.get("shared-area", 16.0);
  machine.memory_contention = args.get("contention", 0.05);
  machine.memory_latency = args.get("memory-latency", machine.memory_latency);
  return machine;
}

int cmd_optimize(const Args& args) {
  const AppProfile app = profile_from_flags(args);
  const MachineProfile machine = machine_from_flags(args);
  OptimizerOptions options;
  options.n_max = args.get("n-max", 0LL);
  const std::string objective = args.get("objective", std::string("time"));
  const bool asymmetric = args.has("asymmetric");
  args.mark_used("asymmetric");
  args.finish();

  if (asymmetric) {
    const AsymmetricOptimizer optimizer(AsymmetricC2BoundModel(app, machine), options);
    const AsymmetricOptimum result = optimizer.optimize();
    std::printf("asymmetric optimum (%s):\n",
                result.opt_case == OptimizationCase::kMaximizeThroughput ? "max W/T"
                                                                         : "min T");
    std::printf("  small cores n      = %lld\n", result.best.design.n_small);
    std::printf("  big core ratio r   = %.2f small-core equivalents\n",
                result.best.design.big_core_ratio);
    std::printf("  area fractions     = core %.2f | L1 %.2f | L2 %.2f\n",
                result.best.design.core_fraction(), result.best.design.l1_fraction,
                result.best.design.l2_fraction);
    std::printf("  serial / parallel  = %.3g / %.3g cycles\n", result.best.serial_time,
                result.best.parallel_time);
    std::printf("  time, throughput   = %.4g cycles, %.4g work/cycle\n",
                result.best.execution_time, result.best.throughput);
    return 0;
  }

  if (objective != "time") {
    DesignObjective parsed = DesignObjective::kEdp;
    if (objective == "energy") parsed = DesignObjective::kEnergy;
    else if (objective == "edp") parsed = DesignObjective::kEdp;
    else if (objective == "ed2p") parsed = DesignObjective::kEd2p;
    else {
      std::fprintf(stderr, "unknown objective '%s'\n", objective.c_str());
      return 2;
    }
    const EnergyAwareOptimizer optimizer(
        EnergyAwareModel(C2BoundModel(app, machine), EnergyModel{}), options);
    const EnergyOptimum result = optimizer.optimize(parsed);
    const DesignPoint& d = result.best.performance.design;
    std::printf("%s-optimal design:\n", objective.c_str());
    std::printf("  N = %.0f, A0 = %.3f, A1 = %.3f, A2 = %.3f\n", d.n_cores, d.a0, d.a1,
                d.a2);
    std::printf("  time %.4g cycles | energy %.4g | EDP %.4g | power %.4g\n",
                result.best.performance.execution_time, result.best.total_energy,
                result.best.edp, result.best.average_power);
    return 0;
  }

  const C2BoundOptimizer optimizer(C2BoundModel(app, machine), options);
  const OptimalDesign result = optimizer.optimize();
  std::printf("C²-Bound optimum (%s):\n",
              result.opt_case == OptimizationCase::kMaximizeThroughput
                  ? "case I: maximize W/T"
                  : "case II: minimize T");
  const DesignPoint& d = result.best.design;
  std::printf("  N = %.0f cores, A0 = %.3f, A1 = %.3f, A2 = %.3f (area units)\n", d.n_cores,
              d.a0, d.a1, d.a2);
  std::printf("  C-AMAT %.3f cycles (C = %.2f), L1 MR %.4f, L2 local MR %.4f\n",
              result.best.camat, result.best.concurrency_c, result.best.l1_miss_rate,
              result.best.l2_local_miss_rate);
  std::printf("  time %.4g cycles | throughput %.4g | Sun-Ni speedup %.2f\n",
              result.best.execution_time, result.best.throughput,
              result.best.speedup_vs_serial);
  std::printf("  area price lambda = %.4g\n\n", result.lambda);

  const C2BoundModel model(app, machine);
  const auto elasticities = time_elasticities(model, d);
  std::printf("elasticities at the optimum (d log T / d log x):\n");
  for (const Elasticity& e : elasticities)
    std::printf("  %-24s %+8.4f  (at %.4g)\n", e.parameter.c_str(), e.elasticity, e.value);
  std::printf("binding bound: %s\n", to_string(classify_binding_bound(elasticities)));
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string name = args.get("workload", std::string("stencil"));
  const auto catalog = workload_catalog();
  const WorkloadSpec* spec = find_workload(catalog, name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (see `c2b workloads`)\n", name.c_str());
    return 2;
  }

  sim::SystemConfig config = default_system();
  const auto cores = static_cast<std::uint32_t>(args.get("cores", 1LL));
  config.hierarchy.cores = cores;
  config.hierarchy.l1_geometry.size_bytes =
      static_cast<std::uint64_t>(args.get("l1-kib", 16LL)) * 1024;
  config.hierarchy.l2_geometry.size_bytes =
      static_cast<std::uint64_t>(args.get("l2-kib", 512LL)) * 1024;
  config.core.issue_width = static_cast<std::uint32_t>(args.get("issue", 4LL));
  config.core.rob_size = static_cast<std::uint32_t>(args.get("rob", 128LL));
  config.hierarchy.coherence = args.has("coherence");
  args.mark_used("coherence");
  const std::string prefetch = args.get("prefetch", std::string("none"));
  if (prefetch == "nextline") config.hierarchy.l1_prefetch.kind = sim::PrefetchKind::kNextLine;
  else if (prefetch == "stride") config.hierarchy.l1_prefetch.kind = sim::PrefetchKind::kStride;
  else if (prefetch != "none") {
    std::fprintf(stderr, "unknown prefetch kind '%s'\n", prefetch.c_str());
    return 2;
  }
  const auto instructions =
      static_cast<std::uint64_t>(args.get("instructions", 100'000LL));
  args.finish();

  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < cores; ++c)
    traces.push_back(spec->make_generator(1.0, 7 + c)->generate(instructions));
  const sim::SystemResult result = sim::simulate_system(config, traces);

  std::printf("workload %s on %u core(s), %llu instructions each\n", spec->name.c_str(),
              cores, static_cast<unsigned long long>(instructions));
  std::printf("makespan          %llu cycles (aggregate IPC %.3f)\n",
              static_cast<unsigned long long>(result.cycles), result.aggregate_ipc());
  std::uint64_t memory_accesses = 0;
  for (const sim::CoreResult& core : result.cores) memory_accesses += core.memory_accesses;
  std::printf("memory accesses   %llu (all cores)\n",
              static_cast<unsigned long long>(memory_accesses));
  const sim::CoreResult& core0 = result.cores[0];
  std::printf("core 0: CPI %.3f | f_mem %.3f | AMAT %.2f | C-AMAT %.2f | C %.2f\n",
              core0.cpi, core0.f_mem, core0.camat.amat_value, core0.camat.camat_value,
              core0.camat.concurrency_c);
  const sim::HierarchyStats& h = result.hierarchy;
  std::printf("L1 MR %.4f | L2 local MR %.4f | DRAM accesses %llu (row hit %.2f)\n",
              h.l1_miss_ratio, h.l2_miss_ratio,
              static_cast<unsigned long long>(h.dram_accesses), h.dram_row_hit_ratio);
  std::printf("APC: L1 %.3f | L2 %.4f | DRAM %.4f\n", h.apc_l1, h.apc_l2, h.apc_mem);
  std::printf("writebacks: L1->L2 %llu | L2->DRAM %llu\n",
              static_cast<unsigned long long>(h.l1_writebacks),
              static_cast<unsigned long long>(h.l2_writebacks));
  if (config.hierarchy.l1_prefetch.kind != sim::PrefetchKind::kNone)
    std::printf("prefetch: issued %llu, useful %llu (accuracy %.2f)\n",
                static_cast<unsigned long long>(h.prefetches_issued),
                static_cast<unsigned long long>(h.prefetch_useful_hits),
                h.prefetch_accuracy);
  if (config.hierarchy.coherence)
    std::printf("coherence: invalidations %llu, owner transfers %llu, upgrades %llu\n",
                static_cast<unsigned long long>(h.coherence_invalidations),
                static_cast<unsigned long long>(h.coherence_owner_transfers),
                static_cast<unsigned long long>(h.coherence_upgrades));
  return 0;
}

// One-line batch/cache effectiveness summary shared by `c2b dse` and
// `c2b aps`: sim-cache traffic for the whole process, plus how the batched
// replay engine covered this command's sweeps.
void print_batch_summary(const BatchReplayStats& batch) {
  const exec::SimCacheStats cache = exec::SimCache::global().stats();
  std::printf("cache hits %llu (%llu mem + %llu disk) / misses %llu | "
              "batch classes %zu (%zu members) | regen avoided %llu accesses\n",
              static_cast<unsigned long long>(cache.hits + cache.disk_hits),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.disk_hits),
              static_cast<unsigned long long>(cache.misses), batch.classes, batch.members,
              static_cast<unsigned long long>(batch.regen_avoided_accesses));
  if (exec::SimCache::global().has_disk_tier())
    std::printf("disk tier: %llu hits / %llu misses | %zu entries | "
                "%llu flushes | %llu drops\n",
                static_cast<unsigned long long>(cache.disk_hits),
                static_cast<unsigned long long>(cache.disk_misses), cache.disk_entries,
                static_cast<unsigned long long>(cache.disk_flushes),
                static_cast<unsigned long long>(cache.disk_drops));
  if (batch.simd_steps > 0)
    std::printf("simd kernel: %llu steps | %llu peeled records | %llu lane-rounds\n",
                static_cast<unsigned long long>(batch.simd_steps),
                static_cast<unsigned long long>(batch.simd_peels),
                static_cast<unsigned long long>(batch.simd_lanes_active));
}

/// Journal the sweep configuration (full context + workload uid) before the
/// run and the batch totals after — the pair `c2b report` attributes
/// cache/batch effectiveness from.
void journal_sweep_config(const char* command, const DseContext& context,
                          std::size_t grid_points) {
  if (auto* journal = obs::active_journal())
    journal->emit(obs::JournalEvent("sweep_config")
                      .str("command", command)
                      .str("workload", context.workload.name)
                      .str("workload_uid", context.workload.uid)
                      .count("instructions", context.instructions0)
                      .count("per_core_cap", context.per_core_cap)
                      .num("area", context.chip.total_area)
                      .num("shared_area", context.chip.shared_area)
                      .count("seed", context.seed)
                      .count("grid_points", grid_points));
}

void journal_batch_stats(const BatchReplayStats& batch) {
  auto* journal = obs::active_journal();
  if (journal == nullptr) return;
  journal->emit(obs::JournalEvent("batch_stats")
                    .count("classes", batch.classes)
                    .count("members", batch.members)
                    .count("cache_hits", batch.cache_hits)
                    .count("cache_hits_disk", batch.cache_hits_disk)
                    .count("chunks_shared", batch.chunks_shared)
                    .count("regen_avoided_accesses", batch.regen_avoided_accesses)
                    .count("simd_steps", batch.simd_steps)
                    .count("simd_peels", batch.simd_peels)
                    .count("simd_lanes_active", batch.simd_lanes_active));
  // Tier attribution snapshot for the `c2b report` "== cache ==" section:
  // process-wide sim-cache traffic split memory vs disk at the end of the
  // sweep.
  const exec::SimCacheStats cache = exec::SimCache::global().stats();
  journal->emit(obs::JournalEvent("cache_tiers")
                    .count("mem_hits", cache.hits)
                    .count("misses", cache.misses)
                    .count("mem_entries", cache.entries)
                    .count("evictions", cache.evictions)
                    .count("disk_attached", exec::SimCache::global().has_disk_tier() ? 1 : 0)
                    .count("disk_hits", cache.disk_hits)
                    .count("disk_misses", cache.disk_misses)
                    .count("disk_entries", cache.disk_entries)
                    .count("disk_flushes", cache.disk_flushes)
                    .count("disk_drops", cache.disk_drops));
}

/// Shared `--power-budget` / `--bw-budget` / `--noc-budget` handling for
/// the sweep commands. Unset flags leave the budget infinite (constraint
/// not assembled); set values must be finite and > 0 — zero, negative, and
/// NaN budgets are rejected here with a clear message (non-numeric text is
/// rejected by the parser itself), exit nonzero either way.
bool apply_constraint_flags(const Args& args, const char* command, DseContext& context) {
  const struct {
    const char* flag;
    double* budget;
  } budgets[] = {{"power-budget", &context.power_budget},
                 {"bw-budget", &context.bw_budget},
                 {"noc-budget", &context.noc_budget}};
  for (const auto& entry : budgets) {
    if (!args.has(entry.flag)) continue;
    const double value = args.get(entry.flag, 0.0);
    if (!(value > 0.0) || !std::isfinite(value)) {
      std::fprintf(stderr, "%s: --%s must be a finite value > 0\n", command, entry.flag);
      return false;
    }
    *entry.budget = value;
  }
  return true;
}

/// Shared `--surrogate` / `--no-surrogate` / `--surrogate-band` /
/// `--surrogate-warmup` handling for the sweep commands. The two boolean
/// flags are mutually exclusive; the band must be finite and >= 0 and the
/// warmup >= 1 (non-numeric text is rejected by the parser itself). Returns
/// false after printing an error, exit nonzero either way.
bool apply_surrogate_flags(const Args& args, const char* command, DseContext& context) {
  const bool on = args.get("surrogate", std::string("false")) == "true";
  const bool off = args.get("no-surrogate", std::string("false")) == "true";
  if (on && off) {
    std::fprintf(stderr, "%s: --surrogate and --no-surrogate are mutually exclusive\n",
                 command);
    return false;
  }
  if (on) context.surrogate_enabled = true;
  if (off) context.surrogate_enabled = false;
  if (args.has("surrogate-band")) {
    const double band = args.get("surrogate-band", 0.0);
    if (!(band >= 0.0) || !std::isfinite(band)) {
      std::fprintf(stderr, "%s: --surrogate-band must be a finite value >= 0\n", command);
      return false;
    }
    context.surrogate_band = band;
  }
  if (args.has("surrogate-warmup")) {
    const auto warmup = args.get("surrogate-warmup", 0LL);
    if (warmup < 1) {
      std::fprintf(stderr, "%s: --surrogate-warmup must be >= 1\n", command);
      return false;
    }
    context.surrogate_warmup = static_cast<std::size_t>(warmup);
  }
  return true;
}

void print_surrogate_summary(const SurrogateStats& stats) {
  if (stats.classes_total == 0) return;
  const double class_pct =
      100.0 * static_cast<double>(stats.classes_simulated) /
      static_cast<double>(stats.classes_total);
  const double point_pct = stats.points_total > 0
                               ? 100.0 * static_cast<double>(stats.points_simulated) /
                                     static_cast<double>(stats.points_total)
                               : 0.0;
  std::printf("surrogate         %zu/%zu classes simulated (%.1f%%), %zu pruned\n",
              stats.classes_simulated, stats.classes_total, class_pct,
              stats.classes_pruned);
  std::printf("  points          %zu/%zu simulated (%.1f%%), warmup %zu, fallback %zu\n",
              stats.points_simulated, stats.points_total, point_pct, stats.warmup_sims,
              stats.fallback_sims);
  std::printf("  model           %zu round(s), %zu trained samples, final MRE %.2f%%\n",
              stats.rounds, stats.trained_samples, 100.0 * stats.mre);
}

/// The sweep context `c2b aps` and `c2b dse` share: workload lookup, the
/// study-size, area and seed flags, and the constraint budgets. Prints the
/// error and returns nothing when the workload is unknown or a budget is
/// invalid; the caller exits 2.
std::optional<DseContext> sweep_context(const Args& args, const char* command) {
  const std::string name = args.get("workload", std::string("stencil"));
  const auto catalog = workload_catalog();
  const WorkloadSpec* spec = find_workload(catalog, name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (see `c2b workloads`)\n", name.c_str());
    return std::nullopt;
  }

  DseContext context;
  context.base = default_system();
  context.workload = *spec;
  context.instructions0 = static_cast<std::uint64_t>(args.get("instructions", 20'000LL));
  context.per_core_cap = static_cast<std::uint64_t>(args.get("per-core-cap", 10'000LL));
  context.chip.total_area = args.get("area", 9.0);
  context.chip.shared_area = args.get("shared-area", 1.0);
  context.seed = static_cast<std::uint64_t>(args.get("seed", 99LL));
  if (!apply_constraint_flags(args, command, context)) return std::nullopt;
  return context;
}

/// The small buildable 64-point grid both sweep commands default to, so
/// `c2b aps` (analytic narrowing) and `c2b dse` (full factorial) are
/// directly comparable. The paper-scale space is bench territory; `c2b dse
/// --large-axes` swaps in the Fig.-12-scale preset instead.
DseAxes smoke_axes() {
  DseAxes axes;
  axes.a0 = {1.0, 4.0};
  axes.a1 = {0.5, 1.0};
  axes.a2 = {1.0, 2.0};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

int cmd_aps(const Args& args) {
  const std::optional<DseContext> context = sweep_context(args, "aps");
  if (!context) return 2;
  const WorkloadSpec& spec = context->workload;

  ApsOptions options;
  options.neighborhood_radius =
      static_cast<std::size_t>(args.get("radius", 1LL));
  options.characterize.instructions =
      static_cast<std::uint64_t>(args.get("characterize-instructions", 60'000LL));
  const auto repeat = args.get("repeat", 1LL);
  args.finish();
  if (repeat < 1) {
    std::fprintf(stderr, "aps: --repeat must be >= 1\n");
    return 2;
  }

  const GridSpace space = make_design_space(smoke_axes());
  journal_sweep_config("aps", *context, space.size());
  ApsResult aps = run_aps(*context, space, options);
  // Re-running the same neighborhood hits the memoized simulation cache;
  // every repeat must reproduce the first result bit for bit (the
  // exec.simcache.* counters in --metrics-out show the hit traffic).
  for (long long r = 1; r < repeat; ++r) {
    const ApsResult again = run_aps(*context, space, options);
    if (again.best_index != aps.best_index || again.best_time != aps.best_time ||
        again.memory_accesses != aps.memory_accesses) {
      std::fprintf(stderr, "aps: repeat %lld diverged from the first run\n", r);
      return 1;
    }
  }

  std::printf("APS on workload %s (%s), %zu-point grid\n", spec.name.c_str(),
              spec.emulates.c_str(), space.size());
  std::printf("characterize: CPI %.3f (CPI_exe %.3f), f_mem %.3f, C-AMAT %.3f\n",
              aps.characterization.measured_cpi, aps.characterization.cpi_exe,
              aps.characterization.app.f_mem, aps.characterization.camat.camat_value);
  const DesignPoint& d = aps.analytic.best.design;
  std::printf("analytic optimum: N = %.0f, A0 = %.3f, A1 = %.3f, A2 = %.3f\n", d.n_cores,
              d.a0, d.a1, d.a2);
  const std::vector<double> chosen = space.point(aps.best_index);
  std::printf("chosen design: a0 %.2f | a1 %.2f | a2 %.2f | N %.0f | issue %.0f | rob %.0f\n",
              chosen[kAxisA0], chosen[kAxisA1], chosen[kAxisA2], chosen[kAxisN],
              chosen[kAxisIssue], chosen[kAxisRob]);
  std::printf("best time/work    %.6g cycles\n", aps.best_time);
  std::printf("simulations       %zu (narrowing factor %.1fx)\n", aps.simulations,
              aps.narrowing_factor);
  std::printf("memory accesses   %llu\n",
              static_cast<unsigned long long>(aps.memory_accesses));
  print_batch_summary(aps.batch);
  journal_batch_stats(aps.batch);
  return 0;
}

int cmd_dse(const Args& args) {
  std::optional<DseContext> context = sweep_context(args, "dse");
  if (!context) return 2;
  if (!apply_surrogate_flags(args, "dse", *context)) return 2;
  const WorkloadSpec& spec = context->workload;
  const bool pareto = args.has("pareto");
  args.mark_used("pareto");
  const bool large_axes = args.get("large-axes", std::string("false")) == "true";
  args.finish();

  const GridSpace space = make_design_space(large_axes ? make_large_axes() : smoke_axes());
  journal_sweep_config("dse", *context, space.size());

  if (pareto) {
    const ParetoDseResult result = run_pareto_dse(*context, space);
    std::printf("Pareto DSE on workload %s (%s), %zu-point grid\n", spec.name.c_str(),
                spec.emulates.c_str(), space.size());
    std::printf("feasible          %zu of %zu points\n", result.feasible_count,
                result.grid_points);
    std::printf("frontier          %zu non-dominated design(s) (time, power, area)\n",
                result.frontier.size());
    for (const FrontierPoint& fp : result.frontier)
      std::printf("  a0 %.2f | a1 %.2f | a2 %.2f | N %.0f | issue %.0f | rob %.0f"
                  "  -> time %.6g | power %.4g | area %.4g\n",
                  fp.point[kAxisA0], fp.point[kAxisA1], fp.point[kAxisA2],
                  fp.point[kAxisN], fp.point[kAxisIssue], fp.point[kAxisRob], fp.time,
                  fp.power, fp.area);
    std::printf("constraints:\n");
    for (const ConstraintUsage& usage : result.usage)
      std::printf("  %-10s budget %-10.4g rejected %-6zu binding %zu/%zu frontier\n",
                  usage.name.c_str(), usage.budget, usage.infeasible, usage.binding,
                  result.frontier.size());
    print_surrogate_summary(result.surrogate);
    print_batch_summary(result.batch);
    journal_batch_stats(result.batch);
    return 0;
  }

  const FullDseResult full = run_full_dse(*context, space);

  std::printf("full-factorial DSE on workload %s (%s), %zu-point grid\n",
              spec.name.c_str(), spec.emulates.c_str(), space.size());
  const std::vector<double> best = space.point(full.best_index);
  std::printf("best design: a0 %.2f | a1 %.2f | a2 %.2f | N %.0f | issue %.0f | rob %.0f\n",
              best[kAxisA0], best[kAxisA1], best[kAxisA2], best[kAxisN],
              best[kAxisIssue], best[kAxisRob]);
  std::printf("best time/work    %.6g cycles\n", full.best_time);
  std::printf("simulations       %zu (%zu feasible of %zu points)\n", full.simulations,
              full.feasible_count, space.size());
  print_surrogate_summary(full.surrogate);
  print_batch_summary(full.batch);
  journal_batch_stats(full.batch);
  return 0;
}

int cmd_report(const Args& args) {
  const std::string journal_path = args.get("journal", std::string(""));
  const auto top_k = args.get("top", 10LL);
  const std::string heatmap_out = args.get("heatmap-out", std::string(""));
  args.finish();
  if (journal_path.empty()) {
    std::fprintf(stderr, "report: --journal <file> is required\n");
    return 2;
  }
  if (top_k < 1) {
    std::fprintf(stderr, "report: --top must be >= 1\n");
    return 2;
  }

  obs::JournalReadStats stats;
  const std::vector<obs::JournalRecord> records = obs::read_journal(journal_path, &stats);
  if (stats.lines == 0) {
    std::fprintf(stderr, "report: journal '%s' is empty or missing\n",
                 journal_path.c_str());
    return 1;
  }
  const obs::RunReport report = obs::build_report(records, stats);
  std::fputs(obs::render_report(report, static_cast<std::size_t>(top_k)).c_str(), stdout);

  if (!heatmap_out.empty()) {
    const std::string csv = obs::heatmap_csv(report);
    if (csv.empty()) {
      std::fprintf(stderr, "report: journal has no point events, heatmap not written\n");
      return 1;
    }
    std::ofstream out(heatmap_out);
    out << csv;
    if (!out) {
      std::fprintf(stderr, "report: cannot write heatmap to %s\n", heatmap_out.c_str());
      return 1;
    }
    std::printf("\nheatmap written to %s\n", heatmap_out.c_str());
  }
  return 0;
}

int cmd_trace(const Args& args) {
  const std::string name = args.get("workload", std::string("stencil"));
  const std::string out = args.get("out", std::string(""));
  if (out.empty()) {
    std::fprintf(stderr, "trace: --out <file> is required\n");
    return 2;
  }
  const auto catalog = workload_catalog();
  const WorkloadSpec* spec = find_workload(catalog, name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (see `c2b workloads`)\n", name.c_str());
    return 2;
  }
  const auto instructions =
      static_cast<std::uint64_t>(args.get("instructions", 100'000LL));
  const double scale = args.get("scale", 1.0);
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1LL));
  args.finish();

  Trace trace = spec->make_generator(scale, seed)->generate(instructions);
  trace.name = spec->name;
  save_trace(out, trace);
  std::printf("wrote %llu records (%llu distinct lines, f_mem %.3f) to %s\n",
              static_cast<unsigned long long>(trace.records.size()),
              static_cast<unsigned long long>(trace.distinct_lines()), trace.f_mem(),
              out.c_str());
  return 0;
}

int cmd_check(const Args& args) {
  check::OracleOptions options;
  options.seed = static_cast<std::uint64_t>(args.get("seed", 42LL));
  options.dse_configs = static_cast<std::size_t>(args.get("configs", 100LL));
  options.aps_configs = static_cast<std::size_t>(args.get("aps-configs", 4LL));
  options.invariant_cases = static_cast<std::size_t>(args.get("cases", 60LL));
  options.designs_per_workload = static_cast<std::size_t>(args.get("designs", 5LL));
  options.kernel_configs = static_cast<std::size_t>(args.get("kernel-configs", 40LL));
  options.constraint_sets = static_cast<std::size_t>(args.get("constraint-sets", 6LL));
  options.surrogate_sets = static_cast<std::size_t>(args.get("surrogate-sets", 3LL));
  options.cache_sets = static_cast<std::size_t>(args.get("cache-sets", 3LL));
  options.corpus_dir = args.get("corpus", std::string(""));
  const std::string bands_out = args.get("bands-out", std::string(""));
  const std::string family = args.get("family", std::string("all"));
  args.finish();

  std::vector<check::OracleReport> reports;
  if (family == "all") {
    reports = check::run_all_oracles(options);
  } else if (family == "analytic") {
    reports.push_back(check::run_analytic_vs_sim_oracle(options));
  } else if (family == "determinism") {
    reports.push_back(check::run_determinism_oracle(options));
  } else if (family == "invariants") {
    reports.push_back(check::run_invariant_oracle(options));
  } else if (family == "kernel") {
    reports.push_back(check::run_kernel_equivalence_oracle(options));
  } else if (family == "constraint") {
    reports.push_back(check::run_constraint_oracle(options));
  } else if (family == "surrogate") {
    reports.push_back(check::run_surrogate_oracle(options));
  } else if (family == "cache") {
    reports.push_back(check::run_persistent_cache_oracle(options));
  } else {
    std::fprintf(stderr,
                 "check: unknown --family '%s' (want all|analytic|determinism|invariants|kernel|constraint|surrogate|cache)\n",
                 family.c_str());
    return 2;
  }

  bool all_passed = true;
  for (const check::OracleReport& report : reports) {
    std::printf("%s %-16s %zu checks, %zu failure(s)\n",
                report.passed() ? "PASS" : "FAIL", report.family.c_str(), report.checks,
                report.failures.size());
    for (const check::ToleranceBand& band : report.bands)
      std::printf("  band %-20s mean %6.2f%% (tol %5.1f%%)  max %6.2f%% (tol %5.1f%%)  %s\n",
                  band.workload.c_str(), 100.0 * band.mean_abs_rel_error,
                  100.0 * band.mean_tolerance, 100.0 * band.max_abs_rel_error,
                  100.0 * band.max_tolerance, band.passed ? "ok" : "VIOLATED");
    for (const std::string& failure : report.failures)
      std::printf("  FAIL %s\n", failure.c_str());
    if (!bands_out.empty() && report.family == "analytic_vs_sim") {
      if (check::write_tolerance_bands_json(bands_out, report.bands))
        std::printf("tolerance bands written to %s\n", bands_out.c_str());
      else
        all_passed = false;
    }
    all_passed = all_passed && report.passed();
  }
  return all_passed ? 0 : 1;
}

/// Owns the run's recorder state and guarantees the process-global active
/// pointers never outlive it, whichever way run() exits.
struct RecorderSession {
  std::unique_ptr<obs::RunJournal> journal;
  std::unique_ptr<obs::ProgressMeter> progress;
  ~RecorderSession() {
    obs::set_active_journal(nullptr);
    obs::set_active_progress(nullptr);
  }
};

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::set<std::string> boolean_flags{
      "simpoints", "asymmetric", "coherence",   "progress",
      "pareto",    "surrogate",  "no-surrogate", "large-axes"};
  const Args args(argc, argv, 2, boolean_flags);

  // Cross-command flags; read before dispatch so the per-command finish()
  // does not reject them as unknown.
  const auto threads = args.get("threads", 0LL);
  if (threads < 0) {
    std::fprintf(stderr, "c2b: --threads must be >= 1\n");
    return 2;
  }
  if (threads > 0) exec::set_thread_count(static_cast<std::size_t>(threads));
  const std::string metrics_out = args.get("metrics-out", std::string(""));
  const std::string trace_out = args.get("trace-out", std::string(""));
  const auto sample_period = args.get("span-sample-period", 1LL);
  if (sample_period > 1)
    obs::set_span_sample_period(static_cast<std::uint32_t>(sample_period));

  RecorderSession recorder;
  const std::string journal_out = args.get("journal-out", std::string(""));
  if (!journal_out.empty()) {
    recorder.journal = obs::RunJournal::open(journal_out);
    if (recorder.journal == nullptr) {
      std::fprintf(stderr, "c2b: cannot open journal %s\n", journal_out.c_str());
      return 1;
    }
    obs::set_active_journal(recorder.journal.get());
  }
  // `--progress` renders at the default interval; `--progress=N` overrides
  // it (milliseconds; 0 redraws on every update).
  if (const auto interval_ms = args.get_opt("progress", 500)) {
    obs::ProgressMeter::Options options;
    options.interval_ms = *interval_ms > 0 ? static_cast<std::uint64_t>(*interval_ms) : 0;
    recorder.progress = std::make_unique<obs::ProgressMeter>(options);
    obs::set_active_progress(recorder.progress.get());
  }

  if (recorder.journal != nullptr) {
    obs::JournalEvent event("run_begin");
    event.str("command", command);
    event.count("threads", exec::thread_count());
    std::string argv_line;
    for (int i = 2; i < argc; ++i) {
      if (!argv_line.empty()) argv_line += ' ';
      argv_line += argv[i];
    }
    event.str("argv", argv_line);
    recorder.journal->emit(event);
  }

  int rc;
  if (command == "workloads") rc = cmd_workloads(args);
  else if (command == "characterize") rc = cmd_characterize(args);
  else if (command == "optimize") rc = cmd_optimize(args);
  else if (command == "simulate") rc = cmd_simulate(args);
  else if (command == "trace") rc = cmd_trace(args);
  else if (command == "aps") rc = cmd_aps(args);
  else if (command == "dse") rc = cmd_dse(args);
  else if (command == "report") rc = cmd_report(args);
  else if (command == "check") rc = cmd_check(args);
  else return usage();

  if (recorder.progress != nullptr) {
    recorder.progress->finish();
    obs::set_active_progress(nullptr);
    std::fputs(recorder.progress->summary().c_str(), stdout);
  }
  if (recorder.journal != nullptr) {
    recorder.journal->snapshot_metrics(/*force=*/true);
    recorder.journal->emit(obs::JournalEvent("run_end")
                               .count("exit_code", static_cast<std::uint64_t>(rc))
                               .num("wall_ms", recorder.journal->elapsed_ms()));
    recorder.journal->flush();
    obs::set_active_journal(nullptr);
    std::printf("journal written to %s (%llu events)\n", journal_out.c_str(),
                static_cast<unsigned long long>(recorder.journal->written_events()));
  }
  // Uniform end-of-run drop accounting: any nonzero counter means the
  // observability record is incomplete, which deserves a loud note even
  // when the run itself succeeded.
  for (const obs::DropCounter& counter : obs::drop_counters(recorder.journal.get()))
    if (counter.dropped > 0)
      std::fprintf(stderr, "c2b: warning: %s dropped %llu event(s)\n",
                   counter.name.c_str(),
                   static_cast<unsigned long long>(counter.dropped));

  if (!metrics_out.empty()) {
    const bool csv = metrics_out.size() >= 4 &&
                     metrics_out.compare(metrics_out.size() - 4, 4, ".csv") == 0;
    const bool ok = csv ? obs::write_metrics_csv(metrics_out)
                        : obs::write_metrics_json(metrics_out);
    if (ok) std::printf("metrics written to %s\n", metrics_out.c_str());
    else if (rc == 0) rc = 1;
  }
  if (!trace_out.empty()) {
    if (obs::write_chrome_trace(trace_out))
      std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                  obs::collect_trace_events().size());
    else if (rc == 0) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace c2b::cli

int main(int argc, char** argv) {
  try {
    return c2b::cli::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "c2b: %s\n", error.what());
    return 1;
  }
}
