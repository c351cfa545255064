#include "c2b/serve/jobs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/check/oracles.h"
#include "c2b/exec/pool.h"
#include "c2b/obs/journal.h"
#include "c2b/trace/workloads.h"

namespace c2b::serve {
namespace {

const WorkloadSpec* find_workload(const std::vector<WorkloadSpec>& catalog,
                                  const std::string& name) {
  for (const WorkloadSpec& spec : catalog)
    if (spec.name == name) return &spec;
  return nullptr;
}

sim::SystemConfig default_system() {
  // Mirrors the CLI's baseline so a job submitted over the wire reproduces
  // `c2b dse`/`c2b aps` bit for bit.
  sim::SystemConfig config;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

DseAxes axes_for(const JobRequest& request) {
  if (request.flag("large-axes")) return make_large_axes();
  DseAxes axes;
  axes.a0 = {1.0, 4.0};
  axes.a1 = {0.5, 1.0};
  axes.a2 = {1.0, 2.0};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

bool build_context(const JobRequest& request, DseContext& context, std::string* error) {
  const std::string name = request.str("workload", "stencil");
  const auto catalog = workload_catalog();
  const WorkloadSpec* spec = find_workload(catalog, name);
  if (spec == nullptr) {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  context.base = default_system();
  context.workload = *spec;
  context.instructions0 = static_cast<std::uint64_t>(request.num("instructions", 20'000));
  context.per_core_cap = static_cast<std::uint64_t>(request.num("per-core-cap", 10'000));
  context.chip.total_area = request.num("area", 9.0);
  context.chip.shared_area = request.num("shared-area", 1.0);
  context.seed = static_cast<std::uint64_t>(request.num("seed", 99));
  for (const char* budget : {"power-budget", "bw-budget", "noc-budget"}) {
    const double value = request.num(budget, std::numeric_limits<double>::infinity());
    if (!(value > 0.0)) {
      *error = std::string(budget) + " must be > 0";
      return false;
    }
  }
  context.power_budget = request.num("power-budget", context.power_budget);
  context.bw_budget = request.num("bw-budget", context.bw_budget);
  context.noc_budget = request.num("noc-budget", context.noc_budget);
  context.surrogate_enabled = request.flag("surrogate");
  context.surrogate_band = request.num("surrogate-band", context.surrogate_band);
  context.surrogate_warmup =
      static_cast<std::size_t>(request.num("surrogate-warmup",
                                           static_cast<double>(context.surrogate_warmup)));
  return true;
}

std::string batch_json(const BatchReplayStats& batch) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"classes\":%zu,\"members\":%zu,\"cache_hits\":%zu,"
                "\"cache_hits_disk\":%zu}",
                batch.classes, batch.members, batch.cache_hits, batch.cache_hits_disk);
  return buf;
}

JobOutcome run_dse(const JobRequest& request) {
  JobOutcome outcome;
  DseContext context;
  if (!build_context(request, context, &outcome.error)) return outcome;
  const GridSpace space = make_design_space(axes_for(request));

  if (obs::RunJournal* journal = obs::active_journal())
    journal->emit(obs::JournalEvent("sweep_config")
                      .str("command", "dse")
                      .str("workload", context.workload.name)
                      .count("grid_points", space.size())
                      .count("instructions", context.instructions0)
                      .count("seed", context.seed));

  char buf[512];
  if (request.flag("pareto")) {
    const ParetoDseResult result = run_pareto_dse(context, space);
    std::snprintf(buf, sizeof buf,
                  "{\"type\":\"dse\",\"pareto\":1,\"grid_points\":%zu,"
                  "\"feasible\":%zu,\"frontier\":%zu,\"batch\":",
                  result.grid_points, result.feasible_count, result.frontier.size());
    outcome.result_json = std::string(buf) + batch_json(result.batch) + "}";
  } else {
    const FullDseResult result = run_full_dse(context, space);
    std::snprintf(buf, sizeof buf,
                  "{\"type\":\"dse\",\"grid_points\":%zu,\"feasible\":%zu,"
                  "\"best_index\":%zu,\"best_time\":%.17g,\"simulations\":%zu,\"batch\":",
                  space.size(), result.feasible_count, result.best_index, result.best_time,
                  result.simulations);
    outcome.result_json = std::string(buf) + batch_json(result.batch) + "}";
  }
  outcome.ok = true;
  return outcome;
}

JobOutcome run_aps_job(const JobRequest& request) {
  JobOutcome outcome;
  DseContext context;
  if (!build_context(request, context, &outcome.error)) return outcome;
  const GridSpace space = make_design_space(axes_for(request));
  ApsOptions options;
  options.neighborhood_radius =
      std::max<std::size_t>(1, static_cast<std::size_t>(request.num("radius", 1)));
  options.characterize.instructions =
      static_cast<std::uint64_t>(request.num("characterize-instructions", 60'000));

  if (obs::RunJournal* journal = obs::active_journal())
    journal->emit(obs::JournalEvent("sweep_config")
                      .str("command", "aps")
                      .str("workload", context.workload.name)
                      .count("grid_points", space.size())
                      .count("instructions", context.instructions0)
                      .count("seed", context.seed));

  const ApsResult result = run_aps(context, space, options);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"aps\",\"grid_points\":%zu,\"best_index\":%zu,"
                "\"best_time\":%.17g,\"simulations\":%zu,\"narrowing_factor\":%.3f,"
                "\"batch\":",
                space.size(), result.best_index, result.best_time, result.simulations,
                result.narrowing_factor);
  outcome.result_json = std::string(buf) + batch_json(result.batch) + "}";
  outcome.ok = true;
  return outcome;
}

JobOutcome run_check_job(const JobRequest& request) {
  JobOutcome outcome;
  const std::string family = request.str("family", "invariants");
  check::OracleOptions options;
  options.seed = static_cast<std::uint64_t>(request.num("seed", 42));
  // Service-sized defaults: one family per job, scaled down the same way
  // the CI quick slice runs them.
  const struct {
    const char* name;
    check::OracleReport (*run)(const check::OracleOptions&);
  } families[] = {
      {"analytic", check::run_analytic_vs_sim_oracle},
      {"determinism", check::run_determinism_oracle},
      {"invariants", check::run_invariant_oracle},
      {"kernel", check::run_kernel_equivalence_oracle},
      {"constraint", check::run_constraint_oracle},
      {"surrogate", check::run_surrogate_oracle},
      {"cache", check::run_persistent_cache_oracle},
  };
  for (const auto& entry : families) {
    if (family != entry.name) continue;
    const check::OracleReport report = entry.run(options);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"type\":\"check\",\"family\":\"%s\",\"checks\":%zu,\"failures\":%zu}",
                  report.family.c_str(), report.checks, report.failures.size());
    outcome.result_json = buf;
    outcome.ok = report.passed();
    if (!outcome.ok) outcome.error = "oracle family '" + family + "' failed";
    return outcome;
  }
  outcome.error = "unknown oracle family '" + family + "'";
  return outcome;
}

}  // namespace

double JobRequest::num(const std::string& key, double fallback) const {
  const auto it = numbers.find(key);
  return it == numbers.end() ? fallback : it->second;
}

std::string JobRequest::str(const std::string& key, const std::string& fallback) const {
  const auto it = strings.find(key);
  return it == strings.end() ? fallback : it->second;
}

bool JobRequest::flag(const std::string& key) const { return num(key, 0.0) != 0.0; }

std::size_t JobRequest::threads_share() const {
  const double requested = num("threads", 1.0);
  if (!(requested >= 1.0)) return 1;
  return static_cast<std::size_t>(requested);
}

std::optional<JobRequest> JobRequest::parse(const std::string& body, std::string* error) {
  // The body is one flat JSON object — the journal-line grammar. Normalize
  // newlines so pretty-printed clients still parse.
  std::string line = body;
  std::replace(line.begin(), line.end(), '\n', ' ');
  std::replace(line.begin(), line.end(), '\r', ' ');
  obs::JournalRecord record;
  if (!obs::parse_journal_line(line, record)) {
    if (error != nullptr)
      *error = "malformed job body (want a flat JSON object with a \"type\" field)";
    return std::nullopt;
  }
  JobRequest request;
  request.type = record.type;
  request.strings = std::move(record.strings);
  request.numbers = std::move(record.numbers);
  if (request.type != "dse" && request.type != "aps" && request.type != "check") {
    if (error != nullptr) *error = "unknown job type '" + request.type + "'";
    return std::nullopt;
  }
  if (request.type == "check") {
    const std::string family = request.str("family", "invariants");
    bool known = false;
    for (const char* name : {"analytic", "determinism", "invariants", "kernel", "constraint",
                             "surrogate", "cache"})
      known = known || family == name;
    if (!known) {
      if (error != nullptr) *error = "unknown oracle family '" + family + "'";
      return std::nullopt;
    }
  } else {
    const std::string name = request.str("workload", "stencil");
    if (find_workload(workload_catalog(), name) == nullptr) {
      if (error != nullptr) *error = "unknown workload '" + name + "'";
      return std::nullopt;
    }
  }
  return request;
}

JobOutcome run_job(const JobRequest& request) {
  try {
    if (request.type == "dse") return run_dse(request);
    if (request.type == "aps") return run_aps_job(request);
    if (request.type == "check") return run_check_job(request);
    JobOutcome outcome;
    outcome.error = "unknown job type '" + request.type + "'";
    return outcome;
  } catch (const std::exception& e) {
    JobOutcome outcome;
    outcome.error = e.what();
    return outcome;
  } catch (...) {
    JobOutcome outcome;
    outcome.error = "unknown error";
    return outcome;
  }
}

}  // namespace c2b::serve
