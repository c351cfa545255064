#include "c2b/obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

namespace c2b::obs {
namespace {

std::string format_duration(double ms) {
  char buf[48];
  if (ms >= 120'000.0)
    std::snprintf(buf, sizeof buf, "%dm %02ds", static_cast<int>(ms / 60'000.0),
                  static_cast<int>(ms / 1000.0) % 60);
  else if (ms >= 1000.0)
    std::snprintf(buf, sizeof buf, "%.2f s", ms / 1000.0);
  else
    std::snprintf(buf, sizeof buf, "%.2f ms", ms);
  return buf;
}

}  // namespace

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

RunReport build_report(const std::vector<JournalRecord>& records,
                       JournalReadStats stats) {
  RunReport report;
  report.read_stats = stats;

  std::map<std::string, std::size_t> phase_index;
  // Replay balance: a cache_peel opens a batched call, whose units are the
  // class_completed events before the next cache_peel.
  double pool_threads = 0.0;  // 0 until a pool_start is seen
  std::optional<RunReport::ReplayCall> call;
  double call_start_ms = 0.0;
  double call_end_ms = 0.0;
  const auto close_call = [&] {
    if (call && call->units > 0.0) {
      call->wall_ms = call_end_ms - call_start_ms;
      report.replay_calls.push_back(*call);
    }
    call.reset();
  };
  for (const JournalRecord& record : records) {
    report.total_wall_ms = std::max(report.total_wall_ms, record.ts_ms);
    if (record.type == "run_begin" || record.type == "sweep_config") {
      report.command = record.str("command", report.command);
      report.workload = record.str("workload", report.workload);
      report.workload_uid = record.str("workload_uid", report.workload_uid);
      report.threads = record.num("threads", report.threads);
    } else if (record.type == "batch_stats") {
      report.chunks_shared += record.num("chunks_shared");
      report.regen_avoided_accesses += record.num("regen_avoided_accesses");
      report.simd_steps += record.num("simd_steps");
      report.simd_peels += record.num("simd_peels");
      report.simd_lanes_active += record.num("simd_lanes_active");
    } else if (record.type == "run_end") {
      report.saw_run_end = true;
      report.total_wall_ms = std::max(report.total_wall_ms, record.ts_ms);
    } else if (record.type == "phase_end") {
      const std::string name = record.str("name", "?");
      const auto [it, inserted] = phase_index.emplace(name, report.phases.size());
      if (inserted) report.phases.push_back({name, 0.0, 0});
      RunReport::Phase& phase = report.phases[it->second];
      phase.wall_ms += record.num("wall_ms");
      ++phase.count;
    } else if (record.type == "pool_start") {
      pool_threads = record.num("threads", pool_threads);
    } else if (record.type == "class_completed") {
      RunReport::UnitStat entry;
      entry.cores = record.num("cores");
      entry.members = record.num("members");
      entry.wall_ms = record.num("wall_ms");
      entry.config = record.str("config");
      report.simulated_members += entry.members;
      report.simulated_wall_ms += entry.wall_ms;
      if (call) {
        ++call->units;
        call->unit_ms += entry.wall_ms;
        call->longest_ms = std::max(call->longest_ms, entry.wall_ms);
        call->threads = pool_threads > 0.0 ? pool_threads : report.threads;
        call_end_ms = record.ts_ms;
      }
      report.units.push_back(std::move(entry));
    } else if (record.type == "cache_peel") {
      close_call();
      call.emplace();
      call_start_ms = record.ts_ms;
      report.points += record.num("points");
      report.cache_hits += record.num("hits");
      report.cache_hits_disk += record.num("disk_hits");
      report.shared += record.num("shared");
    } else if (record.type == "cache_tiers") {
      report.cache_tiers_seen = true;
      report.disk_attached = record.num("disk_attached") != 0.0;
      report.mem_hits = record.num("mem_hits");
      report.mem_misses = record.num("misses");
      report.mem_entries = record.num("mem_entries");
      report.evictions = record.num("evictions");
      report.disk_hits = record.num("disk_hits");
      report.disk_misses = record.num("disk_misses");
      report.disk_entries = record.num("disk_entries");
      report.disk_flushes = record.num("disk_flushes");
      report.disk_drops = record.num("disk_drops");
    } else if (record.type == "point") {
      RunReport::PointSample sample;
      sample.n_cores = record.num("n");
      sample.a0 = record.num("a0");
      sample.a1 = record.num("a1");
      sample.a2 = record.num("a2");
      sample.objective = record.num("objective");
      sample.cached = record.num("cached") != 0.0;
      report.explored.push_back(sample);
    } else if (record.type == "frontier_point") {
      RunReport::FrontierSample sample;
      sample.n_cores = record.num("n");
      sample.a0 = record.num("a0");
      sample.a1 = record.num("a1");
      sample.a2 = record.num("a2");
      sample.time = record.num("time");
      sample.power = record.num("power");
      sample.area = record.num("area");
      report.frontier.push_back(sample);
    } else if (record.type == "constraint") {
      RunReport::ConstraintStat stat;
      stat.name = record.str("name", "?");
      stat.budget = record.num("budget");
      stat.infeasible = record.num("infeasible");
      stat.binding = record.num("binding");
      report.constraints.push_back(std::move(stat));
    } else if (record.type == "pareto_summary") {
      report.pareto_feasible = record.num("feasible", report.pareto_feasible);
      report.pareto_grid_points = record.num("grid_points", report.pareto_grid_points);
    } else if (record.type == "surrogate_round") {
      RunReport::SurrogateRound round;
      round.round = record.num("round");
      round.class_n = record.num("class_n");
      round.class_members = record.num("class_members");
      round.predicted_best = record.num("predicted_best");
      round.incumbent = record.num("incumbent");
      round.trained_samples = record.num("trained_samples");
      report.surrogate_rounds.push_back(round);
    } else if (record.type == "surrogate_summary") {
      report.surrogate_seen = true;
      report.surrogate_classes_total = record.num("classes_total");
      report.surrogate_classes_simulated = record.num("classes_simulated");
      report.surrogate_classes_pruned = record.num("classes_pruned");
      report.surrogate_points_total = record.num("points_total");
      report.surrogate_points_simulated = record.num("points_simulated");
      report.surrogate_warmup_sims = record.num("warmup_sims");
      report.surrogate_fallback_sims = record.num("fallback_sims");
      report.surrogate_trained_samples = record.num("trained_samples");
      report.surrogate_rounds_total = record.num("rounds");
      report.surrogate_mre = record.num("mre");
      report.surrogate_fits_trained = record.num("fits_trained");
      report.surrogate_fits_cached = record.num("fits_cached");
      report.surrogate_fit_drops = record.num("fit_drops");
    }
  }

  close_call();

  std::vector<double> walls;
  walls.reserve(report.units.size());
  for (const RunReport::UnitStat& entry : report.units) walls.push_back(entry.wall_ms);
  report.unit_wall_p50 = exact_quantile(walls, 0.50);
  report.unit_wall_p90 = exact_quantile(walls, 0.90);
  report.unit_wall_p99 = exact_quantile(walls, 0.99);

  if (report.simulated_members > 0.0 && report.cache_hits + report.shared > 0.0) {
    // A cache hit and a folded point each skip one simulation.
    const double per_member_ms = report.simulated_wall_ms / report.simulated_members;
    report.est_saved_ms = (report.cache_hits + report.shared) * per_member_ms;
    // Attribute the hits' share per tier, following the hit counts.
    const double disk_hits = std::min(report.cache_hits_disk, report.cache_hits);
    report.est_saved_disk_ms = disk_hits * per_member_ms;
    report.est_saved_mem_ms = (report.cache_hits - disk_hits) * per_member_ms;
    if (report.simulated_wall_ms > 0.0)
      report.batch_speedup =
          (report.simulated_wall_ms + report.est_saved_ms) / report.simulated_wall_ms;
  }

  std::stable_sort(report.units.begin(), report.units.end(),
                   [](const RunReport::UnitStat& a, const RunReport::UnitStat& b) {
                     return a.wall_ms > b.wall_ms;
                   });
  return report;
}

std::string render_report(const RunReport& report, std::size_t top_k) {
  std::string out;
  char line[256];

  out += "== run ==\n";
  std::snprintf(line, sizeof line, "  command      %s\n",
                report.command.empty() ? "?" : report.command.c_str());
  out += line;
  if (!report.workload.empty()) {
    std::snprintf(line, sizeof line, "  workload     %s (uid %s)\n",
                  report.workload.c_str(),
                  report.workload_uid.empty() ? "?" : report.workload_uid.c_str());
    out += line;
  }
  std::snprintf(line, sizeof line, "  threads      %.0f\n", report.threads);
  out += line;
  std::snprintf(line, sizeof line, "  wall time    %s%s\n",
                format_duration(report.total_wall_ms).c_str(),
                report.saw_run_end ? "" : "  [no run_end: journal ends mid-run]");
  out += line;
  if (report.read_stats.skipped > 0) {
    std::snprintf(line, sizeof line,
                  "  reader       %zu lines, %zu torn/corrupt skipped\n",
                  report.read_stats.lines, report.read_stats.skipped);
    out += line;
  }

  if (!report.phases.empty()) {
    out += "\n== phase time breakdown ==\n";
    for (const RunReport::Phase& phase : report.phases) {
      const double pct = report.total_wall_ms > 0.0
                             ? 100.0 * phase.wall_ms / report.total_wall_ms
                             : 0.0;
      std::snprintf(line, sizeof line, "  %-18s %12s  %5.1f%%  (x%zu)\n",
                    phase.name.c_str(), format_duration(phase.wall_ms).c_str(), pct,
                    phase.count);
      out += line;
    }
  }

  out += "\n== cache/batch effectiveness ==\n";
  std::snprintf(line, sizeof line, "  design points          %.0f\n", report.points);
  out += line;
  std::snprintf(line, sizeof line, "  cache hits peeled      %.0f (%.1f%%)\n",
                report.cache_hits,
                report.points > 0.0 ? 100.0 * report.cache_hits / report.points : 0.0);
  out += line;
  std::snprintf(line, sizeof line, "  shared in-call         %.0f (%.1f%%)\n", report.shared,
                report.points > 0.0 ? 100.0 * report.shared / report.points : 0.0);
  out += line;
  std::snprintf(line, sizeof line, "  simulated members      %.0f in %zu work units\n",
                report.simulated_members, report.units.size());
  out += line;
  std::snprintf(line, sizeof line, "  chunks shared          %.0f\n",
                report.chunks_shared);
  out += line;
  std::snprintf(line, sizeof line, "  regen avoided          %.0f accesses\n",
                report.regen_avoided_accesses);
  out += line;
  if (report.simd_steps > 0.0) {
    std::snprintf(line, sizeof line,
                  "  simd kernel            %.0f steps | %.0f peeled records | "
                  "%.0f lane-rounds\n",
                  report.simd_steps, report.simd_peels, report.simd_lanes_active);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  est. savings           %s  (%.2fx speedup attribution)\n",
                format_duration(report.est_saved_ms).c_str(), report.batch_speedup);
  out += line;

  if (report.cache_tiers_seen || report.cache_hits_disk > 0.0) {
    out += "\n== cache ==\n";
    std::snprintf(line, sizeof line,
                  "  memory tier            %.0f hits | %.0f entries | %.0f evictions\n",
                  report.mem_hits, report.mem_entries, report.evictions);
    out += line;
    if (report.disk_attached) {
      std::snprintf(line, sizeof line,
                    "  disk tier              %.0f hits / %.0f misses | %.0f entries | "
                    "%.0f flushes | %.0f drops\n",
                    report.disk_hits, report.disk_misses, report.disk_entries,
                    report.disk_flushes, report.disk_drops);
      out += line;
    } else {
      out += "  disk tier              not attached\n";
    }
    std::snprintf(line, sizeof line, "  misses (all tiers)     %.0f\n",
                  report.mem_misses);
    out += line;
    std::snprintf(line, sizeof line,
                  "  sweep peels            %.0f from memory, %.0f from disk\n",
                  report.cache_hits - report.cache_hits_disk, report.cache_hits_disk);
    out += line;
    if (report.est_saved_ms > 0.0) {
      std::snprintf(line, sizeof line,
                    "  est. savings by tier   %s memory + %s disk\n",
                    format_duration(report.est_saved_mem_ms).c_str(),
                    format_duration(report.est_saved_disk_ms).c_str());
      out += line;
    }
    if (report.disk_drops > 0.0) {
      std::snprintf(line, sizeof line,
                    "  WARNING: %.0f corrupt/stale disk records dropped "
                    "(self-healing; affected keys re-simulate)\n",
                    report.disk_drops);
      out += line;
    }
  }

  if (!report.units.empty()) {
    out += "\n== per-unit sim time ==\n";
    std::snprintf(line, sizeof line, "  p50 %s | p90 %s | p99 %s\n",
                  format_duration(report.unit_wall_p50).c_str(),
                  format_duration(report.unit_wall_p90).c_str(),
                  format_duration(report.unit_wall_p99).c_str());
    out += line;
    const std::size_t shown = std::min(top_k, report.units.size());
    std::snprintf(line, sizeof line, "  top %zu slowest work units:\n", shown);
    out += line;
    for (std::size_t i = 0; i < shown; ++i) {
      const RunReport::UnitStat& entry = report.units[i];
      std::snprintf(line, sizeof line, "    %12s  cores=%-3.0f members=%-3.0f %s\n",
                    format_duration(entry.wall_ms).c_str(), entry.cores,
                    entry.members, entry.config.c_str());
      out += line;
    }
    // One line per batched call: how evenly its units filled the pool.
    out += "  replay balance per batched call:\n";
    for (std::size_t i = 0; i < report.replay_calls.size(); ++i) {
      const RunReport::ReplayCall& call = report.replay_calls[i];
      std::snprintf(line, sizeof line,
                    "    call %-3zu %4.0f units | wall %s | unit time %s | "
                    "efficiency %.0f%% of %.0f threads | longest unit %s\n",
                    i + 1, call.units, format_duration(call.wall_ms).c_str(),
                    format_duration(call.unit_ms).c_str(), 100.0 * call.efficiency(),
                    call.threads, format_duration(call.longest_ms).c_str());
      out += line;
    }
  }

  if (!report.explored.empty()) {
    double best = report.explored.front().objective;
    RunReport::PointSample best_point = report.explored.front();
    for (const RunReport::PointSample& sample : report.explored)
      if (sample.objective < best) {
        best = sample.objective;
        best_point = sample;
      }
    out += "\n== explored space ==\n";
    std::snprintf(line, sizeof line, "  points  %zu\n", report.explored.size());
    out += line;
    std::snprintf(line, sizeof line,
                  "  best    objective=%.6g at n=%.0f a0=%g a1=%g a2=%g\n", best,
                  best_point.n_cores, best_point.a0, best_point.a1, best_point.a2);
    out += line;
  }

  if (!report.frontier.empty() || !report.constraints.empty()) {
    out += "\n== pareto frontier ==\n";
    std::snprintf(line, sizeof line, "  frontier  %zu point(s), %.0f feasible of %.0f grid\n",
                  report.frontier.size(), report.pareto_feasible,
                  report.pareto_grid_points);
    out += line;
    for (const RunReport::FrontierSample& sample : report.frontier) {
      std::snprintf(line, sizeof line,
                    "    n=%.0f a0=%g a1=%g a2=%g  time=%.6g power=%.4g area=%.4g\n",
                    sample.n_cores, sample.a0, sample.a1, sample.a2, sample.time,
                    sample.power, sample.area);
      out += line;
    }
    for (const RunReport::ConstraintStat& stat : report.constraints) {
      std::snprintf(line, sizeof line,
                    "  %-10s budget %-10.4g rejected %-6.0f binding %.0f\n",
                    stat.name.c_str(), stat.budget, stat.infeasible, stat.binding);
      out += line;
    }
  }

  if (report.surrogate_seen || !report.surrogate_rounds.empty()) {
    out += "\n== surrogate ==\n";
    const double class_pct =
        report.surrogate_classes_total > 0.0
            ? 100.0 * report.surrogate_classes_simulated / report.surrogate_classes_total
            : 0.0;
    const double point_pct =
        report.surrogate_points_total > 0.0
            ? 100.0 * report.surrogate_points_simulated / report.surrogate_points_total
            : 0.0;
    std::snprintf(line, sizeof line,
                  "  classes   %.0f total | %.0f simulated (%.1f%%) | %.0f pruned\n",
                  report.surrogate_classes_total, report.surrogate_classes_simulated,
                  class_pct, report.surrogate_classes_pruned);
    out += line;
    std::snprintf(line, sizeof line,
                  "  points    %.0f total | %.0f simulated (%.1f%%)\n",
                  report.surrogate_points_total, report.surrogate_points_simulated,
                  point_pct);
    out += line;
    std::snprintf(line, sizeof line,
                  "  sims      %.0f warmup | %.0f fallback | %.0f trained samples\n",
                  report.surrogate_warmup_sims, report.surrogate_fallback_sims,
                  report.surrogate_trained_samples);
    out += line;
    std::snprintf(line, sizeof line,
                  "  model     %.0f round(s), final MRE %.2f%% | fits_trained %.0f | "
                  "fits_cached %.0f | fit_drops %.0f\n",
                  report.surrogate_rounds_total, 100.0 * report.surrogate_mre,
                  report.surrogate_fits_trained, report.surrogate_fits_cached,
                  report.surrogate_fit_drops);
    out += line;
    for (const RunReport::SurrogateRound& round : report.surrogate_rounds) {
      std::snprintf(line, sizeof line,
                    "    round %-3.0f admitted n=%-4.0f (%.0f members)  predicted %.6g "
                    "vs incumbent %.6g\n",
                    round.round, round.class_n, round.class_members, round.predicted_best,
                    round.incumbent);
      out += line;
    }
  }
  return out;
}

std::string heatmap_csv(const RunReport& report) {
  if (report.explored.empty()) return {};
  // cell key: (n_cores, (a1, a2)) -> min objective across every other axis
  std::map<std::pair<double, double>, bool> splits;  // ordered column set
  std::map<double, std::map<std::pair<double, double>, double>> rows;
  for (const RunReport::PointSample& sample : report.explored) {
    const std::pair<double, double> split{sample.a1, sample.a2};
    splits[split] = true;
    auto& row = rows[sample.n_cores];
    const auto it = row.find(split);
    if (it == row.end() || sample.objective < it->second)
      row[split] = sample.objective;
  }

  std::string csv = "n_cores";
  char cell[64];
  for (const auto& [split, unused] : splits) {
    (void)unused;
    std::snprintf(cell, sizeof cell, ",a1=%g/a2=%g", split.first, split.second);
    csv += cell;
  }
  csv += '\n';
  for (const auto& [n_cores, row] : rows) {
    std::snprintf(cell, sizeof cell, "%g", n_cores);
    csv += cell;
    for (const auto& [split, unused] : splits) {
      (void)unused;
      csv += ',';
      const auto it = row.find(split);
      if (it != row.end()) {
        std::snprintf(cell, sizeof cell, "%.9g", it->second);
        csv += cell;
      }
    }
    csv += '\n';
  }
  return csv;
}

}  // namespace c2b::obs
