// End-to-end benchmark harness for the design-space studies. One process
// runs one workload: it sets up, times whole studies through the public
// entry points users call (run_full_dse, run_aps), and prints one JSON
// event per line on stdout. run.py builds this program, turns the events
// into metrics and checks every study's answer against references.json.
//
//   c2b_perfbench --workload dse_cold|dse_warm_restart|aps_t1
//                 --context-seed S --seconds T --work-dir DIR
//                 [--trace] [--reduced] [--record]
//
// --trace replaces the timed loop with the traced run: untraced, traced and
// telemetry-off studies interleaved, then one pass of layer probes. Spans
// are kept in memory and written to DIR at exit. --record prints the answers
// run.py stores as references (for aps_t1 that includes the ground-truth
// optimum of the same space, which takes about a minute at 4 threads).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "c2b/aps/aps.h"
#include "c2b/aps/surrogate.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/registry.h"
#include "c2b/trace/reuse.h"

namespace {

using namespace c2b;
using Clock = std::chrono::steady_clock;
using Points = std::vector<std::vector<double>>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

/// Every digit of a double, as JSON.
std::string number(double value) {
  require(std::isfinite(value), "non-finite value in output");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// ---- One JSON object per stdout line ------------------------------------

class JsonLine {
 public:
  explicit JsonLine(std::string_view event) { str("event", event); }
  JsonLine& num(std::string_view key, double value) { return raw(key, number(value)); }
  JsonLine& str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& raw(std::string_view key, std::string_view json) {
    text_ += text_.empty() ? "{" : ",";
    text_ += "\"" + std::string(key) + "\":" + std::string(json);
    return *this;
  }
  std::string text() const { return text_ + "}"; }
  void print() const {
    std::printf("%s\n", text().c_str());
    std::fflush(stdout);
  }

 private:
  std::string text_;
};

// ---- Spans ---------------------------------------------------------------

std::map<std::string, std::uint64_t> registry_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricSample& sample : obs::Registry::global().snapshot())
    if (sample.kind == obs::MetricSample::Kind::kCounter) out[sample.name] = sample.count;
  return out;
}

struct SpanRecord {
  std::string name;
  int parent = -1;  ///< index into Tracer::spans, -1 for a root
  int rep = 0;      ///< traced study repetition; 0 for the layer probes
  double start = 0.0;
  double end = 0.0;  ///< seconds since the tracer's origin
  std::map<std::string, std::uint64_t> counters;  ///< registry counter deltas
  std::map<std::string, double> attrs;
};

struct Tracer {
  bool active = false;
  int rep = 0;
  Clock::time_point origin = Clock::now();
  std::vector<SpanRecord> spans;
  std::vector<int> open;
};

/// Times one call into a layer. The registry snapshot is taken outside the
/// timed interval on both sides, so tracing cost shows up only between
/// spans (and in the parent's self time).
class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer.active ? &tracer : nullptr) {
    if (tracer_ == nullptr) return;
    before_ = registry_counters();
    index_ = static_cast<int>(tracer_->spans.size());
    SpanRecord& record = tracer_->spans.emplace_back();
    record.name = name;
    record.parent = tracer_->open.empty() ? -1 : tracer_->open.back();
    record.rep = tracer_->rep;
    tracer_->open.push_back(index_);
    record.start = seconds_since(tracer_->origin);
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    SpanRecord& record = tracer_->spans[static_cast<std::size_t>(index_)];
    record.end = seconds_since(tracer_->origin);
    for (const auto& [name, value] : registry_counters()) {
      const auto it = before_.find(name);
      const std::uint64_t delta = value - (it == before_.end() ? 0 : it->second);
      if (delta != 0) record.counters[name] = delta;
    }
    tracer_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(const char* key, double value) {
    if (tracer_ != nullptr) tracer_->spans[static_cast<std::size_t>(index_)].attrs[key] = value;
  }

 private:
  Tracer* tracer_;
  int index_ = 0;
  std::map<std::string, std::uint64_t> before_;
};

void write_trace(const Tracer& tracer, const std::string& workload, const std::string& path) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"spans\":[";
  for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
    const SpanRecord& s = tracer.spans[i];
    JsonLine line("span");
    line.str("name", s.name).str("workload", workload).num("id", static_cast<double>(i))
        .num("parent", s.parent).num("rep", s.rep).num("start", s.start).num("end", s.end);
    std::string counters = "{";
    for (const auto& [name, delta] : s.counters)
      counters += (counters.size() > 1 ? ",\"" : "\"") + name + "\":" + std::to_string(delta);
    line.raw("counters", counters + "}");
    std::string attrs = "{";
    for (const auto& [name, value] : s.attrs)
      attrs += (attrs.size() > 1 ? ",\"" : "\"") + name + "\":" + number(value);
    line.raw("attrs", attrs + "}");
    out << (i == 0 ? "" : ",") << line.text() << "\n";
  }
  out << "]}\n";
  require(static_cast<bool>(out), "cannot write trace to " + path);
}

// ---- Workloads -------------------------------------------------------------

enum class StudyKind { kDse, kAps };

struct WorkloadDef {
  const char* name;
  StudyKind kind;
  bool warm_restart;   ///< studies read a disk tier written during set-up
  bool single_thread;  ///< pool width 1 instead of min(cores, 4)
};

constexpr WorkloadDef kWorkloads[] = {
    {"dse_cold", StudyKind::kDse, false, false},
    {"dse_warm_restart", StudyKind::kDse, true, false},
    {"aps_t1", StudyKind::kAps, false, true},
};

/// The geometry `c2b dse|aps` simulate on (tools/c2b_cli.cpp default_system).
sim::SystemConfig default_system() {
  sim::SystemConfig config;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

struct Bench {
  WorkloadDef def;
  bool reduced = false;
  std::size_t width = 1;
  DseContext context;
  GridSpace space;
  ApsOptions aps;
  std::string disk_dir;
  Points evaluated;  ///< the points the last study evaluated
};

/// The context `c2b dse|aps` builds from their defaults, plus the surrogate
/// for the DSE studies. The reduced size (self-test only) swaps in the
/// default DseAxes grid (2 304 points) and a shorter characterization.
void build_inputs(Bench& b, std::uint64_t context_seed) {
  b.context = DseContext{};
  b.context.base = default_system();
  b.context.workload = b.def.kind == StudyKind::kDse ? make_stencil_workload()
                                                      : make_fluidanimate_like_workload();
  b.context.instructions0 = 20'000;
  b.context.per_core_cap = 10'000;
  b.context.chip.total_area = 9.0;
  b.context.chip.shared_area = 1.0;
  b.context.seed = context_seed;
  b.context.surrogate_enabled = b.def.kind == StudyKind::kDse;
  b.space = make_design_space(b.reduced ? DseAxes{} : make_large_axes());
  b.aps = ApsOptions{};
  if (b.reduced) b.aps.characterize.instructions = 60'000;
}

struct Answer {
  std::size_t best_index = 0;
  double best_time = 0.0;
  std::size_t simulations = 0;
  std::size_t feasible_count = 0;
  std::size_t classes_simulated = 0;
  std::uint64_t memory_accesses = 0;
  std::size_t disk_hits = 0;    ///< points served from the disk tier
  std::size_t resimulated = 0;  ///< points the batched replay simulated
};

Answer answer_of(const FullDseResult& r) {
  Answer a;
  a.best_index = r.best_index;
  a.best_time = r.best_time;
  a.simulations = r.simulations;
  a.feasible_count = r.feasible_count;
  a.classes_simulated = r.surrogate.classes_simulated;
  a.disk_hits = r.batch.cache_hits_disk;
  a.resimulated = r.batch.members;
  return a;
}

void emit_study(const char* phase, double seconds, const Answer& a) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &a.best_time, sizeof bits);
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(bits));
  JsonLine("study")
      .str("phase", phase)
      .num("seconds", seconds)
      .num("best_index", static_cast<double>(a.best_index))
      .num("best_time", a.best_time)
      .str("best_time_bits", hex)
      .num("simulations", static_cast<double>(a.simulations))
      .num("feasible_count", static_cast<double>(a.feasible_count))
      .num("classes_simulated", static_cast<double>(a.classes_simulated))
      .num("memory_accesses", static_cast<double>(a.memory_accesses))
      .num("disk_hits", static_cast<double>(a.disk_hits))
      .num("resimulated", static_cast<double>(a.resimulated))
      .print();
}

Points points_of(const GridSpace& space, const std::vector<std::size_t>& flats) {
  Points points;
  points.reserve(flats.size());
  for (const std::size_t flat : flats) points.push_back(space.point(flat));
  return points;
}

void record_sweep(Span& span, const SurrogateStats& s) {
  span.attr("points_total", static_cast<double>(s.points_total));
  span.attr("points_simulated", static_cast<double>(s.points_simulated));
  span.attr("classes_simulated", static_cast<double>(s.classes_simulated));
  span.attr("fallback_sims", static_cast<double>(s.fallback_sims));
  span.attr("trained_samples", static_cast<double>(s.trained_samples));
}

/// One whole study: exactly the public call a user makes. Traced or not,
/// the same code runs; the layers inside it are timed by the probes.
Answer run_study(Bench& b, Tracer& t) {
  exec::SimCache& cache = exec::SimCache::global();
  Span study(t, "study");
  if (b.def.warm_restart) {
    Span attach(t, "exec.disk.attach");
    require(cache.attach_disk_tier(b.disk_dir), "cannot attach disk tier " + b.disk_dir);
  }
  Answer a;
  if (b.def.kind == StudyKind::kAps) {
    const ApsResult r = run_aps(b.context, b.space, b.aps);
    b.evaluated = points_of(b.space, r.simulated_indices);
    a.best_index = r.best_index;
    a.best_time = r.best_time;
    a.simulations = r.simulations;
    a.memory_accesses = r.memory_accesses;
    a.resimulated = r.batch.members;
  } else {
    const FullDseResult r = run_full_dse(b.context, b.space);
    a = answer_of(r);
    std::vector<std::size_t> simulated;
    for (std::size_t flat = 0; flat < r.times.size(); ++flat)
      if (std::isfinite(r.times[flat])) simulated.push_back(flat);
    b.evaluated = points_of(b.space, simulated);
  }
  const exec::SimCacheStats stats = cache.stats();
  const double probes = static_cast<double>(stats.hits + stats.disk_hits + stats.misses);
  study.attr("simcache_hit_frac",
             probes > 0 ? static_cast<double>(stats.hits + stats.disk_hits) / probes : 0.0);
  return a;
}

/// Closes the previous study's disk tier and clears the memory tier, then
/// times one study. Closing the tier flushes and joins its writer, which a
/// restarted process never pays, so it stays outside the timed interval.
double timed_study(Bench& b, Tracer& t, const char* phase) {
  exec::SimCache& cache = exec::SimCache::global();
  cache.detach_disk_tier();
  cache.clear();
  const auto start = Clock::now();
  const Answer a = run_study(b, t);
  const double seconds = seconds_since(start);
  emit_study(phase, seconds, a);
  return seconds;
}

/// Everything before the timed loop: rebuild the pool at the workload's
/// width, drop every cache tier, build the inputs, and run the first study
/// (for dse_warm_restart, the cold study that writes the disk tier). The
/// first study pays the process's lazy initialization, so it belongs here.
double set_up(Bench& b, Tracer& t, std::uint64_t context_seed) {
  const auto start = Clock::now();
  exec::set_thread_count(b.width);
  exec::SimCache& cache = exec::SimCache::global();
  cache.detach_disk_tier();
  cache.clear();
  build_inputs(b, context_seed);
  // dse_warm_restart's first study attaches an empty tier, so it runs cold
  // and writes every point it simulates.
  std::filesystem::remove_all(b.disk_dir);
  timed_study(b, t, "setup");
  cache.flush_disk();
  cache.detach_disk_tier();
  return seconds_since(start);
}

// ---- Layer probes (traced run only) ----------------------------------------

/// A batched evaluation of `points` on a cleared memory tier.
void replay(Bench& b, const Points& points, Span& span) {
  exec::SimCache::global().clear();
  BatchReplayStats stats;
  const std::vector<BatchSimOutcome> outcomes =
      simulate_design_times_batched(b.context, points, &stats);
  std::uint64_t accesses = 0;
  for (const BatchSimOutcome& o : outcomes) accesses += o.memory_accesses;
  span.attr("points", static_cast<double>(points.size()));
  span.attr("accesses", static_cast<double>(accesses));
  span.attr("disk_hits", static_cast<double>(stats.cache_hits_disk));
  span.attr("resimulated", static_cast<double>(stats.members));
}

/// Calls every layer once on this workload's inputs, so every per-layer
/// metric is measured on every workload. Layers the study itself calls are
/// re-called here with exactly the study's points.
void run_layer_probes(Bench& b, Tracer& t, const std::string& work_dir) {
  exec::SimCache& cache = exec::SimCache::global();
  t.rep = 0;
  const Points evaluated = b.evaluated;

  // The two layers run_full_dse calls, in the study's cache state: plan
  // over the whole grid, then the surrogate sweep over the feasible points
  // (disk-warm on dse_warm_restart). aps_t1's study calls neither; its full
  // sweep would take about a minute, so there it covers the APS
  // neighborhood's points.
  cache.detach_disk_tier();
  if (b.def.warm_restart)
    require(cache.attach_disk_tier(b.disk_dir), "cannot attach disk tier " + b.disk_dir);
  cache.clear();
  Points feasible;
  {
    Span plan(t, "aps.plan");
    b.space.for_each([&](std::size_t, const std::vector<double>& point) {
      if (design_feasible(b.context, point)) feasible.push_back(point);
    });
    plan.attr("feasible", static_cast<double>(feasible.size()));
  }
  {
    DseContext context = b.context;
    context.surrogate_enabled = true;
    const Points& points = b.def.kind == StudyKind::kDse ? feasible : evaluated;
    Span span(t, "aps.surrogate_sweep");
    record_sweep(span, surrogate_sweep(context, points).stats);
  }

  // Disk tier: recovery scan and a warm batched probe over the study's
  // points. dse_warm_restart reads its own tier; the others get a fresh one.
  const std::string probe_dir =
      b.def.warm_restart ? b.disk_dir : work_dir + "/probe-disk-" + std::to_string(getpid());
  if (!b.def.warm_restart) {
    std::filesystem::remove_all(probe_dir);
    cache.clear();
    require(cache.attach_disk_tier(probe_dir), "cannot create disk tier " + probe_dir);
    simulate_design_times_batched(b.context, evaluated);
    cache.flush_disk();
  }
  cache.detach_disk_tier();
  cache.clear();
  {
    Span attach(t, "exec.disk.attach");
    require(cache.attach_disk_tier(probe_dir), "cannot attach disk tier " + probe_dir);
  }
  {
    Span lookup(t, "exec.disk.lookup");
    replay(b, evaluated, lookup);
  }
  cache.detach_disk_tier();
  if (!b.def.warm_restart) std::filesystem::remove_all(probe_dir);

  {
    Span span(t, "sim.batched_replay");
    replay(b, evaluated, span);
  }
  exec::set_thread_count(1);
  {
    Span span(t, "sim.batched_replay_t1");
    replay(b, evaluated, span);
  }
  exec::set_thread_count(b.width);

  // The APS layers, called the way run_aps and characterize call them.
  const CharacterizeOptions& copt = b.aps.characterize;
  Characterization characterization;
  {
    Span span(t, "aps.characterize");
    characterization = characterize(b.context.workload, b.context.base, copt);
  }
  Trace trace;
  {
    Span span(t, "trace.generate");
    trace = b.context.workload.make_generator(1.0, copt.seed)->generate(copt.instructions);
  }
  {
    Span span(t, "sim.single_core");
    sim::SystemConfig perfect = b.context.base;
    perfect.hierarchy.perfect_memory = true;
    sim::simulate_single_core(b.context.base, trace);
    sim::simulate_single_core(perfect, trace);
  }
  {
    Span span(t, "trace.stack_distance");
    StackDistanceAnalyzer stack(b.context.base.hierarchy.l1_geometry.line_bytes);
    stack.consume(trace);
    fit_miss_power_law(stack.miss_ratio_curve());
  }
  {
    Span span(t, "core.optimize");
    OptimizerOptions options;
    const std::vector<double>& n_axis = b.space.axis(kAxisN).values;
    options.n_max = static_cast<long long>(*std::max_element(n_axis.begin(), n_axis.end()));
    const C2BoundOptimizer optimizer(build_calibrated_model(b.context, characterization),
                                     options);
    optimizer.optimize();
  }
  Points neighborhood = evaluated;
  if (b.def.kind == StudyKind::kDse) {
    cache.clear();
    Span span(t, "aps.run_aps");
    const ApsResult r = run_aps(b.context, b.space, b.aps);
    span.attr("best_time", r.best_time);
    neighborhood = points_of(b.space, r.simulated_indices);
  }
  {
    Span span(t, "aps.neighborhood");
    replay(b, neighborhood, span);
  }
  cache.clear();
}

/// Untraced, traced and telemetry-off studies interleaved (the order
/// alternates each round so drift hits all three alike), then the probes.
void traced_run(Bench& b, Tracer& t, double seconds, const std::string& work_dir) {
  const auto start = Clock::now();
  for (int round = 0; round == 0 || seconds_since(start) < seconds; ++round) {
    const bool flip = round % 2 == 1;
    for (int step = 0; step < 3; ++step) {
      switch (flip ? 2 - step : step) {
        case 0:
          timed_study(b, t, "untraced");
          break;
        case 1:
          t.active = true;
          t.rep = round + 1;
          timed_study(b, t, "traced");
          t.active = false;
          break;
        default:
          obs::set_enabled(false);
          timed_study(b, t, "telemetry_off");
          obs::set_enabled(true);
      }
    }
  }
  t.active = true;
  run_layer_probes(b, t, work_dir);
  t.active = false;
}

/// The ground-truth optimum of the APS space: the surrogate DSE, which
/// returns the exact optimum, on the APS workload.
void record_optimum(Bench& b) {
  DseContext context = b.context;
  context.surrogate_enabled = true;
  exec::SimCache::global().clear();
  const auto start = Clock::now();
  const FullDseResult r = run_full_dse(context, b.space);
  emit_study("optimum", seconds_since(start), answer_of(r));
}

/// Set-ups per timed run; setup_s is their median.
constexpr int kSetupReps = 3;

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

int run(int argc, char** argv) {
  // Hermetic runs: a caller's C2B_SIM_CACHE_DIR would silently turn the
  // cold study warm, and the others change the pool, kernel or logging.
  for (const char* name :
       {"C2B_THREADS", "C2B_SIM_CACHE", "C2B_SIM_CACHE_DIR", "C2B_NO_SIMD", "C2B_LOG_LEVEL"})
    unsetenv(name);

  std::string workload, work_dir;
  std::uint64_t context_seed = 0;
  double seconds = 0.0;
  bool trace = false, reduced = false, record = false, seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      require(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--context-seed") context_seed = std::stoull(value()), seeded = true;
    else if (arg == "--seconds") seconds = std::stod(value());
    else if (arg == "--work-dir") work_dir = value();
    else if (arg == "--trace") trace = true;
    else if (arg == "--reduced") reduced = true;
    else if (arg == "--record") record = true;
    else throw std::runtime_error("unknown argument " + arg);
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (workload == w.name) def = &w;
  require(def != nullptr, "unknown --workload '" + workload + "'");
  require(seeded && !work_dir.empty(), "need --context-seed and --work-dir");
  std::filesystem::create_directories(work_dir);

  Bench b;
  b.def = *def;
  b.reduced = reduced;
  const std::size_t cores = usable_cores();
  b.width = def->single_thread ? 1 : std::min<std::size_t>(cores, 4);
  b.disk_dir = work_dir + "/disk-" + std::to_string(getpid());
  JsonLine("env")
      .str("workload", def->name)
      .num("context_seed", static_cast<double>(context_seed))
      .num("pool_width", static_cast<double>(b.width))
      .num("nproc", static_cast<double>(cores))
      .str("compiler", C2B_PERFBENCH_COMPILER)
      .str("build_type", C2B_PERFBENCH_BUILD_TYPE)
      .num("reduced", reduced ? 1 : 0)
      .print();

  Tracer tracer;
  if (record) {
    build_inputs(b, context_seed);
    exec::set_thread_count(std::min<std::size_t>(cores, 4));
    if (def->kind == StudyKind::kAps) record_optimum(b);
    exec::set_thread_count(b.width);
    timed_study(b, tracer, "record");
  } else if (trace) {
    JsonLine("setup").num("seconds", set_up(b, tracer, context_seed)).print();
    traced_run(b, tracer, seconds, work_dir);
  } else {
    for (int rep = 0; rep < kSetupReps; ++rep)
      JsonLine("setup").num("seconds", set_up(b, tracer, context_seed)).print();
    const auto start = Clock::now();
    do timed_study(b, tracer, "timed");
    while (seconds_since(start) < seconds);
  }
  exec::SimCache::global().detach_disk_tier();
  std::filesystem::remove_all(b.disk_dir);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonLine("rss").num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6).print();
  if (trace) {
    const std::string path = work_dir + "/trace-" + def->name + "-" +
                             std::to_string(context_seed) + ".json";
    write_trace(tracer, def->name, path);
    JsonLine("trace_file").str("path", path).print();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "c2b_perfbench: %s\n", e.what());
    return 2;
  }
}
