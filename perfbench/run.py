#!/usr/bin/env python3
"""End-to-end benchmark for the design-space studies.

Builds the c2b_perfbench harness from this checkout's sources, runs a
workload, checks every study's answer bitwise against references.json, and
prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload dse_cold --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                 # every workload, one after another
  python3 perfbench/run.py --workload aps_t1 --context-seed 5 ...   # held-out seed
  python3 perfbench/run.py --self-test     # harness check at a reduced size
  python3 perfbench/run.py --record        # rewrite references.json

--seed picks the study's DseContext seed from the development seeds in
references.json; --context-seed names a seed directly (the held-out one).
See README.md for the workloads, the metrics and what each should move.
"""

import argparse
import copy
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
RUN_TIMEOUT_S = 170

# workload -> the study it runs ("dse" answers are shared by both DSE workloads)
WORKLOADS = {"dse_cold": "dse", "dse_warm_restart": "dse", "aps_t1": "aps"}

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _CONTRACT = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- Build and provenance ----------------------------------------------------

def build():
    """Configures and builds the harness; returns the executable's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found next to perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(build_dir, "c2b_perfbench"), os.path.join(ROOT, target, "perfbench-work")


def provenance():
    """The commit when this is a git checkout, and always a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return commit, digest.hexdigest()[:16]


def run_harness(exe, work_dir, workload, context_seed, seconds, trace=False, reduced=False,
                extra=()):
    args = [exe, "--workload", workload, "--context-seed", str(context_seed),
            "--seconds", str(seconds), "--work-dir", work_dir]
    args += (["--trace"] if trace else []) + (["--reduced"] if reduced else []) + list(extra)
    try:
        out = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness exceeded {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        raise BenchError(f"harness exited with {out.returncode}")
    return [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]


# ---- Answers -------------------------------------------------------------------

def reference_for(refs, reduced, workload, context_seed):
    table = refs["answers"]["reduced" if reduced else "large"][WORKLOADS[workload]]
    if str(context_seed) not in table:
        raise BenchError(f"no reference answer for context seed {context_seed}; "
                         f"known: {', '.join(sorted(table))}")
    return table[str(context_seed)]


def expected_answer(event, ref, workload):
    """The value each checked field of one study's answer must have."""
    fields = ["best_index", "best_time_bits", "simulations"]
    fields += ["feasible_count", "classes_simulated"] if WORKLOADS[workload] == "dse" else [
        "memory_accesses"]
    expected = {f: ref[f] for f in fields}
    if workload == "dse_warm_restart" and event["phase"] != "setup":
        # Every point the cold study simulated comes back from disk; none is re-simulated.
        expected.update(disk_hits=ref["members"], resimulated=0)
    else:
        expected["resimulated"] = ref["members"]
    return expected


def check_answers(events, ref, workload):
    studies = [e for e in events if e["event"] == "study"]
    failed = 0
    for e in studies:
        wrong = [(f, v) for f, v in expected_answer(e, ref, workload).items() if e[f] != v]
        if wrong:
            failed += 1
            log(f"wrong answer in a {e['phase']} study: " + ", ".join(
                f"{f} {e[f]} != reference {v}" for f, v in wrong))
    return len(studies), failed


def regret_pct(best_time, optimum_time):
    return 100.0 * (best_time - optimum_time) / optimum_time


# ---- Metrics -------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(events):
    times = [e["seconds"] for e in events if e["event"] == "study" and e["phase"] == "timed"]
    setups = [e["seconds"] for e in events if e["event"] == "setup"]
    rss = [e["peak_rss_mb"] for e in events if e["event"] == "rss"][0]
    lo, hi = quartiles(times)
    notes = {
        "study_s": f"fastest of {len(times)} studies (median {statistics.median(times):.4f}, "
                   f"quartiles {lo:.4f}..{hi:.4f}); no tail percentile is reported",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "peak resident set of the harness process",
    }
    # The fastest study, not the median: every study does the same
    # deterministic work, so what varies between them is only what other
    # tenants of the host add (cache and memory contention that comes and goes
    # over tens of seconds). The median of a run follows that contention; the
    # fastest study is the least disturbed one and varies far less run to run.
    values = {"study_s": min(times), "setup_s": statistics.median(setups),
              "peak_rss_mb": rss}
    return values, notes


def per_layer(events, trace, workload, ref):
    spans = trace["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(span):
        return span["end"] - span["start"]

    def med(name):
        found = named(name)
        if not found:
            raise BenchError(f"traced run recorded no '{name}' span")
        return statistics.median(dur(s) for s in found)

    def med_counter(name, counter):
        return statistics.median(s["counters"].get(counter, 0) for s in named(name))

    def med_attr(name, attr):
        return statistics.median(s["attrs"][attr] for s in named(name))

    def phase_median(phase):
        return statistics.median(e["seconds"] for e in events
                                 if e["event"] == "study" and e["phase"] == phase)

    replay = named("sim.batched_replay")[0]
    # The sweep's own work: the sweep minus the same batched evaluation of the
    # same points in the same cache state (disk-warm on dse_warm_restart).
    evaluation = med("exec.disk.lookup" if workload == "dse_warm_restart" else "sim.batched_replay")
    studies = [e for e in events if e["event"] == "study"]
    if WORKLOADS[workload] == "aps":
        regret = regret_pct(studies[-1]["best_time"], ref["optimum_time"])
    else:
        regret = regret_pct(med_attr("aps.run_aps", "best_time"), studies[-1]["best_time"])
    untraced = phase_median("untraced")
    m = {
        "aps.plan_s": med("aps.plan"),
        "aps.surrogate_sweep_s": med("aps.surrogate_sweep"),
        "aps.surrogate_self_s": med("aps.surrogate_sweep") - evaluation,
        "aps.points_simulated_frac": med_attr("aps.surrogate_sweep", "points_simulated")
        / med_attr("aps.surrogate_sweep", "points_total"),
        "aps.classes_simulated": med_attr("aps.surrogate_sweep", "classes_simulated"),
        "aps.fallback_sims": med_attr("aps.surrogate_sweep", "fallback_sims"),
        "aps.trained_samples": med_attr("aps.surrogate_sweep", "trained_samples"),
        "aps.characterize_s": med("aps.characterize"),
        "aps.neighborhood_s": med("aps.neighborhood"),
        "aps.regret_pct": regret,
        "sim.batched_replay_s": dur(replay),
        "sim.ns_per_access": 1e9 * dur(replay) / replay["attrs"]["accesses"],
        "sim.single_core_s": med("sim.single_core"),
        "trace.generate_s": med("trace.generate"),
        "trace.stack_distance_s": med("trace.stack_distance"),
        "trace.chunks_shared": med_counter("study", "exec.batch.chunks_shared"),
        "trace.regen_avoided_accesses": med_counter("study", "exec.batch.regen_avoided_accesses"),
        "core.optimize_s": med("core.optimize"),
        "solver.newton.iterations": med_counter("core.optimize", "solver.newton.iterations"),
        "solver.nm.iterations": med_counter("core.optimize", "solver.nm.iterations"),
        "exec.scaling_x": med("sim.batched_replay_t1") / dur(replay),
        "exec.simcache.hit_frac": med_attr("study", "simcache_hit_frac"),
        "exec.disk.attach_s": med("exec.disk.attach"),
        "exec.disk.lookup_s": med("exec.disk.lookup"),
        "obs.telemetry_cost_pct": 100.0 * (untraced / phase_median("telemetry_off") - 1.0),
        "obs.tracing_overhead_pct": 100.0 * (med("study") / untraced - 1.0),
    }
    for counter in ("sim.kernel.visited_cycles", "sim.kernel.skipped_cycles",
                    "exec.batch.simd.steps", "exec.batch.simd.peels",
                    "exec.batch.simd.lanes_active"):
        m[counter] = replay["counters"].get(counter, 0)
    for counter in ("exec.pool.steals", "exec.pool.chunks", "exec.pool.caller_drains"):
        m[counter] = med_counter("study", counter)
    return m


def self_times(spans):
    """Median duration and self time (duration minus covered child spans) per span name."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    rows = {}
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(i, []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        rows.setdefault(s["name"], []).append((s["end"] - s["start"], s["end"] - s["start"] - covered))
    return {name: (statistics.median(r[0] for r in v), statistics.median(r[1] for r in v), len(v))
            for name, v in rows.items()}


# ---- One benchmark run -------------------------------------------------------

def evaluate(exe, work_dir, refs, workload, context_seed, seconds, trace, reduced=False):
    """Runs one workload; prints the report and returns the result object."""
    events = run_harness(exe, work_dir, workload, context_seed, seconds, trace, reduced)
    ref = reference_for(refs, reduced, workload, context_seed)
    attempted, failed = check_answers(events, ref, workload)
    env = [e for e in events if e["event"] == "env"][0]
    commit, digest = provenance()
    print(f"# workload {workload}  context_seed {context_seed}  pool_width {env['pool_width']}  "
          f"nproc {env['nproc']}  compiler {env['compiler']}  build {env['build_type']}  "
          f"commit {commit}  sources {digest}" + ("  (reduced size)" if reduced else ""))
    print(f"wrong_result_frac  {failed / attempted:.6g}  ({failed} of {attempted} studies "
          "differ from the reference)")
    if WORKLOADS[workload] == "aps":
        best = [e for e in events if e["event"] == "study"][-1]["best_time"]
        print(f"aps_regret_pct     {regret_pct(best, ref['optimum_time']):.6g} %  (APS pick vs "
              f"the ground-truth optimum {ref['optimum_time']:.10g})")
    if trace:
        with open([e["path"] for e in events if e["event"] == "trace_file"][0]) as f:
            trace_data = json.load(f)
        values = per_layer(events, trace_data, workload, ref)
        units = PER_LAYER
        print("# span                       median_s   self_s     count")
        for name, (total, own, count) in self_times(trace_data["spans"]).items():
            print(f"#   {name:<26} {total:<10.4f} {own:<10.4f} {count}")
        if WORKLOADS[workload] == "dse":
            # plan + surrogate self + evaluation == plan + sweep, by the definition of self.
            parts = values["aps.plan_s"] + values["aps.surrogate_sweep_s"]
            untraced = statistics.median(e["seconds"] for e in events if e.get("phase") == "untraced")
            print(f"# plan + surrogate self + evaluation = {parts:.4f} s; untraced study_s "
                  f"{untraced:.4f} s; tracing overhead {values['obs.tracing_overhead_pct']:.2f}%")
    else:
        values, notes = end_to_end(events)
        units = END_TO_END
    for name, value in values.items():
        note = "" if trace else "  " + notes[name]
        shown = int(value) if value == int(value) else f"{value:.6g}"
        print(f"{name:<30} {shown} {units[name]}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def self_test(exe, work_dir, refs):
    """Every workload at a reduced size prints every named metric, and a
    deliberately wrong reference turns into a failed study."""
    seed = refs["dev_seeds"][0]
    for workload in WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            result = evaluate(exe, work_dir, refs, workload, seed, 1, trace, reduced=True)
            if not result["correct"] or set(result["metrics"]) != set(names):
                raise BenchError(f"self-test: {workload} trace={int(trace)} gave {result}")
    wrong = copy.deepcopy(refs)
    entry = wrong["answers"]["reduced"]["dse"][str(seed)]
    entry["best_time_bits"] = format(int(entry["best_time_bits"], 16) ^ 1, "016x")
    result = evaluate(exe, work_dir, wrong, "dse_cold", seed, 1, False, reduced=True)
    if result["correct"] or result["failed"] != result["attempted"]:
        raise BenchError("self-test: a wrong reference did not fail every study")
    print("self-test OK")


def record(exe, work_dir, refs):
    """Re-derives every stored answer (minutes: the APS optimum is a full surrogate DSE)."""
    answers = {}
    for size in ("large", "reduced"):
        for workload, study in (("dse_cold", "dse"), ("aps_t1", "aps")):
            for seed in refs["dev_seeds"] + [refs["held_out_seed"]]:
                events = run_harness(exe, work_dir, workload, seed, 0, reduced=size == "reduced",
                                     extra=["--record"])
                found = {e["phase"]: e for e in events if e["event"] == "study"}
                e = found["record"]
                entry = {k: e[k] for k in ("best_index", "best_time", "best_time_bits",
                                           "simulations")}
                entry["members"] = e["resimulated"]
                if study == "dse":
                    entry.update(feasible_count=e["feasible_count"],
                                 classes_simulated=e["classes_simulated"])
                else:
                    opt = found["optimum"]
                    entry.update(memory_accesses=e["memory_accesses"],
                                 optimum_index=opt["best_index"],
                                 optimum_time=opt["best_time"],
                                 optimum_time_bits=opt["best_time_bits"])
                answers.setdefault(size, {}).setdefault(study, {})[str(seed)] = entry
                log(f"recorded {size} {study} seed {seed}")
    refs["answers"] = answers
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, one after another, when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--context-seed", type=int)
    parser.add_argument("--seconds", type=float, default=_CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    correct = True
    try:
        exe, work_dir = build()
        with open(REFERENCES) as f:
            refs = json.load(f)
        if args.self_test:
            return self_test(exe, work_dir, refs)
        if args.record:
            return record(exe, work_dir, refs)
        context_seed = args.context_seed
        if context_seed is None:
            context_seed = refs["dev_seeds"][args.seed % len(refs["dev_seeds"])]
        for workload in [args.workload] if args.workload else list(WORKLOADS):
            result = evaluate(exe, work_dir, refs, workload, context_seed, args.seconds,
                              bool(args.trace))
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
