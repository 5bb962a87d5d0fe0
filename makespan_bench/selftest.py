#!/usr/bin/env python3
"""Self-test of the makespan benchmark at S5 scale.

    python3 makespan_bench/selftest.py

Runs every workload once untraced and once traced with every dataset at S5
(one warm-up pass and the minimum of five measured passes each), then
checks that

  * the metric names and units printed match BENCHMARK.json exactly;
  * every job's output checked out;
  * over the untraced passes the stage times (setup, upload, run, verify,
    simulate) add up to makespan_s within 5%;
  * the traced run reports every per-layer metric, and each layer the
    workload loads (LAYERS below) has a nonzero value;
  * every per-layer metric in BENCHMARK.json is loaded by some workload;
  * compare.py accepts the results.

Exit status 0 when all checks pass. Takes about a minute after the build.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
RESULTS = Path(".bench_build") / "selftest"
STAGES = ("setup_s", "upload_s", "run_s", "verify_s", "simulate_s")
SUM_TOLERANCE = 0.05

PLATFORMS = ("GX", "PG", "FL", "GR", "PP", "LI", "GT")
ALGOS = ("PR", "LPA", "SSSP", "WCC", "BC", "CD", "TC", "KC")
ENGINE_COUNTS = ("engines.supersteps", "engines.work_units",
                 "engines.msg_bytes", "engines.cross_bytes")

# Per-layer metrics each workload loads. A metric absent here for a
# workload reads 0 there: the workload bypasses that layer.
LAYERS = {
    "suite": (
        ("gen.fft_csr_s", "runtime.simulate_s", "runtime.retries",
         "engines.std.run_s", "engines.dense.run_s", "engines.diam.run_s",
         "trace.makespan_s")
        + tuple("platforms.%s.upload_s" % p for p in PLATFORMS)
        + tuple("platforms.%s.run_s" % p for p in PLATFORMS)
        + tuple("algos.%s.verify_s" % a for a in ALGOS)
        + ENGINE_COUNTS),
    "ooc": (
        "gen.fft_csr_s", "graph.convert_s", "graph.compress_ratio",
        "graph.cache_hit_ratio", "graph.cache_misses", "graph.evictions",
        "graph.io_read_mb", "graph.prefetch_hit_ratio", "graph.cache_peak_mb",
        "platforms.LI.upload_s", "platforms.LI.run_s", "algos.PR.verify_s",
        "algos.WCC.verify_s", "algos.SSSP.verify_s",
        "trace.makespan_s") + ENGINE_COUNTS,
    "datagen": (
        "gen.fft_csr_s", "gen.ldbc_s", "gen.fft_trials_per_edge",
        "gen.ldbc_trials_per_edge", "graph.build_s", "graph.relabel_s",
        "graph.compress_s", "graph.convert_s", "graph.verify_s",
        "graph.avg_neighbor_gap.before", "graph.avg_neighbor_gap.after",
        "graph.cache_line_reuse.before", "graph.cache_line_reuse.after",
        "graph.compress_ratio", "platforms.LI.upload_s", "platforms.LI.run_s",
        "algos.WCC.verify_s", "algos.BFS.run_s", "algos.BFS.verify_s",
        "trace.makespan_s") + ENGINE_COUNTS,
}
# Counts that are legitimately 0 on a healthy run (no injected faults, a
# cache that never had to evict or prefetch at this scale).
MAY_BE_ZERO = {"runtime.retries", "graph.evictions",
               "graph.prefetch_hit_ratio"}


def run(workload, trace, errors):
    """Runs one workload; returns (printed result, detailed result)."""
    out_dir = RESULTS / ("%s-trace%d" % (workload, trace))
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.001", "--trace", str(trace),
           "--scale", "5", "--results-dir", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    files = sorted(out_dir.glob("*.json"))
    if proc.returncode != 0 or not lines or len(files) != 1:
        errors.append("%s trace=%d: exit %d" % (workload, trace,
                                                proc.returncode))
        return None, None
    with open(files[0]) as f:
        return json.loads(lines[-1]), json.load(f)


def check_names(workload, trace, printed, section, errors):
    expected = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in printed["metrics"].items()}
    if got != expected:
        errors.append("%s trace=%d: metric names/units differ from "
                      "BENCHMARK.json: missing %s, extra %s" % (
                          workload, trace, sorted(set(expected) - set(got)),
                          sorted(set(got) - set(expected))))
    if not printed["correct"] or printed["failed"] or printed["attempted"] < 1:
        errors.append("%s trace=%d: correct=%s attempted=%d failed=%d" % (
            workload, trace, printed["correct"], printed["attempted"],
            printed["failed"]))


def main():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    shutil.rmtree(RESULTS, ignore_errors=True)
    errors = []
    per_layer_names = {m["name"] for m in spec["per_layer"]}
    loaded = set()
    for workload in (w["name"] for w in spec["workloads"]):
        printed, detail = run(workload, 0, errors)
        if printed is not None:
            check_names(workload, 0, printed, spec["end_to_end"], errors)
            # Summed over the passes: at S5 a pass takes tens of ms, and
            # one preemption between two spans would dominate a single one.
            passes = detail["passes_detail"]
            total = sum(p[s] for p in passes for s in STAGES)
            makespan = sum(p["makespan_s"] for p in passes)
            gap = abs(total - makespan) / makespan
            print("%-8s %d passes: stages sum %.4f s, makespan %.4f s "
                  "(%.1f%% apart)" % (workload, len(passes), total, makespan,
                                      100 * gap))
            if gap > SUM_TOLERANCE:
                errors.append("%s: stages sum to %.4f s but makespan is "
                              "%.4f s" % (workload, total, makespan))
        printed_t, detail_t = run(workload, 1, errors)
        if printed_t is not None:
            check_names(workload, 1, printed_t, spec["per_layer"], errors)
            for name in LAYERS[workload]:
                loaded.add(name)
                value = detail_t["per_layer"].get(name)
                if value is None or (value <= 0 and name not in MAY_BE_ZERO):
                    errors.append("%s: layer metric %s = %s" % (
                        workload, name, value))
        if printed is not None and printed_t is not None:
            print("%-8s tracing overhead: makespan %.4f s traced vs %.4f s "
                  "untraced" % (workload,
                                detail_t["end_to_end"]["makespan_s"],
                                detail["end_to_end"]["makespan_s"]))
    unloaded = per_layer_names - loaded
    unknown = loaded - per_layer_names
    if unloaded or unknown:
        errors.append("per-layer metrics loaded by no workload: %s; loaded "
                      "but not in BENCHMARK.json: %s" % (sorted(unloaded),
                                                         sorted(unknown)))
    cmp = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"),
                          str(RESULTS / "suite-trace0"),
                          str(RESULTS / "suite-trace0")],
                         stdout=subprocess.PIPE, text=True)
    if cmp.returncode != 0 or "makespan_s" not in cmp.stdout:
        errors.append("compare.py failed on the self-test results")
    for e in errors:
        print("FAIL: " + e)
    print("selftest: %s" % ("ok" if not errors else
                            "%d failure(s)" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
