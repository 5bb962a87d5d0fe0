#!/usr/bin/env python3
"""Builds and runs the GABench makespan benchmark for one workload.

Run from the root of a checkout:

    python3 makespan_bench/run.py --workload suite|ooc|datagen \
        --seed N --seconds S --trace 0|1

The first call configures and builds makespan_bench/ (which compiles the
library from src/) into .bench_build/; later calls rebuild incrementally.
The driver then runs the workload for --seconds after one warm-up pass and
writes a detailed result (per-pass stage times, per-layer medians,
provenance) to .bench_build/results/. The last line printed on stdout is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics named in BENCHMARK.json (--trace 0) or the
per-layer ones (--trace 1). A per-layer metric a workload bypasses reads
0. The exit code is 0 only when every job's output checked out.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
BUILD_DIR = Path(".bench_build")
DEADLINE_S = 170  # a run, incremental build included, ends within 180 s
FIRST_BUILD_DEADLINE_S = 880  # the first run in a checkout also compiles


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build(deadline):
    """Configures (once) and builds the driver; returns its path."""
    cmake_dir = BUILD_DIR / "cmake"
    log_path = BUILD_DIR / "build.log"
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "makespan_driver", "-j", jobs])
    with open(log_path, "a") as logf:
        for cmd in steps:
            remaining = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, remaining)).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                logf.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                log("build failed (%s): %s\n%s" % (rc, " ".join(cmd),
                                                   "\n".join(tail)))
                return None
    return cmake_dir / "makespan_driver"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    if not Path(".git").exists():  # keep git from searching parent dirs
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: a revision id that
    also works in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in (Path("src"), BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(top)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, driver_result, threads):
    affinity = len(os.sched_getaffinity(0))
    knobs = {k: v for k, v in sorted(os.environ.items())
             if k.startswith("GAB_")}
    runtime = driver_result.get("runtime", {})
    return {
        "host": {
            "cpus": os.cpu_count(),
            "cpu_affinity": affinity,
            "cpu_model": cpu_model(),
            "kernel": platform.release(),
            "python": platform.python_version(),
        },
        "build": driver_result.get("build", {}),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "threads": threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "gab_env": knobs,
        "resolved": runtime,
        "valid": bool(runtime.get("valid", False)) and threads <= affinity,
    }


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "ooc", "datagen"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", type=int, default=0,
                        help="run every dataset at S<scale> (self-test)")
    parser.add_argument("--results-dir", default=str(BUILD_DIR / "results"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    first_build = not (BUILD_DIR / "cmake" / "CMakeCache.txt").exists()
    deadline = start + (FIRST_BUILD_DEADLINE_S if first_build else DEADLINE_S)
    driver = build(deadline)
    if driver is None:
        return 1

    threads = int(os.environ.get("GAB_THREADS", "0") or 0)
    if threads <= 0:
        threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, GAB_THREADS=str(threads))
    work_dir = BUILD_DIR / "work"
    results_dir = Path(args.results_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_path = results_dir / ("%s-seed%d-trace%d-%s-%d.json" % (
        args.workload, args.seed, args.trace, stamp, os.getpid()))
    raw_path = work_dir / ("driver-%d.json" % os.getpid())
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--workdir", str(work_dir)]
    if args.scale:
        cmd += ["--scale", str(args.scale)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    log(proc.stdout.strip())
    if proc.returncode not in (0, 1) or not raw_path.exists():
        log("driver failed with exit code %d" % proc.returncode)
        return 1
    with open(raw_path) as f:
        result = json.load(f)
    raw_path.unlink()

    section = "per_layer" if args.trace else "end_to_end"
    measured = result[section]
    metrics = {}
    missing = []
    for m in spec[section]:
        value = measured.get(m["name"])
        if value is None:
            if args.trace:
                value = 0.0  # the workload bypasses this layer
            else:
                missing.append(m["name"])
                continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        log("driver did not report: %s" % ", ".join(missing))

    correct = result["failed"] == 0 and proc.returncode == 0 and not missing
    result["provenance"] = provenance(args, result, threads)
    result["correct"] = correct
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    if not result["provenance"]["valid"]:
        log("INVALID run: %d threads on %d CPUs; not usable as a baseline"
            % (threads, result["provenance"]["host"]["cpu_affinity"]))
    log("result: %s" % out_path)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
