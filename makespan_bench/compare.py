#!/usr/bin/env python3
"""Compares two sets of makespan benchmark results: parent and change.

    python3 makespan_bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files run.py writes (one JSON per run,
by default under .bench_build/results/). Untraced runs only are compared.
For every workload x end-to-end metric in BENCHMARK.json the tool prints
each side's median and quartiles and a verdict:

  improved     the change wins at least 9 of every 10 pairs (ties count
               for neither side) and the medians differ, in the change's
               favour, by more than the parent's interquartile range;
  worse        the same test with the sides swapped;
  unresolved   anything else, including fewer than 10 pairs.

Runs pair up by seed where both sides ran the same seeds, otherwise in
the order they were made. The "bound" column says whether the change's
median stays within the metric's bound of the parent's median. A parent
run recorded as invalid (more threads than CPUs) is refused as a
baseline. Exit status: 0, or 2 on unusable input.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """Untraced results by workload: a list of (seed, mtime, result)."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            result = json.load(f)
        if result.get("trace"):
            continue
        runs.setdefault(result["workload"], []).append(
            (result["seed"], path.stat().st_mtime, result))
    return runs


def pairs(parent, change):
    """Pairs parent/change runs by seed, or by run order."""
    p_seeds = [seed for seed, _, _ in parent]
    c_seeds = [seed for seed, _, _ in change]
    if len(set(p_seeds)) == len(p_seeds) and set(p_seeds) == set(c_seeds):
        by_seed = {seed: r for seed, _, r in change}
        return [(r, by_seed[seed]) for seed, _, r in sorted(parent)]
    def ordered(runs):
        return [r for _, _, r in sorted(runs, key=lambda run: run[1])]
    return list(zip(ordered(parent), ordered(change)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(p_vals, c_vals, lower_is_better):
    n = len(p_vals)
    if n < MIN_PAIRS:
        return "unresolved (%d pairs)" % n
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    change_wins = sum(better(c, p) for p, c in zip(p_vals, c_vals))
    parent_wins = sum(better(p, c) for p, c in zip(p_vals, c_vals))
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    if abs(c_med - p_med) <= p_q3 - p_q1:
        return "unresolved"
    if change_wins >= WIN_SHARE * n and better(c_med, p_med):
        return "improved"
    if parent_wins >= WIN_SHARE * n and better(p_med, c_med):
        return "worse"
    return "unresolved"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    invalid = [r for runs in parent.values() for _, _, r in runs
               if not r.get("provenance", {}).get("valid", False)]
    if invalid:
        print("refusing parent set: %d run(s) are marked invalid "
              "(more threads than CPUs, or no provenance)" % len(invalid),
              file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    header = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
              "delta", "bound", "verdict")
    rows = []
    for workload in workloads:
        if workload not in parent or workload not in change:
            rows.append((workload, "-", "no runs", "no runs", "", "", ""))
            continue
        matched = pairs(parent[workload], change[workload])
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [p["end_to_end"][name] for p, _ in matched]
            c_vals = [c["end_to_end"][name] for _, c in matched]
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            lower = m["better"] == "lower"
            worse_by = (c_med - p_med) if lower else (p_med - c_med)
            within = p_med != 0 and worse_by <= m["bound"] * abs(p_med)
            delta = (c_med - p_med) / p_med * 100 if p_med else float("nan")
            rows.append((
                workload, name,
                "%.4g/%.4g/%.4g" % (p_q1, p_med, p_q3),
                "%.4g/%.4g/%.4g" % (c_q1, c_med, c_q3),
                "%+.1f%%" % delta,
                ("ok" if within else "EXCEEDED") + " (%g)" % m["bound"],
                verdict(p_vals, c_vals, lower)))
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
