#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the standard output of runs of perfbench/run.py, one
file per run (any file name). A file's provenance line names the workload
and seed; its last line is the result object. Runs of the two sides are
paired by seed.

For every metric and workload the report gives each side's median and
quartiles (statistics.quantiles, n=4) and a verdict:

  gain        the change is better in at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the base's
              interquartile range;
  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the base's own spread (interquartile range over median)
              exceeds the bound, so a regression cannot be excluded — unless
              every change run is better than every base run;
  ok          none of the above.

Per-layer metrics have no bound: they are reported as gain or ok only.
Exits 1 when any verdict is regression or unresolved.
"""
import argparse
import json
import os
import statistics
import sys

GAIN_SHARE = 0.9


def load_runs(directory):
    """Returns {(workload, metric): {seed: value}} for every run file."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        provenance = None
        for line in lines:
            if line.startswith('{"provenance"'):
                provenance = json.loads(line)["provenance"]
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if provenance is None or "metrics" not in result:
            continue
        for metric, entry in result["metrics"].items():
            key = (provenance["workload"], metric)
            runs.setdefault(key, {})[provenance["seed"]] = entry["value"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a > b if direction == "higher" else a < b


def verdict(base, change, direction, bound):
    """Applies the gain and regression rules to two lists of values paired
    by position. `bound` is None for metrics without one."""
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    if (pairs and wins >= GAIN_SHARE * len(pairs)
            and better(c_med, b_med, direction)
            and abs(c_med - b_med) > b_q3 - b_q1):
        return "gain"
    if bound is None:
        return "ok"
    if all(better(c, b, direction) for c in change for b in base):
        return "ok"
    if b_med != 0 and (b_q3 - b_q1) / abs(b_med) > bound:
        return "unresolved"
    worse = (c_med - b_med) if direction == "lower" else (b_med - c_med)
    if b_med != 0 and worse / abs(b_med) > bound:
        return "regression"
    return "ok"


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = (entry["better"], entry["bound"])
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = (entry["better"], None)
    return metrics


def compare(base_runs, change_runs, spec):
    """Yields one report row per (workload, metric) present on both sides."""
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, metric = key
        if metric not in spec:
            continue
        direction, bound = spec[metric]
        seeds = sorted(set(base_runs[key]) & set(change_runs[key]))
        if not seeds:
            continue
        base = [base_runs[key][s] for s in seeds]
        change = [change_runs[key][s] for s in seeds]
        yield {
            "workload": workload,
            "metric": metric,
            "pairs": len(seeds),
            "base": quartiles(base),
            "change": quartiles(change),
            "wins": sum(1 for b, c in zip(base, change)
                        if better(c, b, direction)),
            "verdict": verdict(base, change, direction, bound),
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    spec = load_spec(args.benchmark)
    rows = list(compare(load_runs(args.base), load_runs(args.change), spec))
    if not rows:
        print("no metric has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':32s} {'n':>3s} "
          f"{'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'wins':>6s}  verdict")
    for r in rows:
        b1, bm, b3 = r["base"]
        c1, cm, c3 = r["change"]
        print(f"{r['workload']:14s} {r['metric']:32s} {r['pairs']:3d} "
              f"{bm:12.5g} [{b1:8.4g}, {b3:8.4g}] "
              f"{cm:12.5g} [{c1:8.4g}, {c3:8.4g}] "
              f"{r['wins']:3d}/{r['pairs']:<2d}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
