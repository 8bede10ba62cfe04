#!/usr/bin/env python3
"""Repeat the end-to-end pass and say how far its numbers can be trusted.

    python benchmarks/spine/repeat.py --runs 5 --seed 0 --out benchmarks/spine/baseline/seed0.json
    python benchmarks/spine/repeat.py --runs 10 --vary-seed          # the driver's acceptance check
    python benchmarks/spine/repeat.py --compare A.json B.json        # second set against the first

A set is ``--runs`` end-to-end passes of every workload, the workloads taken in
turn so that a slow spell of the machine falls on all of them alike.  For each
metric and workload it prints median, quartiles, spread (IQR / median, as
``statistics.quantiles(values, n=4)`` gives it) and range, and derives the
regression bound: the larger of the metric's floor and twice the spread.  A
bound above ``MAX_BOUND`` cannot be promised; the metric is then reported as a
candidate for demotion to a per-layer diagnostic, never kept with a wider bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import run  # first: it puts the program under test on sys.path

import metrics  # noqa: E402
import workloads  # noqa: E402

#: the benchmark contract allows no bound above this share of the median
MAX_BOUND = 0.25
DEMOTED = {m[0] for m in metrics.DEMOTED}


def summarise(values: list[float], floor: float) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    iqr_share = (q3 - q1) / med
    return {
        "values": values, "median": med, "q1": q1, "q3": q3, "spread": iqr_share,
        "range": (max(values) - min(values)) / med,
        "bound": max(floor, 2.0 * iqr_share),
    }


def machine() -> dict:
    info = run.machine()
    work = run.WORK_ROOT.parent
    mounts = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
    best = max((m for m in mounts if str(work).startswith(m[1])), key=lambda m: len(m[1]))
    info["workdir_filesystem"] = best[2]
    return info


def run_set(runs: int, seed: int, seconds: float, vary_seed: bool, names: list[str]) -> dict:
    tracked = [m[0] for m in metrics.END_TO_END + metrics.DEMOTED]
    values: dict = {name: {metric: [] for metric in tracked} for name in names}
    failures = []
    for i in range(runs):
        for name in names:
            row = run.measure(name, seed + i if vary_seed else seed, seconds, 0, None)
            failures += row["problems"]
            measured = {**row["end_to_end"], **row["demoted"]}
            for metric, m in measured.items():
                values[name][metric].append(m["value"])
            print(f"# run {i + 1}/{runs} {name}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in measured.items()), file=sys.stderr)
    # a demoted metric is tracked to show why: it has no floor to fall back on
    floors = {m[0]: m[3] for m in metrics.END_TO_END} | {m[0]: 0.0 for m in metrics.DEMOTED}
    return {
        "machine": machine(), "seed": seed, "vary_seed": vary_seed, "runs": runs,
        "seconds": seconds, "failures": failures,
        "workloads": {
            name: {metric: summarise(vals, floors[metric]) for metric, vals in per.items()}
            for name, per in values.items()
        },
    }


def print_set(result: dict) -> None:
    print(f"{'workload':15s} {'metric':22s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'range':>7s} {'bound':>6s}")
    for name, per in result["workloads"].items():
        for metric, s in per.items():
            note = "  (demoted)" if metric in DEMOTED else (
                "  <- cannot be bounded: demote" if s["bound"] > MAX_BOUND else "")
            print(f"{name:15s} {metric:22s} {s['median']:11.4f} {s['q1']:11.4f} {s['q3']:11.4f} "
                  f"{100 * s['spread']:6.1f}% {100 * s['range']:6.1f}% {100 * s['bound']:5.1f}%{note}")
    for failure in result["failures"]:
        print("FAILED:", failure)


def bounds_by_metric(result: dict) -> dict:
    """One bound per metric: the widest any workload needs."""
    out: dict = {}
    for per in result["workloads"].values():
        for metric, s in per.items():
            out[metric] = max(out.get(metric, 0.0), s["bound"])
    return out


def compare(first: dict, second: dict) -> int:
    """Is the second set's median worse than the first's by more than the bound?"""
    better = {m[0]: m[2] for m in metrics.END_TO_END}
    bounds = bounds_by_metric(first)
    bad = 0
    for name, per in first["workloads"].items():
        for metric, a in per.items():
            if metric in DEMOTED:
                continue
            b = second["workloads"][name][metric]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if better[metric] == "lower" else -change
            verdict = "ok" if worse <= min(bounds[metric], MAX_BOUND) else "WORSE"
            bad += verdict != "ok"
            print(f"{name:15s} {metric:22s} {a['median']:11.4f} -> {b['median']:11.4f} "
                  f"{100 * change:+6.1f}%  bound {100 * bounds[metric]:4.1f}%  {verdict}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--vary-seed", action="store_true", help="run i uses seed + i")
    ap.add_argument("--seconds", type=float, default=float(workloads.REFERENCE_SECONDS))
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(first, second) else 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = run_set(args.runs, args.seed, args.seconds, args.vary_seed, names)
    print_set(result)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
