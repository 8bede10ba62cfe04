#!/usr/bin/env python3
"""Spine benchmark: drive the real loopback path and print every metric by name.

    python benchmarks/spine/run.py --workload all --seed 0 --out BENCH_spine.json

runs, for each workload, the end-to-end pass with tracing off and then the
traced pass beside an untraced twin of the same size, checks every pass with
the oracle, and exits non-zero if one fails.  The benchmark driver calls

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the JSON object on the last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
# run from a checkout: the program under test is the tree this file sits in
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import sender  # noqa: E402
import spine  # noqa: E402
import workloads  # noqa: E402

#: the traced pass and its untraced twin run at this share of the sizes
TRACE_SCALE = 0.4
#: an invalid run (late or blocked generator) is repeated at most this often
MAX_RERUNS = 2
PROBE_LINES = 2000
WORK_ROOT = HERE / ".work"


class SpineFailed(RuntimeError):
    pass


def _recv(conn, want: str, timeout_s: float = 170.0):
    if not conn.poll(timeout_s):
        raise SpineFailed(f"spine process silent for {timeout_s:.0f} s waiting for {want!r}")
    kind, payload = conn.recv()
    if kind == "error":
        raise SpineFailed(payload)
    if kind != want:
        raise SpineFailed(f"expected {want!r} from the spine process, got {kind!r}")
    return payload


def run_once(name: str, seed: int, seconds: float, *, traced: bool, setup_repeats: int,
             trace_path: str | None = None) -> dict:
    """One pass of one workload: set-up, paced phase, bursts, dashboard, oracle."""
    workload = workloads.WORKLOADS[name]
    workdir = WORK_ROOT / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    paced_s, n_paced, _n_burst = workloads.sizes(workload, seconds)
    opts = spine.Options(
        seed=seed, workdir=str(workdir), traced=traced, setup_repeats=setup_repeats,
        quota=workload.quota, max_line_bytes=workload.max_line_bytes,
        dlq_entries=workload.dlq_entries, preload_docs=workload.preload_docs,
        paced_queries=workloads.paced_query_count(workload, paced_s), trace_path=trace_path,
    )
    # a plain child over a socket pair: multiprocessing's own start methods
    # leave a resource-tracker process that outlives this one by a moment
    parent_sock, child_sock = socket.socketpair()
    with child_sock:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "spine.py"), str(child_sock.fileno())],
            pass_fds=[child_sock.fileno()], stdin=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])},
        )
    parent_conn = Connection(parent_sock.detach())
    parent_conn.send(vars(opts))
    # the lines are generated on this core while the spine builds on the other
    inputs = workloads.build(name, seed, seconds)
    result: dict = {"workload": name, "seed": seed, "seconds": seconds, "traced": traced}
    try:
        result["ready"] = ready = _recv(parent_conn, "ready")
        parent_conn.send(("probe", inputs.paced.lines[:PROBE_LINES]))
        result["probes"] = _recv(parent_conn, "probe")
        sock = socket.create_connection(("127.0.0.1", ready["port"]))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            parent_conn.send(("begin", "paced"))
            _recv(parent_conn, "begun")
            send = sender.paced(sock, inputs.paced.lines, inputs.paced_s)
            parent_conn.send(("quiesce", n_paced))
            result["paced"] = {"send": send, "report": _recv(parent_conn, "phase")}
            result["bursts"], sent = [], n_paced
            for burst in inputs.bursts:
                parent_conn.send(("begin", "burst"))
                _recv(parent_conn, "begun")
                first_byte = sender.burst(sock, burst.lines)
                sent += len(burst.lines)
                parent_conn.send(("quiesce", sent))
                result["bursts"].append(
                    {"first_byte_ns": first_byte, "report": _recv(parent_conn, "phase")})
        finally:
            sock.close()
        parent_conn.send(("dashboard", workloads.QUIESCENT_ROTATIONS))
        result["dashboard"] = _recv(parent_conn, "dashboard")
        expected = workloads.Expected()
        for phase in [inputs.paced, *inputs.bursts]:
            expected.add(phase.expected)
        parent_conn.send(("oracle", {
            **vars(expected),
            "accepted_ordinals": np.concatenate(
                [phase.accepted_ordinals for phase in [inputs.paced, *inputs.bursts]]),
            "max_cache_misses": workload.max_cache_misses,
            "max_hit_ratio": workload.max_hit_ratio,
        }))
        result["oracle"] = _recv(parent_conn, "oracle")
        parent_conn.send(("stop", None))
        # drain the pipe before join(): a child blocked on a full pipe never exits
        result["stopped"] = _recv(parent_conn, "stopped")
    except (OSError, EOFError):
        # the spine process died under us: its traceback is the useful error
        _recv(parent_conn, "a traceback", timeout_s=5.0)
        raise
    finally:
        # closing our end also ends a child that is still in its loop
        parent_conn.close()
        try:
            child.wait(10.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    result["sent_lines"] = expected.sent
    result["valid"] = (
        send["late_p99_ms"] <= metrics.MAX_LATE_P99_MS and not send["blocked"]
    )
    return result


def run_pass(name: str, seed: int, seconds: float, **kwargs) -> dict:
    """``run_once``, repeated while the load generator itself was the bottleneck."""
    for _attempt in range(1 + MAX_RERUNS):
        result = run_once(name, seed, seconds, **kwargs)
        if result["valid"]:
            break
        print(f"# {name}: generator late p99 {result['paced']['send']['late_p99_ms']:.2f} ms, "
              f"blocked={result['paced']['send']['blocked']}: run invalid, repeating", file=sys.stderr)
    return result


def measure(name: str, seed: int, seconds: float, trace: int | None, out_stem: str | None) -> dict:
    """The passes ``trace`` asks for (None: all three) and the metrics they give."""
    row: dict = {"workload": name, "failed": 0, "attempted": 0, "problems": []}

    def account(p: dict) -> None:
        row["attempted"] += p["sent_lines"]
        row["failed"] += p["oracle"]["failed"]
        row["problems"] += [f"{name}: {msg}" for msg in p["oracle"]["problems"]]
        if not p["valid"]:
            row["problems"].append(f"{name}: load generator late or blocked on every attempt")

    if trace in (None, 0):
        e2e = run_pass(name, seed, seconds, traced=False, setup_repeats=spine.SETUP_REPEATS)
        account(e2e)
        row["end_to_end"] = metrics.end_to_end(e2e)
        row["demoted"] = metrics.demoted(e2e)
        row["samples"] = metrics.sample_counts(e2e)
        row["counts_untraced"] = e2e["bursts"][-1]["report"]["counts"]
    if trace in (None, 1):
        small = seconds * TRACE_SCALE
        twin = run_pass(name, seed, small, traced=False, setup_repeats=1)
        traced = run_pass(
            name, seed, small, traced=True, setup_repeats=1,
            trace_path=f"{out_stem}.{name}.trace.jsonl" if out_stem else None,
        )
        account(twin)
        account(traced)
        row["per_layer"] = layers = metrics.per_layer(traced, twin)
        row["layer_shares"] = metrics.layer_shares(traced)
        gap = layers["spine.unattributed_pct"]["value"]
        if gap > metrics.MAX_UNATTRIBUTED_PCT:
            row["problems"].append(
                f"{name}: {gap:.1f}% of the traced pass lies in no span (limit "
                f"{metrics.MAX_UNATTRIBUTED_PCT}%)")
    row["correct"] = not row["problems"]
    return row


def print_row(row: dict) -> None:
    print(f"== {row['workload']}: {'ok' if row['correct'] else 'FAILED'} "
          f"(failed_share {row['failed']}/{row['attempted']})")
    for section, note in (("end_to_end", "full size"), ("demoted", "full size, no bound"),
                          ("per_layer", f"passes at {TRACE_SCALE} x size")):
        if section in row:
            print(f"  -- {section} ({note})")
        for name, m in row.get(section, {}).items():
            print(f"  {name:52s} {m['value']:>16.4f} {m['unit']}")
    if "samples" in row:
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in row["samples"].items()))
    for name, share in row.get("layer_shares", []):
        print(f"  burst wall share  {name:42s} {100 * share:6.2f} %")
    for problem in row["problems"]:
        print(f"  PROBLEM: {problem}")


def machine() -> dict:
    import platform

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(workloads.REFERENCE_SECONDS))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end pass only; 1: traced pass only; omitted: both")
    ap.add_argument("--out", default=None, help="write every metric (and the traces) under this path")
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    stem = str(Path(args.out).with_suffix("")) if args.out else None
    rows = [measure(name, args.seed, args.seconds, args.trace, stem) for name in names]
    for row in rows:
        print_row(row)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "workloads": rows},
            indent=1) + "\n")
    correct = all(row["correct"] for row in rows)
    section = "per_layer" if args.trace == 1 else "end_to_end"
    merged = rows[0].get(section, {}) if len(rows) == 1 else {
        f"{row['workload']}.{k}": v for row in rows for k, v in row.get(section, {}).items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": merged,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
