"""Crash-recovery harness: real SIGKILLs against a real subprocess.

In-process crash tests can cheat — module state survives, buffers
survive, the GC runs.  This harness cannot: the child runs a durable
simulation in its own interpreter, a fault plan armed at
``durability.crash`` SIGKILLs it mid-journal-write at an exact record
ordinal, and the next child starts from nothing but the WAL directory.
The scenario driver alternates kills and resumes, finishes with a
clean run, and returns the child's conservation report — the
assertion that no message was lost or duplicated across any number of
deaths.

Runnable directly (the child entry point)::

    python -m repro.durability.harness WAL_DIR [--crash-plan PLAN.json]

Exit code 0 means the run completed *and* conservation held.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from repro.durability.recovery import SimConfig, resume_simulation, run_to_completion

__all__ = ["child_main", "run_child", "crash_recovery_scenario"]

REPORT_FILENAME = "report.json"


def child_main(argv: list[str] | None = None) -> int:
    """Resume the durable simulation in ``wal_dir`` and run it out.

    With ``--crash-plan`` the injector may SIGKILL this process at any
    journal write; without one the run must complete, at which point
    the conservation report is written to ``report.json`` and the exit
    code says whether the invariant held.
    """
    parser = argparse.ArgumentParser(prog="repro.durability.harness")
    parser.add_argument("wal_dir", type=Path)
    parser.add_argument("--crash-plan", type=Path, default=None)
    args = parser.parse_args(argv)

    injector = None
    if args.crash_plan is not None:
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan.from_file(args.crash_plan))
    cluster, config, _journal = resume_simulation(args.wal_dir, injector=injector)
    # captured before the run: the restored control state this child
    # woke up with — the crash harness asserts it equals what the dead
    # generation journaled (setpoint equality, no duplicate actuations)
    control_at_resume = (
        cluster.controller.export_state()
        if cluster.controller is not None else None
    )
    report, conservation = run_to_completion(cluster, config)
    payload = {
        "produced": report.produced,
        "indexed": report.indexed,
        "classified": report.classified,
        "drained": report.drained,
        "relay_received": report.relay_received,
        "relay_dropped": report.relay_dropped,
        "conservation": asdict(conservation),
    }
    if cluster.controller is not None:
        payload["control_at_resume"] = control_at_resume
        payload["control"] = cluster.controller.stats()
    if config.trace_sample > 0:
        payload["traces"] = _trace_report(config)
    (args.wal_dir / REPORT_FILENAME).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(conservation.render())
    return 0 if conservation.ok else 1


def _trace_report(config: SimConfig) -> dict:
    """Summarize cross-hop trace continuity for the child's report.

    ``complete`` counts traces covering every spine hop; a trace whose
    tail spans were recorded after the last checkpoint of a killed
    generation loses those hops, so callers assert ``complete >= 1``,
    not completeness for all.  ``multiprocess`` counts traces whose
    hops were recorded by more than one pid — the direct evidence that
    stitching crossed a process boundary.
    """
    from repro.obs import default_registry, default_tracer, trace_is_complete

    traces = default_tracer().traces()
    complete = 0
    multiprocess = 0
    for spans in traces.values():
        if trace_is_complete({s.name for s in spans}, journal=True):
            complete += 1
        if len({s.attributes.get("pid") for s in spans}) > 1:
            multiprocess += 1
    snap = default_registry().snapshot()
    e2e_count = sum(
        int(sample["count"])
        for fam in snap["metrics"]
        if fam["name"] == "repro_e2e_latency_seconds"
        for sample in fam["samples"]
    )
    return {
        "total": len(traces),
        "complete": complete,
        "multiprocess": multiprocess,
        "e2e_observations": e2e_count,
    }


def run_child(
    wal_dir: Path,
    *,
    crash_at: int | None = None,
    crash_seed: int = 0,
    timeout: float = 300.0,
) -> subprocess.CompletedProcess:
    """One child run; optionally armed to SIGKILL itself.

    ``crash_at`` is the 1-based ``durability.crash`` arming-check
    ordinal — i.e. the Nth journal record committed *in this child* —
    at which the process kills itself.  ``None`` runs clean.
    """
    import repro

    wal_dir = Path(wal_dir)
    cmd = [sys.executable, "-m", "repro.durability.harness", str(wal_dir)]
    if crash_at is not None:
        from repro.faults.plan import SITE_CRASH

        plan_path = wal_dir / "crash-plan.json"
        plan_path.write_text(json.dumps({
            "seed": crash_seed,
            "sites": {SITE_CRASH: {"at_calls": [crash_at]}},
        }))
        cmd += ["--crash-plan", str(plan_path)]
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        cmd, env=env, timeout=timeout, capture_output=True, text=True,
    )


def crash_recovery_scenario(
    wal_dir: Path,
    config: SimConfig,
    kill_points: list[int],
    *,
    timeout: float = 300.0,
) -> dict:
    """Kill the simulation at each point in turn, then finish it clean.

    Each kill point restarts the child from disk and SIGKILLs it at
    that journal ordinal (relative to the restart).  A child that
    completes before its kill point fires simply ends the kill phase
    early.  The final clean run must exit 0 — run complete *and*
    conservation held — and its ``report.json`` is returned.
    """
    wal_dir = Path(wal_dir)
    config.save(wal_dir)
    for point in kill_points:
        proc = run_child(wal_dir, crash_at=point, timeout=timeout)
        if proc.returncode == -signal.SIGKILL:
            continue
        if proc.returncode == 0:
            break  # finished before the kill point — nothing left to kill
        raise RuntimeError(
            f"child at kill point {point} exited {proc.returncode} "
            f"(expected SIGKILL):\n{proc.stdout}\n{proc.stderr}"
        )
    final = run_child(wal_dir, timeout=timeout)
    if final.returncode != 0:
        raise RuntimeError(
            f"final clean run failed ({final.returncode}):\n"
            f"{final.stdout}\n{final.stderr}"
        )
    return json.loads((wal_dir / REPORT_FILENAME).read_text())


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(child_main())
