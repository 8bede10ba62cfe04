"""IMPORT FOOTPRINT — what a process pays before it handles a line.

Each entry point is imported in a fresh interpreter, five times, and the
row reports per entry point:

* **VmRSS** after the import (``/proc/self/status``), in MiB, and the bare
  interpreter's for reference;
* **modules** in ``sys.modules`` after it, all and ``repro.*`` only;
* **import wall** — median ``perf_counter`` seconds around the import.

The entry points are the constructors ``benchmarks/spine/spine.py`` wires
(the literal list ``tests/test_import_footprint.py`` guards), the message
model ``repro.core.message``, and the CLI module ``repro.cli``.  Everything
lands in ``BENCH_import_footprint.json``; the tier-1 CI job uploads it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from conftest import emit, write_artifact

from repro.experiments.common import format_table

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from test_import_footprint import SPINE_WIRING  # noqa: E402

N_RUNS = 5
SRC = str(Path(__file__).resolve().parent.parent / "src")

ENTRY_POINTS = {
    "interpreter": "pass",
    "spine_wiring": SPINE_WIRING,
    "repro.core.message": "import repro.core.message",
    "repro.cli": "import repro.cli",
}

_PROBE = """
import json, sys, time
t0 = time.perf_counter()
{code}
wall = time.perf_counter() - t0
with open("/proc/self/status") as status:
    rss_kib = next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))
print(json.dumps({{
    "wall_s": wall, "rss_mib": rss_kib / 1024, "modules": len(sys.modules),
    "repro_modules": sum(name.split(".")[0] == "repro" for name in sys.modules),
}}))
"""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def _measure(code: str) -> dict:
    runs = []
    for _ in range(N_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE.format(code=code)],
            capture_output=True, text=True, timeout=120, env=_env(), check=True,
        )
        runs.append(json.loads(proc.stdout))
    return {
        "import_wall_s": statistics.median(run["wall_s"] for run in runs),
        "rss_mib": statistics.median(run["rss_mib"] for run in runs),
        "modules": runs[0]["modules"],
        "repro_modules": runs[0]["repro_modules"],
    }


def test_import_footprint():
    rows = {name: _measure(code) for name, code in ENTRY_POINTS.items()}
    payload = {"entry_points": rows, "runs": N_RUNS}
    write_artifact("import_footprint", payload)
    emit("Import footprint (fresh interpreter per entry point)", format_table(
        ["entry point", "VmRSS MiB", "modules", "repro modules", "import s"],
        [[name, f"{row['rss_mib']:.1f}", row["modules"], row["repro_modules"],
          f"{row['import_wall_s']:.3f}"] for name, row in rows.items()],
    ))
    # every entry point loads at least the interpreter, and the message model
    # stays below the spine it is a part of
    bare = rows["interpreter"]
    assert all(row["modules"] >= bare["modules"] for row in rows.values())
    assert rows["repro.core.message"]["repro_modules"] < rows["spine_wiring"]["repro_modules"]
