"""IMPORT FOOTPRINT — what a process pays before it handles a line.

Each entry point runs in a fresh interpreter, five times, and the row
reports per entry point:

* **VmRSS** after it (``/proc/self/status``), in MiB, and the bare
  interpreter's for reference; **VmHWM**, the peak, beside it;
* **modules** in ``sys.modules`` after it, all and ``repro.*`` only, and
  whether any ``scipy`` module loaded;
* **wall** — median ``perf_counter`` seconds around it.

The entry points are the constructors ``benchmarks/spine/spine.py`` wires
(the literal list ``tests/test_import_footprint.py`` guards), the message
model ``repro.core.message``, the CLI module ``repro.cli``, and two that
work as well as import: the spine's work on the wiring set (fit, then
classify 1,000 hot and 1,000 cold lines) and ``load_pipeline`` of a saved
Complement NB model, then classify.  Everything lands in
``BENCH_import_footprint.json``; the tier-1 CI job uploads it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

from conftest import emit, write_artifact

from repro.experiments.common import format_table

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from test_import_footprint import SPINE_WIRING, SPINE_WORK  # noqa: E402

N_RUNS = 5
SRC = str(Path(__file__).resolve().parent.parent / "src")

ENTRY_POINTS = {
    "interpreter": "pass",
    "spine_wiring": SPINE_WIRING,
    "repro.core.message": "import repro.core.message",
    "repro.cli": "import repro.cli",
    "spine_work": SPINE_WORK,
}

#: ``load_pipeline`` of the model :func:`_saved_model` writes, then classify
LOAD_AND_CLASSIFY = textwrap.dedent(
    """
    from repro.core.serialize import load_pipeline
    from repro.datagen import CorpusGenerator
    texts = CorpusGenerator(scale=0.005, seed=1).generate().texts[:1000]
    load_pipeline({model_dir!r}).classify_batch(texts)
    """
)

_PROBE = """
import json, sys, time
t0 = time.perf_counter()
{code}
wall = time.perf_counter() - t0
with open("/proc/self/status") as status:
    kib = {{line.split(":")[0]: int(line.split()[1]) for line in status if line.startswith("Vm")}}
print(json.dumps({{
    "wall_s": wall, "rss_mib": kib["VmRSS"] / 1024, "hwm_mib": kib["VmHWM"] / 1024,
    "modules": len(sys.modules),
    "repro_modules": sum(name.split(".")[0] == "repro" for name in sys.modules),
    "scipy": any(name.split(".")[0] == "scipy" for name in sys.modules),
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
        "hwm_mib": statistics.median(run["hwm_mib"] for run in runs),
        "modules": runs[0]["modules"],
        "repro_modules": runs[0]["repro_modules"],
        "scipy_loaded": runs[0]["scipy"],
    }


def _saved_model(directory: str) -> str:
    """Fit the spine's pipeline (TF-IDF + Complement NB) and save it."""
    from repro.core.pipeline import ClassificationPipeline
    from repro.core.serialize import save_pipeline
    from repro.datagen import CorpusGenerator
    from repro.ml.bayes import ComplementNB
    from repro.textproc.tfidf import TfidfVectorizer

    corpus = CorpusGenerator(scale=0.01, seed=0).generate()
    pipe = ClassificationPipeline(vectorizer=TfidfVectorizer(), classifier=ComplementNB())
    save_pipeline(pipe.fit(corpus.texts, corpus.labels), directory)
    return directory


def test_import_footprint():
    with tempfile.TemporaryDirectory() as tmp:
        entry_points = {
            **ENTRY_POINTS,
            "load_pipeline_cnb": LOAD_AND_CLASSIFY.format(model_dir=_saved_model(tmp)),
        }
        rows = {name: _measure(code) for name, code in entry_points.items()}
    payload = {"entry_points": rows, "runs": N_RUNS}
    write_artifact("import_footprint", payload)
    emit("Import footprint (fresh interpreter per entry point)", format_table(
        ["entry point", "VmRSS MiB", "VmHWM MiB", "modules", "repro modules", "scipy", "wall s"],
        [[name, f"{row['rss_mib']:.1f}", f"{row['hwm_mib']:.1f}", row["modules"],
          row["repro_modules"], "yes" if row["scipy_loaded"] else "no",
          f"{row['import_wall_s']:.3f}"] for name, row in rows.items()],
    ))
    # every entry point loads at least the interpreter, and the message model
    # stays below the spine it is a part of
    bare = rows["interpreter"]
    assert all(row["modules"] >= bare["modules"] for row in rows.values())
    assert rows["repro.core.message"]["repro_modules"] < rows["spine_wiring"]["repro_modules"]
