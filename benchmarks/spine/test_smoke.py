"""Smoke test of the spine benchmark: every workload, toy size, the same code.

Run explicitly (tier-1 collects ``tests/`` only):

    PYTHONPATH=src python -m pytest benchmarks/spine/test_smoke.py

Each workload makes an untraced and a traced pass of under 3000 lines with
phases well under 2 s, which is enough for the oracle, the name contract with
``BENCHMARK.json`` and the trace reconciliation, and far too little for the
numbers themselves to mean anything.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TOY_SECONDS = 0.5
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def passes():
    out = {}
    for name in workloads.WORKLOADS:
        twin = run.run_pass(name, 0, TOY_SECONDS, traced=False, setup_repeats=1)
        traced = run.run_pass(name, 0, TOY_SECONDS, traced=True, setup_repeats=1)
        out[name] = (twin, traced)
    return out


def test_toy_size_is_toy():
    for workload in workloads.WORKLOADS.values():
        paced_s, n_paced, n_burst = workloads.sizes(workload, TOY_SECONDS)
        assert paced_s <= 2.0 and n_paced + workloads.BURSTS * n_burst <= 3000


def test_oracle_passes_on_every_workload(passes):
    for name, (twin, traced) in passes.items():
        for p in (twin, traced):
            assert p["oracle"]["ok"], (name, p["oracle"]["problems"])
            assert p["oracle"]["failed"] == 0
            assert p["oracle"]["sampled"] > 0 and p["oracle"]["wal_records"] > 0


def test_flood_reject_accepts_exactly_its_valid_share(passes):
    counts = passes["flood_reject"][0]["bursts"][-1]["report"]["counts"]
    sent = passes["flood_reject"][0]["sent_lines"]
    assert counts["ingest.listener.accepted"] == sent * 8 // 20
    assert counts["ingest.listener.rejected"] == sent * 9 // 20
    assert counts["ingest.listener.oversize"] == sent * 3 // 20
    assert counts["ingest.listener.shed"] == 0


def test_names_match_benchmark_json_both_ways(passes):
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    declared_e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m for m in BENCHMARK["per_layer"]}
    for name, (twin, traced) in passes.items():
        e2e = metrics.end_to_end(twin)
        layers = metrics.per_layer(traced, twin)
        assert set(e2e) == set(declared_e2e), name
        assert set(layers) == set(declared_layers), name
        for emitted, declared in ((e2e, declared_e2e), (layers, declared_layers)):
            for metric, m in emitted.items():
                assert NAME.fullmatch(metric)
                assert m["unit"] == declared[metric]["unit"], metric
                assert m["value"] == m["value"], f"{name}.{metric} is NaN"
        assert all(m["value"] > 0 for m in e2e.values()), (name, e2e)
    for name, unit, better, _floor in metrics.END_TO_END:
        assert (declared_e2e[name]["unit"], declared_e2e[name]["better"]) == (unit, better)
    for name, unit, better in metrics.PER_LAYER:
        assert (declared_layers[name]["unit"], declared_layers[name]["better"]) == (unit, better)
    assert BENCHMARK["command"][-1] == "benchmarks/spine/run.py"
    assert BENCHMARK["paths"] == ["benchmarks/spine"]


def test_traced_pass_reconciles(passes):
    for name, (twin, traced) in passes.items():
        layers = metrics.per_layer(traced, twin)
        assert layers["spine.unattributed_pct"]["value"] <= metrics.MAX_UNATTRIBUTED_PCT, name
        shares = dict(metrics.layer_shares(traced))
        assert 0.9 <= sum(shares.values()) <= 1.05, (name, shares)


def test_seed_changes_the_lines_never_the_counts():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 0, TOY_SECONDS)
        b = workloads.build(name, 1, TOY_SECONDS)
        assert a.paced.lines != b.paced.lines
        for pa, pb in zip([a.paced, *a.bursts], [b.paced, *b.bursts]):
            assert vars(pa.expected) == vars(pb.expected)
            assert len(pa.lines) == len(pb.lines)
        assert workloads.build(name, 0, TOY_SECONDS).paced.lines == a.paced.lines
