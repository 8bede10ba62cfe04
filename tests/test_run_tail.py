"""The run written once: its schedule, its load, its tail, its headline.

The replaced code lives on in ``tests/reference_consumer.py``:
``EventEngine.every`` is held against the re-arming closure
``TivanCluster`` wrote three times (same ``(time, seq)`` of every
event), ``TivanCluster.load_events`` against the version that handed
every node daemon the whole trace (same schedule, each line accepted
under the same trace position, no hostname comparisons at all),
``run_to_completion`` against the tail
``recover`` and the crash harness each carried, ``IngestReport.headline``
against the f-string ``simulate`` and ``recover`` both typed.  The
gates at the end are AST checks that the settle margin and the
paper's numbers each keep one home.
"""

from __future__ import annotations

import ast
from dataclasses import asdict
from pathlib import Path

import pytest
import reference_consumer as reference
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.message import SyslogMessage
from repro.datagen.workload import StreamEvent, standard_simulation_events
from repro.durability import SimConfig, resume_simulation, run_to_completion
from repro.durability.recovery import build_cluster
from repro.experiments.classifiers import PAPER_FIG3_F1, ClassifierRow, fig3_layout
from repro.experiments.common import format_table
from repro.experiments.table3 import PAPER_TABLE3, run_table3, table3_layout
from repro.obs import MetricsRegistry, use_registry
from repro.stream.events import EventEngine
from repro.stream.tivan import SETTLE_MARGIN_S, TivanCluster

SRC = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _trees(*roots: Path):
    """(``root/relative/path``, AST) of every python file under ``roots``.

    The spine benchmark apart: it is frozen, and swapped in its own PR.
    """
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            if "spine" not in relative.parts:
                yield f"{root.name}/{relative}", ast.parse(path.read_text())


class _Engine(EventEngine):
    """Logs ``(time, seq)`` of every event it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.scheduled: list[tuple[float, int]] = []

    def schedule_at(self, time, action) -> None:
        self.scheduled.append((time, self._seq))
        super().schedule_at(time, action)


class TestEvery:
    @settings(max_examples=200)
    @given(
        start=st.sampled_from([0.0, 2.5, 7.0]),
        interval=st.sampled_from([0.25, 1.0, 2.5, 5.0, 60.0]),
        until=st.sampled_from([0.0, 1.0, 5.0, 10.0, 12.5, 30.0]),
        others=st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0, 7.5, 10.0]), max_size=6),
        rearm_other=st.booleans(),
    )
    def test_same_time_and_sequence_number_of_every_event(
        self, start, interval, until, others, rearm_other
    ):
        """First delay, tie order with neighbours and the last firing included."""
        logs = []
        for schedule in (
            lambda e, action: e.every(interval, action, until=until),
            lambda e, action: reference.schedule_every(e, interval, action, until),
        ):
            engine = _Engine()
            engine.now = start
            fired: list[tuple[str, float]] = []

            def action(engine=engine, fired=fired) -> None:
                fired.append(("every", engine.now))
                if rearm_other:  # an action that schedules: sequence numbers interleave
                    engine.schedule(interval / 2, lambda: fired.append(("child", engine.now)))

            for k, delay in enumerate(others[:3]):
                engine.schedule(delay, lambda k=k: fired.append((f"other-{k}", engine.now)))
            schedule(engine, action)
            for k, delay in enumerate(others[3:]):
                engine.schedule(delay, lambda k=k: fired.append((f"late-{k}", engine.now)))
            engine.run(until=max(until, start) + 2 * interval)
            logs.append((fired, engine.scheduled, engine.now, engine.events_processed))
        assert logs[0] == logs[1]

    def test_first_delay_and_last_firing(self):
        engine, fired = EventEngine(), []
        engine.every(5.0, lambda: fired.append(engine.now), until=20.0)
        engine.run()
        assert fired == [5.0, 10.0, 15.0, 20.0]  # not at 0; at ``until``; not past it
        engine, fired = EventEngine(), []
        engine.every(5.0, lambda: fired.append(engine.now), until=3.0)
        engine.run()
        assert fired == [5.0]  # the first firing is unconditional, as the closures' was

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_an_interval_that_does_not_advance_is_refused(self, interval):
        with pytest.raises(ValueError, match="positive"):
            EventEngine().every(interval, lambda: None, until=10.0)
        with pytest.raises(ValueError, match="positive"):
            TivanCluster().run(10.0, sample_every_s=interval)


class _Host(str):
    """A hostname that counts the ``!=`` comparisons made against it."""

    compared = 0

    def __ne__(self, other) -> bool:
        _Host.compared += 1
        return str.__ne__(self, other)

    __hash__ = str.__hash__


def _trace(n_hosts: int, per_host: int):
    hosts = [_Host(f"cn{h:03d}") for h in range(n_hosts)]
    return [
        StreamEvent(
            message=SyslogMessage(float(i), hosts[(i * 7) % n_hosts], "kernel", f"line {i}"),
            label=None,
        )
        for i in range(n_hosts * per_host)
    ]


def _load(load, events, *, skip=()):
    """``(time, seq)`` of every scheduled event, every ``(position, line)``
    accepted, and ``produced``, after ``load`` and a run."""
    engine, accepted = _Engine(), []

    def accept(idx, message) -> None:
        accepted.append((idx, message))

    if load is TivanCluster.load_events:
        cluster = TivanCluster()
        cluster.engine = engine
        cluster._accept = accept
    else:
        cluster = reference.daemon_cluster(engine, accept)
    load(cluster, events, skip=skip)
    engine.run()
    return engine.scheduled, accepted, cluster._n_produced


class TestLoadEvents:
    def test_the_load_is_linear_in_events_not_hosts_times_events(self):
        events = _trace(n_hosts=40, per_host=5)
        _Host.compared = 0
        _load(TivanCluster.load_events, events)
        # lines are grouped by host once: no hostname is compared at all
        assert _Host.compared == 0
        _Host.compared = 0
        _load(reference.load_events, events)
        assert _Host.compared == 40 * len(events)

    @pytest.mark.parametrize("skip", [(), (0, 3, 4, 17, 199)])
    def test_every_event_keeps_its_time_and_sequence_number(self, skip):
        events = _trace(n_hosts=8, per_host=25)
        new, old = (_load(load, events, skip=skip) for load in (
            TivanCluster.load_events, reference.load_events,
        ))
        assert new == old
        scheduled, accepted, produced = new
        assert len(accepted) == len(scheduled) == len(events) - len(skip)
        assert produced == len(events)
        assert sorted(idx for idx, _m in accepted) == [
            i for i in range(len(events)) if i not in skip
        ]

    def test_a_second_load_schedules_nothing_for_the_daemons_it_has_no_lines_for(self):
        events = _trace(n_hosts=4, per_host=3)
        first = [e for e in events if e.message.hostname < "cn002"]
        second = [e for e in events if e.message.hostname >= "cn002"]
        scheduled = []
        for load in (TivanCluster.load_events, reference.load_events):
            engine = _Engine()
            if load is TivanCluster.load_events:
                cluster = TivanCluster()
                cluster.engine = engine
            else:
                cluster = reference.daemon_cluster(engine, lambda idx, m: None)
            load(cluster, first)
            load(cluster, second)
            scheduled.append(engine.scheduled)
        assert scheduled[0] == scheduled[1] and len(scheduled[0]) == len(events)

    def test_a_line_listed_twice_is_accepted_under_each_position(self):
        """The trace names a line by its position, not by its object: the
        oracle, keyed by ``id()``, accepts both copies as the last."""
        line = SyslogMessage(1.0, "cn001", "kernel", "twice")
        events = [StreamEvent(message=line, label=None)] * 2
        _scheduled, accepted, _produced = _load(TivanCluster.load_events, events)
        assert accepted == [(0, line), (1, line)]
        _scheduled, accepted, _produced = _load(reference.load_events, events)
        assert accepted == [(1, line), (1, line)]


def _config(**knobs) -> SimConfig:
    return SimConfig(duration_s=40.0, rate=4.0, seed=0, incident=True, **knobs)


class TestRunToCompletion:
    def test_a_volatile_run_has_no_conservation_to_check(self):
        config = _config()
        with use_registry(MetricsRegistry()):
            cluster = build_cluster(config)
            cluster.load_events(config.events())
            report, conservation = run_to_completion(cluster, config)
            twin = build_cluster(config)
            twin.load_events(config.events())
            want = twin.run(config.duration_s + 30.0)
        assert conservation is None
        assert report.duration_s == config.duration_s + SETTLE_MARGIN_S == 70.0
        assert asdict(report) == asdict(want)

    def test_a_journaled_run_equals_the_tail_it_replaced(self, tmp_path):
        config = _config(checkpoint_every_s=10.0)
        outcomes = []
        for name in ("new", "old"):
            with use_registry(MetricsRegistry()):
                config.save(tmp_path / name)
                cluster, loaded, journal = resume_simulation(tmp_path / name)
                if name == "new":
                    report, conservation = run_to_completion(cluster, loaded)
                else:
                    report, conservation = reference.run_tail(cluster, loaded, journal)
            assert conservation.ok, conservation.render()
            assert journal.wal._fh is None  # closed
            outcomes.append((asdict(report), asdict(conservation), report.headline()))
        assert outcomes[0] == outcomes[1]
        names = sorted(p.name for p in (tmp_path / "new").glob("wal-*"))
        assert names and names == sorted(p.name for p in (tmp_path / "old").glob("wal-*"))
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    def test_a_finished_run_resumed_keeps_its_clock(self, tmp_path):
        """``recover`` on a finished run: the clock is past the horizon already."""
        config = _config(checkpoint_every_s=10.0)
        with use_registry(MetricsRegistry()):
            config.save(tmp_path)
            cluster, loaded, _journal = resume_simulation(tmp_path)
            first, _ = run_to_completion(cluster, loaded)
        with use_registry(MetricsRegistry()):
            cluster, loaded, _journal = resume_simulation(tmp_path)
            assert cluster.engine.now >= config.duration_s + SETTLE_MARGIN_S
            again, conservation = run_to_completion(cluster, loaded)
        assert conservation.ok and conservation.duplicated == 0 and conservation.lost == 0
        assert again.produced == first.produced


class TestHeadline:
    def test_is_the_line_both_subcommands_printed(self):
        with use_registry(MetricsRegistry()):
            cluster = TivanCluster()
            cluster.load_events(standard_simulation_events(
                duration_s=20.0, background_rate=3.0, seed=1, incident=False,
            ))
            report = cluster.run(20.0 + SETTLE_MARGIN_S)
        assert report.headline() == reference.headline(report)
        assert report.headline().startswith(f"produced={report.produced} indexed=")
        assert report.headline().endswith(f"keeping_up={report.keeping_up}")


class TestLayouts:
    def test_fig3_carries_the_papers_column(self):
        rows = [ClassifierRow(name, 0.5, 1.0, 2.0) for name in PAPER_FIG3_F1]
        headers, table = fig3_layout(rows)
        assert headers == ["Classifier", "wF1 measured", "wF1 paper", "train s", "test s"]
        assert [line[2] for line in table] == list(PAPER_FIG3_F1.values())
        assert "0.9992" in format_table(headers, table)

    def test_table3_puts_the_papers_seconds_beside_the_models(self):
        rows = run_table3()
        headers, table = table3_layout(rows)
        assert headers[1:3] == ["time s (model)", "time s (paper)"]
        assert [line[2] for line in table] == [PAPER_TABLE3[r.model][0] for r in rows]

    def test_no_caller_lays_an_artifact_out_itself(self):
        """``tables``, ``report`` and the banners hold no header of their own."""
        headers = {
            "Top tokens", "Top Tokens", "generated", "wF1 measured", "wF1 (measured)",
            "weighted F1", "wF1 paper", "time s (model)", "time s (paper)", "paper s",
        }
        for path in (
            SRC / "cli.py", SRC / "experiments" / "report.py",
            *(ROOT / "benchmarks").glob("bench_table*.py"),
            ROOT / "benchmarks" / "bench_fig3_classifiers.py",
        ):
            typed = {
                node.value for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
            assert not typed & headers, (path.name, typed & headers)

    def test_the_papers_f1_values_have_one_home(self):
        homes = [
            path
            for path, tree in _trees(SRC, ROOT / "benchmarks")
            if any(
                isinstance(node, ast.Constant) and node.value in (0.9992, 0.952334)
                for node in ast.walk(tree)
            )
        ]
        assert homes == ["repro/experiments/classifiers.py"]


class TestSettleMarginStatedOnce:
    def test_no_run_types_the_margin_itself(self):
        value = SETTLE_MARGIN_S
        assigned, typed = [], []
        for path, tree in _trees(SRC, ROOT / "benchmarks", ROOT / "examples"):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SETTLE_MARGIN_S" for t in node.targets
                ):
                    assigned.append(path)
                if (
                    isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and any(
                        isinstance(side, ast.Constant) and side.value == value
                        and not isinstance(side.value, bool)
                        for side in (node.left, node.right)
                    )
                ):
                    typed.append(f"{path}:{node.lineno}")
        assert assigned == ["repro/stream/tivan.py"]
        assert typed == []

    def test_the_run_tail_is_written_once(self):
        """Only ``run_to_completion`` pairs a run with a reconcile and a close."""
        closers = [
            path
            for path, tree in _trees(SRC)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "reconcile"
        ]
        assert closers == ["repro/durability/recovery.py"]
