"""The consumer written once, against the four copies it replaced.

``tests/reference_consumer.py`` keeps the parent's code verbatim: the
forwarder's own admit/retire bodies, ``TivanCluster._settle_broker``
and ``listen``'s closures.  Two worlds get the same operations — one
built from ``FluentdForwarder`` and driven through ``consume`` /
``settle``, one from ``ReferenceForwarder`` driven through the old
loops — and must agree on everything observable after every step:
store contents and order, ``ForwarderStats``, ``BrokerStats``,
committed offsets, dead letters, the three parallel lists, and the
exact sequence of journal and broker calls (journal first, commit
second).  ``classifying_sink`` is held against the closure ``cli.py``
had and against ``benchmarks/spine/spine.py::Spine.sink``, which a
later ``benchmark`` PR swaps for it.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from broker_feed import fed_forwarder
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_consumer import (
    ReferenceForwarder,
    listen_consume,
    listen_settle,
    listen_sink,
    settle_broker,
)

import repro
from repro.core.message import SyslogMessage
from repro.core.pipeline import ClassificationPipeline
from repro.datagen import CorpusGenerator
from repro.durability import StreamJournal, WriteAheadLog
from repro.faults import FaultInjector, FaultPlan
from repro.faults.dlq import entry_to_dict
from repro.faults.plan import (
    SITE_COMMIT_LOST,
    SITE_FLUSH_FAIL,
    SITE_PARTITION_STALL,
    FaultSpec,
)
from repro.ingest import LogBroker
from repro.ml import ComplementNB
from repro.obs import MetricsRegistry, TraceSampler, Tracer, set_default_tracer, use_registry
from repro.replication import ReplicatedLogStore
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder, classifying_sink, settle
from repro.stream.opensearch import LogStore

SRC = Path(repro.__file__).resolve().parent
SPINE = Path(__file__).resolve().parents[1] / "benchmarks" / "spine"
HOSTS = ("cn001", "cn002", "cn003", "gpu01")


def _message(i: int, host: str) -> SyslogMessage:
    return SyslogMessage(
        timestamp=float(i), hostname=host, app="kernel", text=f"event {i} on {host}"
    )


def _as_singles(name: str, args: tuple) -> list[tuple[str, tuple]]:
    """A batch call as the one-item calls it stands for, in order: the
    reference journals each polled record and commits each partition."""
    if name == "accept_many":
        events, messages = args
        return [("accept", pair) for pair in zip(events, messages)]
    if name == "commit_many":
        group, offsets = args
        return [("commit", (group, *item)) for item in offsets.items()]
    return [(name, args)]


class _Recorder:
    """Forwards to ``inner``, logging calls to the named methods in order."""

    def __init__(self, inner, log: list, tag: str, methods: tuple[str, ...]) -> None:
        self._inner, self._log, self._tag, self._methods = inner, log, tag, methods

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in self._methods:
            return attr

        def logged(*args, **kwargs):
            for single, single_args in _as_singles(name, args):
                self._log.append(
                    (self._tag, single, repr(single_args), repr(sorted(kwargs.items())))
                )
            return attr(*args, **kwargs)

        return logged


class _NullJournal:
    """Accepts every journal call the forwarder makes; records nothing itself."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


JOURNAL_CALLS = ("accept", "accept_many", "flushed", "abandoned")
BROKER_CALLS = ("poll", "commit", "commit_many")


class World:
    """A broker, a store and the group's one consumer, of one forwarder class."""

    def __init__(
        self, forwarder_cls, plan: FaultPlan, *, retry_limit, batch_size: int,
        buffer_limit: int, sample: float = 0.0, journal=None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.ticks = 0
        self.log: list = []
        self.n_published = 0
        with use_registry(self.registry):
            self.injector = FaultInjector(plan, registry=self.registry)
            self.broker = LogBroker(
                fault_injector=self.injector, registry=self.registry, clock=self.clock
            )
            self.store = LogStore()
            self.sampler = (
                TraceSampler(sample, tracer=self.tracer, clock=self.clock,
                             registry=self.registry)
                if sample else None
            )
            self.consumer = forwarder_cls(
                engine=EventEngine(), sink=self.store.bulk_index,
                batch_size=batch_size, buffer_limit=buffer_limit,
                flush_retry_limit=retry_limit, fault_injector=self.injector,
                journal=_Recorder(
                    journal if journal is not None else _NullJournal(),
                    self.log, "journal", JOURNAL_CALLS,
                ),
                broker=_Recorder(self.broker, self.log, "broker", BROKER_CALLS),
                clock=self.clock,
            )

    def clock(self) -> float:
        self.ticks += 1
        return float(self.ticks)

    def publish(self, host: str, count: int) -> None:
        for _ in range(count):
            i = self.n_published
            self.n_published += 1
            ctx = self.sampler.begin(i, host=host) if self.sampler else None
            self.broker.publish(_message(i, host), ident=i, ctx=ctx)

    def run(self, action) -> str | None:
        """Run ``action`` inside this world's registry and tracer."""
        previous = set_default_tracer(self.tracer)
        try:
            with use_registry(self.registry):
                action()
        except RuntimeError as e:  # a drain that stalled: equal in both worlds
            return str(e)
        finally:
            set_default_tracer(previous)
        return None

    def snapshot(self) -> dict:
        group = self.broker.groups["fluentd"]
        c = self.consumer
        spans = self.tracer.finished
        index = {s.span_id: k for k, s in enumerate(spans)}
        return {
            "store": [(d.doc_id, d.message) for d in self.store.iter_documents()],
            "stats": asdict(c.stats),
            "broker": asdict(self.broker.stats),
            "committed": dict(group.committed),
            "positions": dict(group.positions),
            "lag": self.broker.lag("fluentd"),
            "dead": [entry_to_dict(e) for e in c.dead_letters],
            "buffer": list(c._buffer),
            "offsets": _offset_pairs(c),
            "traced": [e is not None and e[1] for e in c._ctxs],
            "retry": (c._retry_delay, c._consecutive_failures),
            "fires": list(self.injector.fire_log),
            "checks": dict(self.injector.call_counts()),
            "calls": list(self.log),
            "depth": self.registry.snapshot()["metrics"],
            "spans": [
                (s.name, s.trace_id, index.get(s.parent_id), s.start_s, s.end_s,
                 sorted((k, v) for k, v in s.attributes.items() if k != "wall_ms"))
                for s in spans
            ],
        }


def _offset_pairs(c) -> list:
    """(partition, offset) per buffered message: the reference keeps the
    pairs, the forwarder two columns."""
    if isinstance(c, ReferenceForwarder):
        return list(c._offsets)
    assert len(c._partitions) == len(c._offsets)
    return list(zip(c._partitions, c._offsets))


def _apply(world: World, op: tuple, *, reference: bool) -> str | None:
    """One operation; the reference world takes the parent's loops."""
    kind = op[0]
    c = world.consumer
    if kind == "publish":
        return world.run(lambda: world.publish(HOSTS[op[1]], op[2]))
    if kind == "consume":
        return world.run(listen_consume(c) if reference else c.consume)
    if kind == "settle":
        return world.run((lambda: settle_broker([c])) if reference else (lambda: settle([c])))
    if kind == "listen_settle":
        return world.run(
            (lambda: listen_settle(c)) if reference else (lambda: settle([c]))
        )
    if kind == "tick":
        return world.run(c._flush_tick)
    if kind == "flush":
        return world.run(c.flush)
    raise AssertionError(op)


def _settles_a_full_buffer(world: World, op: tuple) -> bool:
    """Whether ``op`` is a settle that starts with the buffer full."""
    c = world.consumer
    return op[0] in ("settle", "listen_settle") and c.buffered >= c.buffer_limit


def _both(ops, plan: FaultPlan, **knobs) -> tuple[World, World]:
    """Drive both worlds through ``ops``, comparing after every step.

    The worlds may part in one case only: a settle that starts with the
    consumer's buffer full.  The old loops stop once a round polls
    nothing, and a full buffer polls nothing, so they can leave lag
    behind; ``settle`` runs on from where they stopped.  Past that step
    nothing is comparable, so the drive ends there.
    """
    new = World(FluentdForwarder, plan, **knobs)
    old = World(ReferenceForwarder, plan, **knobs)
    for step, op in enumerate(ops):
        full = _settles_a_full_buffer(new, op)
        raised_new = _apply(new, op, reference=False)
        raised_old = _apply(old, op, reference=True)
        got, want = new.snapshot(), old.snapshot()
        if full and (raised_new, got) != (raised_old, want):
            assert raised_old is None, (step, op)
            assert got["store"][: len(want["store"])] == want["store"], (step, op)
            assert got["lag"] <= want["lag"], (step, op)
            return new, old
        assert raised_new == raised_old, (step, op)
        for key in want:
            assert got[key] == want[key], (step, op, key)
        c = new.consumer
        assert len(c._ctxs) == len(c._buffer)
        assert len(c._offsets) == len(c._buffer)
    return new, old


_probability = st.sampled_from([0.0, 0.0, 0.2, 0.5])
_plans = st.builds(
    lambda stall, lost, flush, seed: FaultPlan(
        sites={
            site: FaultSpec(probability=p)
            for site, p in (
                (SITE_PARTITION_STALL, stall), (SITE_COMMIT_LOST, lost), (SITE_FLUSH_FAIL, flush),
            )
            if p
        },
        seed=seed,
    ),
    _probability, _probability, _probability, st.integers(0, 5),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, len(HOSTS) - 1), st.integers(1, 9)),
        st.tuples(st.just("publish"), st.integers(0, len(HOSTS) - 1), st.integers(1, 9)),
        st.just(("consume",)),
        st.just(("consume",)),
        st.just(("settle",)),
        st.just(("listen_settle",)),
        st.just(("tick",)),
        st.just(("flush",)),
    ),
    min_size=1, max_size=24,
)


class TestEqualsReplacedLoops:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=_ops, plan=_plans,
        retry_limit=st.sampled_from([None, 1, 2]),
        batch_size=st.sampled_from([1, 3, 500]),
        buffer_limit=st.sampled_from([4, 7, 50_000]),
    )
    def test_any_interleaving_any_faults(self, ops, plan, retry_limit, batch_size, buffer_limit):
        _both(
            ops + [("settle",)], plan, retry_limit=retry_limit,
            batch_size=batch_size, buffer_limit=buffer_limit,
        )

    def test_a_poll_takes_only_the_free_room_so_settle_takes_rounds(self):
        ops = [("publish", 0, 9), ("publish", 1, 9), ("settle",)]
        new, _old = _both(ops, FaultPlan.never(), retry_limit=None, batch_size=3, buffer_limit=4)
        polls = [call for call in new.log if call[1] == "poll"]
        assert len(polls) == 6  # 18 records, 4 at a time, and the empty poll that ends it
        assert len(new.store) == 18 and new.broker.lag("fluentd") == 0

    def test_a_stalled_partition_ends_settle_with_its_lag_intact(self):
        # the stall site is checked per publish: the tenth stalls cn002
        plan = FaultPlan(sites={SITE_PARTITION_STALL: FaultSpec(at_calls=(10,))})
        ops = [("publish", 0, 5), ("publish", 1, 5), ("settle",)]
        new, _old = _both(ops, plan, retry_limit=None, batch_size=3, buffer_limit=50)
        assert new.broker.stats.stall_events == 1
        assert new.broker.stats.publish_refused == 1
        assert new.broker.lag("fluentd") == 4 and len(new.store) == 5

    def test_an_abandoned_batch_commits_and_the_group_moves_past_it(self):
        plan = FaultPlan(sites={SITE_FLUSH_FAIL: FaultSpec(at_calls=(1, 2))})
        ops = [("publish", 0, 3), ("publish", 1, 4), ("settle",)]
        new, _old = _both(ops, plan, retry_limit=2, batch_size=3, buffer_limit=50)
        c = new.consumer
        assert c.stats.abandoned_messages == 3 and len(c.dead_letters) == 3
        assert len(new.store) == 4 and new.broker.lag("fluentd") == 0
        # journal first, then the broker, for the abandon as for the flush
        retired = [call[:2] for call in new.log if call[1] in ("abandoned", "flushed", "commit")]
        assert retired[0] == ("journal", "abandoned")
        assert retired[1][1] == "commit"
        assert ("journal", "flushed") in retired[2:]

    def test_a_lost_commit_is_counted_and_nothing_is_delivered_twice(self):
        plan = FaultPlan(sites={SITE_COMMIT_LOST: FaultSpec(probability=1.0)})
        ops = [("publish", 0, 6), ("consume",), ("publish", 0, 2), ("settle",)]
        new, _old = _both(ops, plan, retry_limit=None, batch_size=4, buffer_limit=50)
        assert new.broker.stats.commits_lost >= 2
        assert [d.message.text for d in new.store.iter_documents()] == [
            f"event {i} on cn001" for i in range(8)
        ]

    def test_traced_messages_keep_their_hops_and_dwell(self):
        ops = [
            ("publish", 0, 40), ("consume",), ("publish", 1, 40), ("tick",), ("settle",),
        ]
        new, _old = _both(
            ops, FaultPlan.never(), retry_limit=None, batch_size=16, buffer_limit=32, sample=0.5,
        )
        names = {s.name for s in new.tracer.finished}
        assert {"ingest.accept", "broker.publish", "broker.poll", "fluentd.flush"} <= names


class TestSettleFromAFullBuffer:
    def test_a_buffer_full_at_the_start_still_settles_to_no_lag(self):
        """25 lines, a 10-line buffer polled full: ``settle`` flushes all
        25; the old stop rule (``settle_broker``) flushed 10 and left 15
        as lag."""
        outcomes = []
        for run in (settle, settle_broker):
            store: list = []
            fwd = fed_forwarder(
                [_message(i, "cn001") for i in range(25)],
                sink=lambda batch, store=store: store.extend(batch) is None,
                buffer_limit=10,
            )
            assert fwd.buffered == 10
            outcomes.append((run([fwd]), fwd.broker.lag(fwd.consumer_group), len(store)))
        assert outcomes == [(25, 0, 25), (10, 15, 10)]

    @pytest.mark.parametrize("op", [("settle",), ("listen_settle",)])
    def test_the_worlds_part_there_and_only_there(self, op):
        """A failed flush leaves the polled buffer full; the settle that
        follows is where the differential drive stops comparing."""
        plan = FaultPlan(sites={SITE_FLUSH_FAIL: FaultSpec(at_calls=(1,))})
        ops = [("publish", 0, 9), ("tick",), op]
        new, old = _both(ops, plan, retry_limit=None, batch_size=3, buffer_limit=4)
        assert new.broker.lag("fluentd") == 0 and len(new.store) == 9
        assert old.broker.lag("fluentd") == 5 and len(old.store) == 4


class TestJournalRecords:
    """A real WAL under both worlds: segment bytes equal, record for record."""

    @pytest.mark.parametrize("retry_limit", [None, 2])
    def test_equal_segments_and_state(self, tmp_path, retry_limit):
        plan = FaultPlan(
            sites={
                SITE_FLUSH_FAIL: FaultSpec(probability=0.4),
                SITE_COMMIT_LOST: FaultSpec(probability=0.3),
            },
            seed=3,
        )
        ops = []
        for round_no in range(12):
            ops += [("publish", round_no % 4, 7), ("consume",)]
            if round_no % 3 == 2:
                ops += [("publish", 0, 1), ("tick",)]
        ops.append(("settle",))
        worlds = []
        for name, cls in (("new", FluentdForwarder), ("old", ReferenceForwarder)):
            registry = MetricsRegistry()
            wal = WriteAheadLog(tmp_path / name, fsync="batch", registry=registry)
            worlds.append((
                World(cls, plan, retry_limit=retry_limit, batch_size=5, buffer_limit=12,
                      journal=StreamJournal(wal)),
                wal,
            ))
        (new, new_wal), (old, old_wal) = worlds
        for op in ops:
            assert _apply(new, op, reference=False) == _apply(old, op, reference=True)
            assert new.snapshot() == old.snapshot()
        for wal in (new_wal, old_wal):
            wal.close()
        segments = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert segments == sorted(p.name for p in (tmp_path / "old").iterdir())
        for name in segments:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
        state = new.consumer.journal.state
        assert state.to_payload() == old.consumer.journal.state.to_payload()
        assert len(state.indexed_events) == len(new.store)
        if retry_limit is not None:
            assert new.consumer.stats.abandoned_messages > 0


@pytest.fixture(scope="module")
def pipeline():
    corpus = CorpusGenerator(scale=0.005, seed=1).generate()
    with use_registry(MetricsRegistry()):
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
    return pipe, corpus


def _spine_sink(store, pipe):
    """``benchmarks/spine/spine.py::Spine.sink`` bound to a stand-in spine."""
    sys.path.insert(0, str(SPINE))
    try:
        import spans
        import spine
    finally:
        sys.path.remove(str(SPINE))
    me = SimpleNamespace(store=store, pipe=pipe, rec=spans.NullRecorder())
    return lambda batch: spine.Spine.sink(me, batch)


class TestTheFrozenHarnessBroker:
    """``benchmarks/spine/spans.py::TimedBroker`` still hands a member to
    ``LogBroker.poll``, which ignores it: a forwarder on the timed broker
    settles to the offsets and records of one on the broker itself."""

    def test_a_forwarder_on_the_timed_broker_equals_one_on_the_broker(self):
        sys.path.insert(0, str(SPINE))
        try:
            import spans
        finally:
            sys.path.remove(str(SPINE))
        messages = [_message(i, HOSTS[i % len(HOSTS)]) for i in range(50)]
        outcomes = []
        for timed in (False, True):
            with use_registry(MetricsRegistry()):
                broker, rec = LogBroker(registry=MetricsRegistry()), spans.Recorder()
                consumer = spans.TimedBroker(broker, rec) if timed else broker
                store = LogStore()
                fwd = FluentdForwarder(
                    engine=EventEngine(), sink=store.bulk_index, broker=consumer,
                    batch_size=7, buffer_limit=16,
                )
                for i, message in enumerate(messages):
                    assert consumer.publish(message, ident=i) == i // len(HOSTS)
                assert settle([fwd]) == len(messages)
            outcomes.append({
                "committed": dict(broker.groups[fwd.consumer_group].committed),
                "docs": [(d.doc_id, d.message) for d in store.iter_documents()],
                "broker": asdict(broker.stats),
                "forwarder": asdict(fwd.stats),
            })
        assert outcomes[0] == outcomes[1]
        assert outcomes[1]["committed"] == {"cn001": 13, "cn002": 13, "cn003": 12, "gpu01": 12}
        assert sorted(m.timestamp for _, m in outcomes[1]["docs"]) == list(range(50))
        polls = [s for s in rec.spans if s.name == "ingest.broker.poll"]
        assert polls and sum(s.n for s in polls) == len(messages)


def _store(kind: str):
    if kind == "bare":
        return LogStore()
    return ReplicatedLogStore(n_nodes=3, n_replicas=2, write_quorum=2, registry=MetricsRegistry())


class TestClassifyingSink:
    """One sink, three writers of it: equal documents, verdicts and digests."""

    @pytest.mark.parametrize("kind", ["bare", "rf3_w2"])
    @pytest.mark.parametrize("sizes", [(1, 3, 64, 500), (500, 1, 1, 2, 7)])
    def test_equals_the_cli_closure_and_the_spine_copy(self, pipeline, kind, sizes):
        pipe, corpus = pipeline
        messages = [
            _message(i, HOSTS[i % len(HOSTS)]) for i in range(sum(sizes))
        ]
        messages = [
            SyslogMessage(m.timestamp, m.hostname, m.app, corpus.texts[i % len(corpus.texts)])
            for i, m in enumerate(messages)
        ]
        outcomes = {}
        for name, make in (
            ("src", classifying_sink), ("cli", listen_sink), ("spine", _spine_sink),
        ):
            with use_registry(MetricsRegistry()):
                store = _store(kind)
                sink = make(store, pipe)
                start = 0
                for size in sizes:
                    assert sink(messages[start:start + size]) is True
                    start += size
                outcomes[name] = {
                    "docs": [
                        (d.doc_id, d.message, d.category) for d in store.iter_documents()
                    ],
                    "digests": store.seq_digests() if kind == "rf3_w2" else None,
                }
        assert outcomes["src"] == outcomes["cli"] == outcomes["spine"]
        docs = outcomes["src"]["docs"]
        assert [d[0] for d in docs] == list(range(len(messages)))
        assert all(d[2] is not None for d in docs)
        # the verdict on a document is the verdict on its own text
        with use_registry(MetricsRegistry()):
            want = [r.category for r in pipe.classify_batch([m.text for m in messages])]
        assert [d[2] for d in docs] == want

    def test_without_a_pipeline_it_only_indexes(self):
        store = LogStore()
        sink = classifying_sink(store)
        assert sink([_message(0, "cn001"), _message(1, "cn002")]) is True
        assert [d.category for d in store.iter_documents()] == [None, None]
        reference = LogStore()
        listen_sink(reference, None)([_message(0, "cn001"), _message(1, "cn002")])
        assert [d.message for d in store.iter_documents()] == [
            d.message for d in reference.iter_documents()
        ]

    def test_a_refused_quorum_is_a_failed_flush_not_a_crash(self, pipeline):
        pipe, _corpus = pipeline
        with use_registry(MetricsRegistry()):
            store = ReplicatedLogStore(n_nodes=3, n_replicas=2, registry=MetricsRegistry())
            for node_id in (0, 1):
                store.kill_node(node_id)
            fwd = fed_forwarder(
                [_message(0, "cn001")], sink=classifying_sink(store, pipe), flush_retry_limit=1,
            )
            assert fwd.flush() == 0
            assert fwd.stats.failed_flushes == 1 and fwd.stats.abandoned_messages == 1


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == name)
            or (isinstance(node.func, ast.Name) and node.func.id == name)
        )
    ]


class TestStatedOnce:
    """Tier-1 gates (AST): the consumer's mechanisms have one home."""

    def test_poll_broker_is_called_only_inside_the_forwarder(self):
        callers = sorted(
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if _calls(ast.parse(path.read_text()), "poll_broker")
        )
        assert callers == ["stream/fluentd.py"]

    def test_the_cli_builds_no_sink_of_its_own(self):
        tree = ast.parse((SRC / "cli.py").read_text())
        forwarders = _calls(tree, "FluentdForwarder")
        assert forwarders, "listen no longer builds a forwarder: move this gate with it"
        for call in forwarders:
            (sink,) = [kw.value for kw in call.keywords if kw.arg == "sink"]
            assert isinstance(sink, ast.Call) and sink.func.id == "classifying_sink"
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("sink", "consume"), node.lineno
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("bulk_index", "set_category"), node.lineno

    def test_the_three_lists_are_trimmed_and_grown_in_one_place_each(self):
        tree = ast.parse((SRC / "stream" / "fluentd.py").read_text())
        (cls,) = [
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FluentdForwarder"
        ]
        growers, trimmers = set(), set()
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend")
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr in ("_buffer", "_partitions", "_offsets", "_ctxs")
                ):
                    growers.add(method.name)
                if isinstance(node, ast.Delete) and any(
                    isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Slice)
                    and isinstance(t.value, ast.Attribute) and t.value.attr == "_buffer"
                    for t in node.targets
                ):
                    trimmers.add(method.name)
        assert growers == {"poll_broker"}
        assert trimmers == {"_retire"}
