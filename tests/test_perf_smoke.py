"""Performance-regression smoke tests.

Counted floors on operations that have quadratic failure modes lurking
nearby (pairwise edit distances, per-document list inserts, per-node
tree scans, heap re-sorts): each counts the work a complexity
regression would multiply — characters read, routing nodes visited,
matrices built, heap operations — on an instrumented double, so the
gate does not move with the machine.  The wall-clock versions these
replaced are ledger rows under ``benchmarks/``, named in each test.
"""

import gc
import math
import re
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import flush_toll
import numpy as np
import pytest
import reference_door
from reference_door import (
    CountedQuota,
    CountedReading,
    CountedReferenceQuota,
    ReferenceDeadLetterQueue,
    ReferenceQuota,
    counted_matches,
    counted_registry,
    reference_safe_parse_line,
)
from reference_textproc import counted
from test_ingest import ScanAllBroker, feed_tcp

from repro.core.message import Severity, SyslogMessage
from repro.core.taxonomy import Category
from repro.durability import StreamJournal, WriteAheadLog
from repro.faults.dlq import DeadLetterQueue
from repro.ingest import DeficitRoundRobin, LogBroker, SyslogListener
from repro.ingest import broker as broker_mod
from repro.ingest.broker import Partition
from repro.obs import MetricsRegistry, NullRegistry, use_registry, wellknown
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder, settle
from repro.stream import rfc as rfc_mod
from repro.stream.opensearch import LogStore, _analyze
from repro.stream.rfc import safe_parse_line
from repro.textproc.drain import DrainTemplateMiner
from repro.textproc.lemmatize import Lemmatizer
from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tfidf import TfidfVectorizer
from repro.textproc.tokenize import Tokenizer


class _ReadCountingStr(str):
    """A ``str`` that counts the characters read from it by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return str.__getitem__(self, index)


class TestScalingSmoke:
    def test_bulk_random_order_indexing_is_linearish(self, monkeypatch):
        """LogStore must not degrade to O(n²) on shuffled bulk loads:
        20,000 shuffled documents sort the time index once, at the first
        ranged query — never per insert — and both queries read it.
        The wall-clock budget this was is ``benchmarks/bench_scaling_smoke.py``."""
        rng = np.random.default_rng(0)
        stamps = rng.uniform(0, 1e6, size=20_000)
        msgs = [
            SyslogMessage(timestamp=float(t), hostname=f"cn{i % 20:03d}",
                          app="kernel", text=f"event {i} code {i * 3}",
                          severity=Severity.INFO)
            for i, t in enumerate(stamps)
        ]
        rebuilds = []
        ensure = LogStore._ensure_time_index

        def counting(self):
            if self._time_dirty:
                rebuilds.append(len(self._times))
            ensure(self)

        monkeypatch.setattr(LogStore, "_ensure_time_index", counting)
        store = LogStore()
        store.bulk_index(msgs)
        assert rebuilds == []
        assert store.time_range(0, 5e5).total == int((stamps < 5e5).sum())
        assert sum(b.count for b in store.date_histogram(interval_s=1000.0)) == 20_000
        assert rebuilds == [20_000]
        assert store._time_sorted == sorted(stamps.tolist())

    def test_banded_levenshtein_faster_than_full(self):
        """The threshold cutoff must actually cut work: on two
        400-character strings with one character multiset (so both
        prefilters pass), the band reads at most 2k+1 characters of
        ``b`` a row, (2k+1)·len(a) in all, where the full table reads
        len(a)·len(b).  The wall-clock ratio this was is
        ``benchmarks/bench_scaling_smoke.py``."""
        from repro.textproc.distance import levenshtein_within

        k = 5
        a = "ab" * 200
        for text, want in (("ba" * 200, 2), ("a" * 200 + "b" * 200, None)):
            b = _ReadCountingStr(text)
            assert levenshtein_within(a, b, k) == want
            assert 0 < b.reads <= (2 * k + 1) * len(a) < len(a) * len(b)

    def test_drain_scales_to_thousands(self, corpus, monkeypatch):
        """Drain's prefix tree must keep a line's candidates few: over the
        corpus a line visits at most ``depth + 1`` routing nodes (its
        length, then one per leading token) and meets 0.88 ``_similarity``
        calls (bounded at twice that), where a tree that routes every
        line into one leaf compares it with every template.  The
        wall-clock budget this was is ``benchmarks/bench_scaling_smoke.py``."""
        visits = [0]

        class CountingNode(dict):
            """A routing node that counts the nodes a line steps into."""

            def setdefault(self, key, default=None):
                if type(default) is dict:
                    if key != "children":
                        visits[0] += 1
                    default = CountingNode()
                return dict.setdefault(self, key, default)

        similarity = DrainTemplateMiner._similarity
        compared = [0]

        def counting_similarity(a, b):
            compared[0] += 1
            return similarity(a, b)

        monkeypatch.setattr(DrainTemplateMiner, "_similarity", staticmethod(counting_similarity))
        miner = DrainTemplateMiner()
        miner._root = CountingNode()
        most = 0
        for text in corpus.texts:
            before = visits[0]
            miner.add(text)
            most = max(most, visits[0] - before)
        assert 0 < most <= miner.depth + 1, most
        assert compared[0] <= 1.8 * len(corpus.texts), compared[0] / len(corpus.texts)

    def test_tfidf_vectorize_thousands(self, corpus, monkeypatch):
        """``fit_transform`` over the corpus builds one ``CsrRows`` and
        analyses each distinct masked text once, however many rows
        there are.  The wall-clock budget this was is
        ``benchmarks/bench_scaling_smoke.py``."""
        from repro.ml.base import CsrRows

        built, analysed = [], []
        init, analyze_masked = CsrRows.__init__, TfidfVectorizer.analyze_masked

        def counting_init(matrix, *args, **kwargs):
            built.append(1)
            init(matrix, *args, **kwargs)

        def counting_analyze_masked(vectorizer, masked):
            masked = list(masked)
            analysed.append(len(masked))
            return analyze_masked(vectorizer, masked)

        monkeypatch.setattr(CsrRows, "__init__", counting_init)
        monkeypatch.setattr(TfidfVectorizer, "analyze_masked", counting_analyze_masked)
        matrix = TfidfVectorizer(max_features=2000).fit_transform(corpus.texts)
        assert matrix.shape[0] == len(corpus.texts)
        assert len(built) == 1
        distinct = len(set(MaskingNormalizer().normalize_many(corpus.texts)))
        assert analysed == [distinct] and distinct < len(corpus.texts), analysed

    def test_event_engine_throughput(self, monkeypatch):
        """50,000 events on 100 distinct times: one ``heappush`` and one
        ``heappop`` an event, and at most 2·log2(n) + 2 ``Event``
        comparisons an event between them (reads 16.2 of 33.2), where a
        queue re-sorted on every schedule pays O(n) — the count stops it
        the moment the budget is spent.  The wall-clock budget this was
        is ``benchmarks/bench_scaling_smoke.py``."""
        import heapq

        from repro.stream import events as events_mod
        from repro.stream.events import Event, EventEngine

        n = 50_000
        budget = (2 * math.log2(n) + 2) * n
        calls = Counter()
        less_than = Event.__lt__

        def counting_lt(a, b):
            calls["compare"] += 1
            assert calls["compare"] <= budget, (
                f"{budget:,.0f} Event comparisons spent after {calls['push']:,} pushes "
                f"and {calls['pop']:,} pops"
            )
            return less_than(a, b)

        def heappush(heap, item):
            calls["push"] += 1
            heapq.heappush(heap, item)

        def heappop(heap):
            calls["pop"] += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(Event, "__lt__", counting_lt)
        monkeypatch.setattr(
            events_mod, "heapq", SimpleNamespace(heappush=heappush, heappop=heappop)
        )
        eng = EventEngine()
        counter = [0]

        def bump():
            counter[0] += 1

        for i in range(n):
            eng.schedule(float(i % 100), bump)
        eng.run()
        assert counter[0] == n
        assert calls["push"] == calls["pop"] == n


def _zipf_draw(corpus, n: int = 15_000) -> list[str]:
    """Zipf-skewed draw over the corpus templates: a few shapes
    dominate, like production syslog."""
    rng = np.random.default_rng(0)
    ranks = np.minimum(rng.zipf(1.3, size=n) - 1, len(corpus) - 1)
    return [corpus.texts[r] for r in ranks]


def _all_unique_lines(n: int = 2_000, tokens: int = 12) -> list[str]:
    rng = np.random.default_rng(0)
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
    return [
        " ".join("".join(alphabet[rng.integers(0, 36, size=8)]) for _ in range(tokens))
        for _ in range(n)
    ]


class TestMaskerFloors:
    """Counted floors on the token-wise masker against the regex chain
    it must equal (14 ``sub`` calls a line): regex calls, memo probes and
    chain runs on an instrumented double, from empty memos.  The
    wall-clock twin is ``benchmarks/bench_runtime_scaling.py::test_text_analysis_lane``."""

    def test_normalize_twice_as_fast_as_chain_on_zipf(self, corpus):
        """Skewed lines: a repeated line shape is one lookup, a repeated
        token or token shape one probe, and only a shape never seen meets
        a regex.  Reads 0.24 ``sub`` calls a line and 0.07 probes a token
        (0.55 and 0.09 while every slot value was its own key); 0.42
        ``sub`` calls with the token memo never consulted, 1.19 with the
        screens dropped, 1.05 probes a token with the recent-lines memo
        gone."""
        lines = _zipf_draw(corpus, 5_000)
        norm = MaskingNormalizer()
        with counted() as counts:
            for line in lines:
                norm.normalize(line)
        n_tokens = sum(len(line.split()) for line in lines)
        assert counts.subs <= 0.35 * len(lines), counts.subs / len(lines)
        assert 0 < counts.memo_probes <= 0.15 * n_tokens, counts.memo_probes / n_tokens

    def test_all_unique_tokens_cost_at_most_a_quarter_more(self):
        """No input may cost materially more than the chain: a token
        never seen is probed once and runs the rules that can match it
        — 3.6 ``sub`` calls on eight random letters and digits, 14 with
        the screens dropped."""
        lines = _all_unique_lines()
        norm = MaskingNormalizer()
        with counted() as counts:
            for line in lines:
                norm.normalize(line)
        n_tokens = sum(len(line.split()) for line in lines)
        assert counts.memo_probes == n_tokens
        assert counts.subs <= 5 * n_tokens, counts.subs / n_tokens

    def test_a_never_seen_slot_value_averages_five_subs_or_fewer(self):
        """Node names, addresses, counters and temperatures in the slots
        of eight templates: a never-seen one pays 3.7 ``sub`` calls, 14
        with the screens dropped (the benchmark's own hot and fleet slot
        values read 2.3 and 2.1 in the text-analysis lane)."""
        lines = [m.text for m in _write_lines(2_000, repeated=True)]
        norm = MaskingNormalizer()
        with counted() as counts:
            for line in lines:
                norm.normalize(line)
        assert counts.unseen_tokens
        assert counts.subs <= 5 * counts.unseen_tokens, counts.subs / counts.unseen_tokens

    def test_never_repeating_number_unit_lines_cost_a_sub_or_less(self):
        """A number and its unit across whitespace: the window they link
        runs the chain once per digit shape, not the whole line once per
        line.  Each line keeps its ``thermal_zone<digit>:`` (so no two
        share a line-memo entry) and carries a count no other line has:
        0.26 ``sub`` calls a line, 16.0 while the line went through the
        chain whole (30 window runs for the 2,000 lines)."""
        lines = [
            f"thermal_zone{n % 7 + 1}: critical temperature reached ({n} C) after {n} polls"
            for n in range(2_000)
        ]
        norm = MaskingNormalizer()
        with counted() as counts:
            for line in lines:
                norm.normalize(line)
        assert counts.subs <= len(lines), counts.subs / len(lines)
        assert 0 < counts.chain_runs <= 0.02 * len(lines), counts.chain_runs

    def test_fresh_slot_values_in_hot_shaped_lines_cost_half_a_sub_or_less(self):
        """The spine's hot lines (Zipf over the 64 templates whose slots
        mask best) after a warm-up: a slot value never seen before is
        answered by its digit shape, so only a shape never seen — a hex
        id, an address of new digit counts — meets a regex.  Reads 0.32
        ``sub`` calls a line; 2.23 while every fresh value was masked."""
        from repro.datagen.templates import TEMPLATES, fill_slots

        norm = MaskingNormalizer()
        rng = np.random.default_rng(12345)
        forms = [len({norm.normalize(fill_slots(t, rng)) for _ in range(48)}) for t in TEMPLATES]
        ranked = sorted(range(len(TEMPLATES)), key=lambda i: (forms[i], i))
        hot = [TEMPLATES[i] for i in sorted(ranked[:64])]
        weights = 1.0 / np.arange(1, len(hot) + 1) ** 1.2
        rng = np.random.default_rng(0)
        picks = rng.choice(len(hot), 6_000, p=weights / weights.sum())
        lines = [fill_slots(hot[p], rng) for p in picks]
        with counted() as counts:
            for line in lines[:3_000]:
                norm.normalize(line)
            warm = counts.subs
            for line in lines[3_000:]:
                norm.normalize(line)
        per_line = (counts.subs - warm) / 3_000
        assert per_line <= 0.5, per_line


class TestTokenizerFloors:
    """One tokenisation per line, one ``_emit`` per distinct piece."""

    def test_a_repeated_vocabulary_emits_under_two_pieces_a_line(self):
        """Never-repeating lines over a small vocabulary (one fresh word
        each): the memo answers every piece but the new ones — 1.5
        ``_emit`` calls a line, 9.25 with the memo never consulted."""
        lines = [m.text for m in _write_lines(2_000, repeated=False)]
        tokenizer = Tokenizer()
        with counted() as counts:
            for line in lines:
                assert tokenizer.tokenize(line)
        assert len(lines) <= counts.emit_calls <= 2 * len(lines), counts.emit_calls / len(lines)

    def test_store_and_classifier_share_one_tokenisation_per_line(self, corpus):
        """``bulk_index`` then ``classify_batch`` over never-repeating
        templates: 1.0 ``tokenize`` calls a line across the two (2.0 when
        the classifier tokenises for itself), on a bare store and behind
        the quorum write."""
        from repro.core.pipeline import ClassificationPipeline
        from repro.core.template_cache import TemplateCache
        from repro.ml import ComplementNB
        from repro.replication import ReplicatedLogStore

        pipe = ClassificationPipeline(classifier=ComplementNB(), template_cache=TemplateCache(4096))
        pipe.fit(corpus.texts, corpus.labels)
        messages = _write_lines(1_500, repeated=False)  # fewer than the memo holds
        for store in (LogStore(), ReplicatedLogStore(**_EVERY_NODE_OWNS_ALL)):
            with counted() as counts:
                for i in range(0, len(messages), 500):
                    batch = messages[i:i + 500]
                    store.bulk_index(batch)
                    pipe.classify_batch([m.text for m in batch])
            assert counts.tokenize_calls == len(messages)
            pipe.template_cache.clear()


class TestLemmatizerFloors:
    def test_a_fresh_word_tests_only_the_rules_its_last_letter_allows(self):
        """33 suffix rules, 16 of them ending in ``s``: a word no rule
        detaches from tests the ones sharing its last letter — 1.3 on
        average over random words, 33 with the screen dropped."""
        rng = np.random.default_rng(0)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        words = ["".join(letters[rng.integers(0, 26, size=9)]) for _ in range(2_000)]
        lemmatizer = Lemmatizer()
        with counted() as counts:
            for word in words:
                lemmatizer.lemmatize(word)
        assert 0 < counts.suffix_tests <= 2 * len(words), counts.suffix_tests / len(words)
        with counted() as counts:
            lemmatizer.lemmatize("zzzzzzzzs")
        assert counts.suffix_tests == 16


def _caught_up_broker(n_partitions: int, depth: int, cls=LogBroker):
    """A broker (live registry, so the lag gauges are computed) whose
    one consumer has polled and committed ``depth`` records on each of
    ``n_partitions`` host partitions."""
    broker = cls(registry=MetricsRegistry())
    hosts = [f"cn{i:04d}" for i in range(n_partitions)]
    msg = SyslogMessage(timestamp=0.0, hostname="cn", app="kernel", text="link up")
    for _ in range(depth):
        for host in hosts:
            broker.publish(msg, key=host)
    while records := broker.poll("g", max_records=4096):
        for rec in records:
            broker.commit("g", rec.partition, rec.offset + 1)
    assert broker.lag("g") == 0
    return broker, hosts, msg


class _Visits:
    """Partitions and records a broker call visits, on either broker.

    ``LogBroker`` visits a partition per ``Partition.read_into`` or
    ``Partition.pub_s_at`` and a record per bisection probe or record
    returned; ``ScanAllBroker`` (the oracle in ``test_ingest.py``) a
    partition per ``_scan`` and a record per record the scan walks.
    """

    def __init__(self, monkeypatch) -> None:
        self.partitions = self.records = 0
        read_into, pub_s_at = Partition.read_into, Partition.pub_s_at
        bisect, scan = broker_mod.bisect_left, ScanAllBroker._scan

        def counted_read_into(part, batch, offset, max_records):
            self.partitions += 1
            n = read_into(part, batch, offset, max_records)
            self.records += n
            return n

        def counted_pub_s_at(part, offset):
            self.partitions += 1
            pub_s = pub_s_at(part, offset)
            self.records += pub_s is not None
            return pub_s

        def probe(item):
            self.records += 1
            return item

        def probing_bisect(column, x, lo=0, hi=None):
            return bisect(column, x, lo, len(column) if hi is None else hi, key=probe)

        def counted_scan(part, offset, max_records):
            self.partitions += 1
            out = scan(part, offset, max_records)
            # the scan walks from the first record to the last it returns,
            # or to the end when it returns less than it may
            self.records += len(part) if len(out) < max_records else sum(
                1 for seg in (*part._sealed, part._active) for r in seg
                if r.offset <= out[-1].offset
            )
            return out

        monkeypatch.setattr(Partition, "read_into", counted_read_into)
        monkeypatch.setattr(Partition, "pub_s_at", counted_pub_s_at)
        monkeypatch.setattr(broker_mod, "bisect_left", probing_bisect)
        monkeypatch.setattr(ScanAllBroker, "_scan", staticmethod(counted_scan))

    def of(self, call) -> tuple[int, int]:
        """(partitions, records) visited by ``call()``."""
        self.partitions = self.records = 0
        call()
        return self.partitions, self.records


class TestBrokerPollFloors:
    """A poll costs what it returns — not what the partitions retain,
    and not how many of them there are.  Counted: partitions and records
    a poll visits, beside the scan it replaced.  The wall-clock ratios
    these were are ``benchmarks/bench_ingest_broker.py::TestBrokerPollFloors``."""

    def test_empty_poll_is_blind_to_retained_history(self, monkeypatch):
        """A caught-up consumer over 200 partitions: an empty poll visits
        no partition and no record at 20 or 2,000 records a partition;
        the scan visits all 200 and walks every retained record."""
        visits = _Visits(monkeypatch)
        for cls, depths, want in (
            (LogBroker, (20, 2_000), lambda depth: (0, 0)),
            (ScanAllBroker, (20, 200), lambda depth: (200, 200 * depth)),
        ):
            for depth in depths:
                broker = _caught_up_broker(200, depth, cls)[0]
                polled = []
                assert visits.of(lambda: polled.extend(broker.poll("g"))) == want(depth)
                assert polled == []

    def test_small_poll_is_blind_to_partition_count(self, monkeypatch):
        """Three records published on three of 50 or 1,000 caught-up
        partitions: the poll and its commits visit the same partitions
        and records at either size — the three it reads and the three
        heads the lag-age refresh reads, 24 records between them — while
        the scan visits every partition."""
        visits = _Visits(monkeypatch)
        seen = {}
        for cls in (LogBroker, ScanAllBroker):
            for n in (50, 1_000):
                broker, hosts, msg = _caught_up_broker(n, 5, cls)
                for k in range(3):
                    broker.publish(msg, key=hosts[7 * k])

                def poll_and_commit():
                    records = broker.poll("g")
                    for rec in records:
                        broker.commit("g", rec.partition, rec.offset + 1)
                    assert len(records) == 3

                seen[cls, n] = visits.of(poll_and_commit)
        assert seen[LogBroker, 50] == seen[LogBroker, 1_000] == (6, 24)
        for n in (50, 1_000):
            assert seen[ScanAllBroker, n][0] >= n
            assert seen[ScanAllBroker, n][1] >= 5 * n


class _CountingLock:
    """A broker's lock that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class _Calls:
    """Forwards to ``inner``, counting method calls by name."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls: Counter = Counter()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted_call(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted_call


def _host_lines(n: int, hosts: int) -> list[SyslogMessage]:
    return [
        SyslogMessage(100.0 + i, f"cn{i % hosts:03d}", "kernel", f"link {i} up")
        for i in range(n)
    ]


class TestHandOffFloors:
    """A record is handed from layer to layer a batch at a time: one
    broker call and one lock per TCP chunk, one journal call per poll,
    one commit call and one lock per flush — each where the per-line
    hand-off made one per line, record or partition."""

    def test_a_tcp_chunk_is_one_publish_call_and_one_lock(self):
        """200 lines over 7 hosts read 1,024 bytes at a time: a publish
        for each chunk that completes a line (the per-line path made 200)."""
        stream = b"".join(m.to_rfc5424().encode() + b"\n" for m in _host_lines(200, 7))
        broker = LogBroker(registry=MetricsRegistry())
        broker._lock = lock = _CountingLock()
        calls = _Calls(broker)
        listener = SyslogListener(calls, udp_port=None, tcp_port=None)
        feed_tcp(listener, stream, 1024)
        chunks = sum(1 for i in range(0, len(stream), 1024) if b"\n" in stream[i:i + 1024])
        assert listener.stats.accepted == broker.stats.published == 200
        assert calls.calls == {"publish_many": chunks}
        assert lock.acquired == chunks < 200 / 10

    def test_a_poll_is_one_journal_call_and_a_flush_one_commit(self, tmp_path):
        """300 records over 9 partitions, polled and flushed as one batch:
        one ``accept_many`` for the poll, one ``commit_many`` and one lock
        for the flush's nine partitions (the per-record path made 300
        accepts and nine commits)."""
        with use_registry(MetricsRegistry()):
            broker = LogBroker(registry=MetricsRegistry())
            for message in _host_lines(300, 9):
                broker.publish(message)
            wal = WriteAheadLog(tmp_path, registry=MetricsRegistry())
            journal, consumer = _Calls(StreamJournal(wal)), _Calls(broker)
            fwd = FluentdForwarder(
                engine=EventEngine(), sink=lambda batch: True, broker=consumer,
                journal=journal, batch_size=1_000,
            )
            assert fwd.poll_broker() == 300
            assert journal.calls == {"accept_many": 1}
            broker._lock = lock = _CountingLock()
            assert fwd.flush() == 300
            wal.close()
        assert journal.calls == {"accept_many": 1, "flushed": 1}
        assert consumer.calls == {"subscribe": 1, "poll": 1, "commit_many": 1}
        assert lock.acquired == 1
        assert broker.stats.commits == 9 and broker.lag(fwd.consumer_group) == 0


def _write_lines(n: int, *, repeated: bool) -> list[SyslogMessage]:
    """``n`` messages of eight templates that mask to the same text on
    every line, or ``n`` that each carry a word no other line has."""
    templates = [
        "usb {i}-1: new high-speed USB device number {i} using xhci_hcd",
        "Accepted publickey for user{i} from 10.0.{i}.9 port 4{i}",
        "launch task {i}.0 request from UID {i}",
        "[Hardware Error]: Machine check events logged on CPU {i}",
        "thermal_zone{i}: critical temperature reached ({i} C)",
        "job {i} started on partition batch with {i} tasks",
        "link eth{i} is up at {i} Mbps full duplex",
        "mounted filesystem with ordered data mode on nvme{i}",
    ]
    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    out = []
    for i in range(n):
        text = templates[i % len(templates)].format(i=i % 97)
        if not repeated:
            text += " " + "".join(letters[rng.integers(0, 26, size=9)])
        out.append(SyslogMessage(
            timestamp=float(i), hostname=f"cn{i % 24:03d}", app="kernel", text=text,
        ))
    return out


#: the spine benchmark's placement: every node owns every shard, so an
#: owner's run is the batch itself
_EVERY_NODE_OWNS_ALL = dict(n_nodes=3, n_shards=6, n_replicas=2)
#: the paper's shape: a node owns a third of the shards, so its run is
#: cut out of the batch's columns
_A_NODE_OWNS_A_THIRD = dict(n_nodes=6, n_shards=6, n_replicas=1, write_quorum=1)


def _owner_calls(monkeypatch, messages, batch: int, placement):
    """Write ``messages`` ``batch`` at a time onto a fresh
    ``ReplicatedLogStore`` at ``placement``, counting the calls each batch
    makes; asserts them against the placement.  Returns the store.

    Per batch: one ``StoreNode.put_many`` per owner of a shard the batch
    has rows on, no ``StoreNode.put``, and one ``LogStore.index_many``
    per node acting primary for one of those shards.  Counting starts
    once the store is built (building it indexes on its own)."""
    from repro.replication import ReplicatedLogStore, StoreNode

    store = ReplicatedLogStore(registry=MetricsRegistry(), **placement)
    calls: Counter = Counter()
    for cls, name in ((StoreNode, "put_many"), (StoreNode, "put"), (LogStore, "index_many")):
        def counting(self, *args, _call=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    n_shards = store.n_shards
    for first in range(0, len(messages), batch):
        rows = messages[first:first + batch]
        shards = {(first + i) % n_shards for i in range(len(rows))}
        owners = {node for shard in shards for node in store.placement.owners(shard)}
        primaries = [node for node in store.nodes if node.primary_shards & shards]
        calls.clear()
        store.bulk_index(rows)
        assert calls == {"put_many": len(owners), "index_many": len(primaries)}, (
            f"batch at {first}: {dict(calls)} for {len(owners)} owners, "
            f"{len(primaries)} acting primaries"
        )
    assert len(store) == len(messages)
    return store


def _plans_built(store) -> list[tuple[int, int, int]]:
    """Per node: template plans built, distinct token tuples and
    documents in its search index."""
    out = []
    for node in store.nodes:
        index = node.search_index
        tuples = {_analyze(m.text) for m in index._messages}
        out.append((sum(1 for plan in index._plans.values() if plan), len(tuples), len(index)))
    return out


def _assert_a_plan_per_template(store) -> None:
    """Repeated text earns plans, at most one per token tuple and so
    fewer than one per document."""
    for plans, tuples, docs in _plans_built(store):
        assert 0 < plans <= tuples < docs, f"{plans} plans, {tuples} tuples, {docs} documents"


class TestStoreWriteFloors:
    """One write per owner: a batch reaches each owner of its shards in
    one ``put_many`` and each acting primary's index in one
    ``index_many``, never a ``put`` per document; and a template earns
    its plan on second sight only.  Calls counted, no clock; the
    wall-clock ratios these gates were live in
    ``benchmarks/bench_replication_overhead.py::TestStoreWriteFloors``."""

    def test_repeated_templates_in_full_batches_are_a_fifth_faster(self, monkeypatch):
        """Every node owns every shard: 8 batches of 500 are 24 owner
        calls and 24 index calls.  Eight templates over 97 slot values
        earn at most a plan per token tuple (77 of 104 on a node), not
        one per document (1,333)."""
        store = _owner_calls(monkeypatch, _write_lines(4_000, repeated=True), 500,
                             _EVERY_NODE_OWNS_ALL)
        _assert_a_plan_per_template(store)

    def test_never_repeating_templates_cost_no_more(self, monkeypatch):
        """Text that never repeats earns no plan, at either placement."""
        lines = _write_lines(4_000, repeated=False)
        for placement in (_EVERY_NODE_OWNS_ALL, _A_NODE_OWNS_A_THIRD):
            store = _owner_calls(monkeypatch, lines, 500, placement)
            assert [plans for plans, _t, _d in _plans_built(store)] == [0] * len(store.nodes)

    def test_a_three_document_batch_is_no_slower(self, monkeypatch):
        """The paced regime flushes a handful of lines at a time: a
        3-document batch is still one call per owner, not one per row."""
        store = _owner_calls(monkeypatch, _write_lines(2_400, repeated=True), 3,
                             _EVERY_NODE_OWNS_ALL)
        _assert_a_plan_per_template(store)

    def test_cut_out_runs_in_full_batches_are_a_fifth_faster(self, monkeypatch):
        """A node owns a third of the shards, so its run is cut out of the
        batch's columns: 8 batches of 500 reach all six nodes, 48 owner
        calls, each a node's whole run."""
        store = _owner_calls(monkeypatch, _write_lines(4_000, repeated=True), 500,
                             _A_NODE_OWNS_A_THIRD)
        _assert_a_plan_per_template(store)

    def test_cut_out_runs_of_a_three_document_batch_have_a_bounded_cost(self, monkeypatch):
        """Three documents over six nodes reach the owners of three
        shards with one or two rows each: still a call per owner."""
        store = _owner_calls(monkeypatch, _write_lines(2_400, repeated=True), 3,
                             _A_NODE_OWNS_A_THIRD)
        _assert_a_plan_per_template(store)


def _filled(cls, n: int):
    """A 3-node RF-3 store of class ``cls`` holding ``n`` documents, one
    per second of log time, written 500 at a time."""
    store = cls(registry=MetricsRegistry(), **_EVERY_NODE_OWNS_ALL)
    lines = _write_lines(n, repeated=True)
    for i in range(0, n, 500):
        store.bulk_index(lines[i:i + 500])
    return store


def _rows_read(monkeypatch) -> list[int]:
    """From here on, count the rows every query hands ``LogStore._column``
    (the count-only path every aggregation reads through) in ``[0]``."""
    rows = [0]
    column = LogStore._column

    def counting(self, ids, categories=False):
        ids = list(ids)
        rows[0] += len(ids)
        return column(self, ids, categories)

    monkeypatch.setattr(LogStore, "_column", counting)
    return rows


class TestStoreQueryFloors:
    """One query engine: a ranged dashboard query on the replicated store
    reads its window, not the store, and an un-ranged one reads each
    document once.  Rows counted, no clock; the wall-clock ratios these
    gates were live in ``benchmarks/bench_replication_overhead.py::
    TestStoreQueryFloors``."""

    def test_a_ranged_aggregation_is_blind_to_the_documents_outside_it(self, monkeypatch):
        """The newest 1,000 documents of 30,000 and the newest 1,000 of
        3,000 are 1,000 rows each.  A scan of the whole store filtered by
        time reads 30,000 against 3,000."""
        from repro.replication import ReplicatedLogStore

        big, small = _filled(ReplicatedLogStore, 30_000), _filled(ReplicatedLogStore, 3_000)
        rows = _rows_read(monkeypatch)
        for store, t0 in ((big, 29_000.0), (small, 2_000.0)):
            store.severity_histogram(t0=t0)  # warm-up: sorts the time index
            rows[0] = 0
            assert sum(store.severity_histogram(t0=t0).values()) == 1_000
            assert rows[0] == 1_000, f"a 1,000-document window read {rows[0]:,} rows"

    def test_an_unranged_aggregation_costs_no_more_than_the_scan(self, monkeypatch):
        """Every document is read once, on its acting primary: 10,000 rows
        for 10,000 documents held three times over.  The scan it replaced
        (``PerDocStore``) reads one copy per document too, so the engine
        must not read more."""
        from perdoc_store import PerDocNode, PerDocStore
        from repro.replication import ReplicatedLogStore

        engine, scan = _filled(ReplicatedLogStore, 10_000), _filled(PerDocStore, 10_000)
        assert sorted(engine.terms_aggregation("hostname", top=24)) == sorted(
            scan.terms_aggregation("hostname", top=24)  # all 24 hosts: no cut among ties
        )
        copies = Counter()
        copy_of = PerDocNode.copy_of

        def counting(self, doc_id):
            copies["read"] += 1
            return copy_of(self, doc_id)

        monkeypatch.setattr(PerDocNode, "copy_of", counting)
        scan.terms_aggregation("hostname")
        rows = _rows_read(monkeypatch)
        engine.terms_aggregation("hostname")
        assert rows[0] == 10_000, f"terms_aggregation read {rows[0]:,} rows"
        assert rows[0] <= copies["read"]


def _tracked_per_line(store_cls, n: int = 2_000) -> tuple[float, object]:
    """Collector-tracked objects left behind per line by ``n`` lines pushed
    through ``classifying_sink`` onto a 3-node RF-3 store of ``store_cls``
    — the lines themselves included, one ``SyslogMessage`` each.  One
    template on 24 hosts: after the first batch every posting list and
    every index's plan exists, so what grows is what a line costs."""
    from perdoc_store import OneVerdict
    from repro.stream.fluentd import classifying_sink

    def lines(first: int, count: int) -> list[SyslogMessage]:
        return [
            SyslogMessage(timestamp=float(i), hostname=f"cn{i % 24:03d}", app="kernel",
                          text=f"job {i} started on partition batch with {i % 7} tasks")
            for i in range(first, first + count)
        ]

    store = store_cls(registry=MetricsRegistry(), **_EVERY_NODE_OWNS_ALL)
    sink = classifying_sink(store, OneVerdict())
    sink(lines(0, 100))
    gc.collect()
    before = len(gc.get_objects())
    for first in range(100, 100 + n, 500):
        assert sink(lines(first, 500))
    gc.collect()
    return (len(gc.get_objects()) - before) / n, store


def _constructions(monkeypatch, *classes) -> list:
    """Count every construction of ``classes`` from here on: the list
    grows by one class per instance built."""
    built = []
    for cls in classes:
        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestStoreHeapFloors:
    """A stored line is rows, not objects: what the quorum write leaves
    on the heap, and what the read side builds, as counts.  No clock."""

    def test_a_stored_line_leaves_its_message_and_nothing_else(self):
        """The cyclic collector re-walks every tracked object that
        survives, so the floor is on how many a line leaves: its
        ``SyslogMessage``, plus the columns' and postings' growth
        (a handful of lists for the whole run).  The per-document store
        this replaced leaves five: three ``VersionedDoc``, one
        ``LogDocument``, the message."""
        from perdoc_store import PerDocStore
        from repro.replication import ReplicatedLogStore, VersionedDoc
        from repro.stream.opensearch import LogDocument

        per_line, store = _tracked_per_line(ReplicatedLogStore)
        kept = [o for o in gc.get_objects() if isinstance(o, (VersionedDoc, LogDocument))]
        assert not kept, f"{len(kept)} documents retained, e.g. {kept[0]!r}"
        assert per_line <= 1.2, f"{per_line:.2f} tracked objects per stored line"
        assert len(store) == 2_100
        del store
        was, _store = _tracked_per_line(PerDocStore)
        assert was >= 4.8, f"the per-document store reads {was:.2f}: the census is blind"

    def test_the_write_path_builds_no_document(self, monkeypatch):
        """Not retained is not enough: ``set_category`` rebuilding a
        ``LogDocument`` per label would cost what retaining it did."""
        from repro.replication import ReplicatedLogStore, VersionedDoc
        from repro.stream.opensearch import LogDocument

        built = _constructions(monkeypatch, VersionedDoc, LogDocument)
        _tracked_per_line(ReplicatedLogStore, n=600)
        bare, lines = LogStore(), _write_lines(600, repeated=True)
        bare.bulk_index(lines)
        for doc_id in range(600):
            bare.set_category(doc_id, Category.UNIMPORTANT)
        assert built == []

    def test_an_aggregation_builds_no_document(self, monkeypatch):
        """The count-only queries read the column they count — ranged or
        not, on either store; a document query builds the hits it returns."""
        from repro.replication import ReplicatedLogStore, VersionedDoc
        from repro.stream.opensearch import LogDocument

        stores = [_filled(ReplicatedLogStore, 3_000), LogStore()]
        stores[1].bulk_index(_write_lines(3_000, repeated=True))
        built = _constructions(monkeypatch, VersionedDoc, LogDocument)
        for store in stores:
            store.set_category(7, Category.UNIMPORTANT)
            for window in ({}, {"t0": 1_000.0, "t1": 2_000.0}):
                assert sum(n for _host, n in store.terms_aggregation("hostname", top=99, **window))
                assert store.terms_aggregation("category") == [(Category.UNIMPORTANT.value, 1)]
                assert store.severity_histogram(**window)
                assert store.date_histogram(interval_s=60.0, **window)
            assert built == []
            assert store.term_query("cn007", limit=5).total == 125
            assert built == [LogDocument] * 5  # hits are counted, then cut, then built
            del built[:]

    def test_the_collector_is_not_tuned(self):
        """The gain is fewer objects, never a collector switched off."""
        src = Path(__file__).resolve().parent.parent / "src"
        tuned = [
            f"{path.relative_to(src)}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for line in path.read_text().splitlines()
            if re.search(r"gc\.(disable|freeze|set_threshold)", line)
        ]
        assert not tuned, tuned


def _handed_off_per_line(broker_cls, wal_dir, n: int = 2_000) -> tuple[float, object]:
    """Collector-tracked objects left behind per line by ``n`` lines
    through the hand-off — the listener's TCP protocol fed 4 KiB chunks,
    a ``broker_cls`` broker, ``FluentdForwarder.poll_broker``/``flush``
    journaling into a ``StreamJournal`` on an ``fsync="off"`` WAL, into a
    sink that keeps nothing — the lines themselves included, one
    ``SyslogMessage`` each.  100 lines first, so every partition and
    the journal's columns exist before the count."""

    def stream(first: int, count: int) -> bytes:
        return b"".join(
            m.to_rfc5424().encode() + b"\n" for m in _host_lines(first + count, 24)[first:]
        )

    registry = MetricsRegistry()
    with use_registry(registry):
        broker = broker_cls(registry=registry)
        listener = SyslogListener(broker, udp_port=None, tcp_port=None)
        wal = WriteAheadLog(wal_dir, fsync="off", registry=registry)
        fwd = FluentdForwarder(
            engine=EventEngine(), sink=lambda batch: True, broker=broker,
            journal=StreamJournal(wal), batch_size=500,
        )

        def hand_off(data: bytes) -> None:
            feed_tcp(listener, data, 4096)
            settle([fwd])

        warm, lines = stream(0, 100), stream(100, n)
        hand_off(warm)
        gc.collect()
        before = len(gc.get_objects())
        hand_off(lines)
        gc.collect()
        per_line = (len(gc.get_objects()) - before) / n
        wal.close()
    assert fwd.stats.flushed_messages == listener.stats.accepted == n + 100
    return per_line, broker


class TestHandOffHeapFloors:
    """A line is one object from the socket to the store: the broker's
    partitions and the journal keep columns, so what the hand-off leaves
    on the heap is the line's ``SyslogMessage``.  Counted, no clock."""

    def test_a_handed_off_line_leaves_its_message_and_nothing_else(self, tmp_path):
        """The cyclic collector re-walks every tracked object that
        survives: a record object per message in the broker, or an
        (event, message) pair in the journal, is a second and a third.
        The oracle broker keeps a ``BrokerRecord`` a message, and the
        census must see it."""
        per_line, broker = _handed_off_per_line(LogBroker, tmp_path / "columns")
        assert per_line <= 1.1, f"{per_line:.2f} tracked objects per handed-off line"
        assert broker.total_records() == 2_100
        was, _broker = _handed_off_per_line(ScanAllBroker, tmp_path / "records")
        assert was >= 1.9, f"a record per message reads {was:.2f}: the census is blind"

    def test_the_forwarder_path_builds_no_broker_record(self, tmp_path, monkeypatch):
        """Not retained is not enough: a poll that built a record per row
        and dropped it would still cost the construction."""
        from repro.ingest.broker import BrokerRecord

        built = _constructions(monkeypatch, BrokerRecord)
        _handed_off_per_line(LogBroker, tmp_path, n=600)
        assert built == []


class _Readings:
    """A clock whose every reading is distinct and counts the
    comparisons made with it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> CountedReading:
        self.now += 0.001
        return CountedReading(self.now)


class TestFrontDoorFloors:
    """What a line costs at the door, stated as counts on instrumented
    doubles (``tests/reference_door.py``) — deficit-table visits per
    deal, last-seen comparisons per eviction, family and label
    resolutions per dead letter, regex matches per line — each beside
    the count the replaced code reads."""

    #: the spine benchmark's quota: 211 tenants would share a burst of 2000
    TENANTS = [f"host{i:03d}/app" for i in range(211)]

    def _drain_one_tenant(self, quota_cls):
        quota = quota_cls(1e8, 2e3, max_tenants=4096, clock=_Readings())
        for tenant in self.TENANTS:
            quota.allow(tenant)
        del quota.deals[:]
        for _ in range(40):  # one tenant sends (the last seen: under the cap of 211)
            assert quota.allow(self.TENANTS[-1])  # ... and the refill is instant
        return quota.deals

    def test_a_deal_visits_each_tenant_once_and_then_only_the_takers(self):
        deals = self._drain_one_tenant(CountedQuota)
        assert len(deals) >= 3
        for tenants, grants, visits in deals:
            assert grants >= 1
            assert visits <= tenants + grants, (tenants, grants, visits)
        # the double sees what the floor is about: the replaced loop
        # walked the whole ring once per quantum the drained tenant took
        old = self._drain_one_tenant(CountedReferenceQuota)
        assert [d[:2] for d in old] == [d[:2] for d in deals]
        assert all(visits > 5 * tenants for tenants, _grants, visits in old)

    def test_a_scarce_deal_walks_no_further_than_the_tenant_it_grants(self):
        """The throttled door: one token a second and a drained tenant
        asking every second, so each deal has one quantum to hand to the
        head of the ring.  That is one visit — two when the head is the
        first-seen tenant, still over the cap from the one-time burst —
        not a pass over all 211 to learn who could have taken."""
        def scarce_deals(quota_cls):
            now = [0.0]
            quota = quota_cls(1.0, 2e3, max_tenants=4096, clock=lambda: now[0])
            for tenant in self.TENANTS:  # the first takes the burst, the rest find it dry
                quota.allow(tenant)
            del quota.deals[:]
            admitted = 0
            for _ in range(500):
                now[0] += 1.0
                admitted += quota.allow(self.TENANTS[-1])
            return quota.deals, admitted

        deals, admitted = scarce_deals(CountedQuota)
        assert 1 <= admitted <= 4 and len(deals) >= 490  # its turn comes once a lap
        for tenants, grants, visits in deals:
            assert (tenants, grants) == (211, 1)
            assert visits <= 2, visits
        old, old_admitted = scarce_deals(CountedReferenceQuota)
        assert old_admitted == admitted and [d[:2] for d in old] == [d[:2] for d in deals]
        # never dearer than the loop it replaced (which read the deficit
        # again to grant: one more read per grant on this double)
        assert all(new[2] <= was[2] - was[1] for new, was in zip(deals, old))

    def test_where_a_deal_leaves_the_ring_decides_a_later_scarce_one(self):
        """Three tenants, one token a second: ``b`` takes the first
        scarce token, which leaves the ring at ``c`` — so the next one is
        ``c``'s, and ``b`` (asking) is refused.  A ring left where the
        deal found it would hand ``b`` both."""
        for quota_cls in (DeficitRoundRobin, ReferenceQuota):
            now = [0.0]
            quota = quota_cls(1.0, 3.0, clock=lambda: now[0])
            assert quota.allow("a")  # a lone tenant takes the whole burst
            assert not quota.allow("b") and not quota.allow("c")
            now[0] += 1.0
            assert quota.allow("b")
            assert list(quota._ring) == ["c", "a", "b"]
            now[0] += 1.0
            assert not quota.allow("b")
            assert quota.snapshot() == {"a": 2.0, "b": 0.0, "c": 1.0}
            assert list(quota._ring) == ["a", "b", "c"]
            # nobody can take (a is over the new cap, the pool is dry): unmoved
            assert quota.allow("c") and not quota.allow("c")
            assert list(quota._ring) == ["a", "b", "c"]

    def test_an_eviction_reads_the_least_recently_seen_tenant(self):
        """One spoofed hostname per line at the benchmark's
        ``max_tenants``: the victim is read off the recency order, not
        searched for over 4,096 tenants."""
        n = 4096
        quota = DeficitRoundRobin(1e8, 2e3, max_tenants=n, clock=_Readings())
        for i in range(n):
            quota.allow(f"spoof{i}")
        quota.allow("spoof0")  # seen again: no longer the oldest
        CountedReading.comparisons = 0
        for i in range(200):
            quota.allow(f"fresh{i}")
        assert CountedReading.comparisons <= 2 * 200
        assert len(quota) == n
        assert "spoof0" in quota.snapshot() and "spoof1" not in quota.snapshot()
        assert "spoof200" not in quota.snapshot() and "spoof201" in quota.snapshot()
        old = ReferenceQuota(1e8, 2e3, max_tenants=64, clock=_Readings())
        for i in range(64):
            old.allow(f"spoof{i}")
        CountedReading.comparisons = 0
        old.allow("fresh")
        assert CountedReading.comparisons >= 63  # the scan the double exists to see

    def test_a_dead_letter_after_the_first_resolves_no_family_and_no_label(self):
        for cap in (3, None):
            with counted_registry() as calls:
                queue = DeadLetterQueue(max_entries=cap, registry=MetricsRegistry())
                warm = (calls.get_or_creates, calls.labels)
                # both families bound at construction: the eviction
                # counter's one child, the per-site children read off
                # the queue's own counts
                assert warm == (2, 1)
                for i in range(5):  # first capture per site, first eviction
                    queue.push("ingest.parse" if i % 2 else "ingest.publish", i, "e")
                for i in range(50):
                    queue.push("ingest.parse" if i % 2 else "ingest.publish", i, "e", k=i)
                for entry in queue.entries()[-2:]:  # a re-capture of a captured entry
                    queue.push(entry.site, entry.payload, entry.error, **entry.context)
                assert (calls.get_or_creates, calls.labels) == warm
                assert queue.n_evicted == (54 if cap else 0)
                old = ReferenceDeadLetterQueue(max_entries=cap, registry=MetricsRegistry())
                old.push("ingest.parse", 0, "e")
                before = calls.get_or_creates + calls.labels
                old.push("ingest.parse", 1, "e")
                assert calls.get_or_creates + calls.labels - before >= 2

    _ACCEPTED = [
        f"<13>Feb  1 00:00:07 cn{i:03d} app[{i}]: link up" if i % 2
        else f"<13>1 2023-02-01T00:00:07Z cn{i:03d} app {i} - - link up"
        for i in range(40)
    ]
    _REJECTED = [
        b"<999>Feb  1 00:00:07 cn001 app: x", b"\xf3\x9a\x81\xe9 no line at all",
        b"<13>Feb  1\xe2\x82", b"<13>Feb  1 77:88:99 cn001 app: x",
        b"<13>1 2023-02-01T77:88:99Z cn001 app - - x", b"<13>1 yesterday cn001 app - - x",
        b"<13>Foo  1 00:00:07 cn001 app: x", b"<13>Feb 31 00:00:07 cn001 app: x", b"<13>",
    ]

    def test_a_line_on_a_repeated_second_is_read_in_one_match(self):
        rfc_mod._STAMPS.clear()
        for line in self._ACCEPTED[:2]:  # first sight of the second, each grammar
            assert safe_parse_line(line)[0] is not None
        with counted_matches() as calls:
            for line in self._ACCEPTED:
                assert safe_parse_line(line)[0] is not None
        assert calls.matches <= 2 * len(self._ACCEPTED)
        assert calls.matches == len(self._ACCEPTED)
        with counted_matches(reference_door) as old:
            for line in self._ACCEPTED:
                assert reference_safe_parse_line(line)[0] is not None
        assert old.matches == 3 * len(self._ACCEPTED)

    def test_a_first_seen_second_costs_at_most_one_more_match(self):
        rfc_mod._STAMPS.clear()
        with counted_matches() as calls:
            for line in self._ACCEPTED[:2]:
                assert safe_parse_line(line)[0] is not None
        assert calls.matches == 3  # 3164: the line; 5424: the line and its stamp

    def test_a_refused_line_costs_no_more_matches_than_it_did(self):
        for raw in self._REJECTED:
            rfc_mod._STAMPS.clear()
            for _sight in range(2):  # refused again: an invalid stamp is never kept
                with counted_matches() as calls:
                    assert safe_parse_line(raw)[0] is None
                with counted_matches(reference_door) as old:
                    assert reference_safe_parse_line(raw) == safe_parse_line(raw)
                assert calls.matches <= min(old.matches, 2), raw
            assert not rfc_mod._STAMPS


class TestWellknownAccessorFloor:
    """A catalogue accessor is a thin get-or-create: hot paths call a
    dozen of them per classified batch.  Counted on
    ``reference_door.counted_registry``; the wall-clock ratio this
    replaced (≤ 1.5× a direct ``registry.counter`` call) is a ledger row
    in ``benchmarks/bench_obs_overhead.py`` (``BENCH_wellknown_accessor_floor.json``)."""

    def test_a_call_is_one_get_or_create_and_no_label_bind(self):
        registry = MetricsRegistry()
        family = next(f for f in wellknown.CATALOGUE if f.accessor is wellknown.broker_polled)
        with counted_registry() as calls:
            for _ in range(2_000):
                wellknown.broker_polled(registry)
        assert (calls.get_or_creates, calls.labels) == (2_000, 0)
        direct = registry.counter(family.name, family.help, family.labels)
        assert wellknown.broker_polled(registry) is direct

    def test_null_registry_gets_the_shared_null_metric(self):
        null = NullRegistry()
        assert wellknown.broker_lag(null) is null.gauge("anything")
        assert wellknown.stage_seconds(null) is null.histogram("anything")

    def test_accessors_say_what_they_are(self):
        assert wellknown.broker_lag.__name__ == "broker_lag"
        assert wellknown.broker_lag.__qualname__ == "broker_lag"
        for family in wellknown.CATALOGUE:
            doc = family.accessor.__doc__
            assert doc.startswith(family.kind.capitalize()), family.name
            assert family.name in doc and family.help in doc


class TestSmallBatchFloors:
    """A trickle flushes one to three lines at a time, so what a batch
    costs before its first row is what the paced regime pays per line.
    Counted, not timed: the weighting builds one CSR matrix a call, and
    the batch's metric binds — zero family get-or-creates and zero
    ``labels()`` per steady one-line batch — are counted by
    ``tests/test_obs.py::TestBindOnce``.  The wall-clock ratios these
    counts replace are ledger rows in
    ``benchmarks/bench_runtime_scaling.py::TestSmallBatchFloors``."""

    def test_a_one_row_transform_builds_one_csr_matrix(self, split, corpus, monkeypatch):
        """Weighting at array level against the implementation it
        replaced, kept in ``reference_tfidf.py``: one ``CsrRows`` a row
        and no ``csr_matrix``, against seven ``csr_matrix``."""
        import scipy.sparse as sp
        from reference_tfidf import reference_transform_analyzed

        from repro.ml.base import CsrRows

        vec = split[4]
        rows = [[doc] for doc in vec.analyze_batch(corpus.texts[:60])]
        built: list[int] = []
        matrices: list[int] = []

        def counting(cls, into):
            init = cls.__init__

            def counting_init(matrix, *args, **kwargs):
                into.append(1)
                init(matrix, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        counting(CsrRows, built)
        counting(sp.csr_matrix, matrices)

        def per_row(transform, counted) -> list[int]:
            counts = []
            for row in rows:
                counted.clear()
                transform(row)
                counts.append(len(counted))
            return counts

        assert per_row(vec.transform_analyzed, built) == [1] * len(rows)
        assert per_row(vec.transform_analyzed, matrices) == [0] * len(rows)
        assert min(per_row(lambda row: reference_transform_analyzed(vec, row), matrices)) > 1


class TestTemplateCacheSpeedup:
    def test_cached_beats_uncached_on_zipf_batch(self, corpus):
        """Counted, not timed: with the cache attached the model stage is
        handed exactly the rows whose masked template the cache does not
        hold yet — none at all once the batch's templates are in — and
        every row without it, results equal throughout.  A cache whose
        ``get`` always misses sends every row through and is red here.

        The pipeline does not dedup inside a batch (a cold batch's repeats
        all miss, and ``TemplateCache.stats()`` counts them so), so the
        cold fill arrives in slices, as a stream does.  The wall-clock
        twin is ``benchmarks/bench_runtime_scaling.py::test_template_cache_matrix``.
        """
        from repro.core.pipeline import ClassificationPipeline
        from repro.core.template_cache import TemplateCache
        from repro.ml import ComplementNB

        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        msgs = _zipf_draw(corpus)
        keys = pipe._template_keys(msgs)

        rows: list[int] = []
        model_stage = pipe._model_stage

        def counted(model_texts, stage_keys=None):
            rows.append(len(model_texts))
            return model_stage(model_texts, stage_keys)

        pipe._model_stage = counted

        base = pipe.classify_batch(msgs)
        assert rows == [len(msgs)]

        pipe.template_cache = cache = TemplateCache(4096)
        cached: set[str] = set()
        for lo in range(0, len(msgs), 500):
            part = slice(lo, lo + 500)
            not_yet = sum(key not in cached for key in keys[part])
            rows.clear()
            assert pipe.classify_batch(msgs[part]) == base[part]
            assert sum(rows) == not_yet, f"slice at {lo}: {rows} rows, {not_yet} uncached"
            cached.update(keys[part])
        assert len(cache) == len(cached) < len(msgs) // 50

        rows.clear()
        assert pipe.classify_batch(msgs) == base
        assert rows == [], f"a warm batch reached the model stage: {cache.stats()}"
        assert cache.stats()["hits"] >= len(msgs)


class TestFlushToll:
    """A paced line stops paying a flush's toll.  One publish → poll →
    sink → journal → commit round, assembled as the spine assembles it
    (``flush_toll.Spine``: ``classifying_sink``, an ``fsync="off"`` WAL,
    a live registry) and warmed on hot-shaped lines, counted in bytecodes
    executed in ``src/repro`` frames — no clock.  Its µs per round at 1,
    3, 100 and 500 lines is ``benchmarks/bench_flush_toll.py``
    (``BENCH_flush_toll.json``)."""

    #: a one-line round against a line of a 100-line round over the same
    #: lines (reads 3.04; 4.16 when every layer paid its per-call toll);
    #: telemetry's share of the one-line round (reads 8.4%; 12.6% when a
    #: round copied its counts into the registry, 21% before that); an
    #: idle poll on a caught-up group, forwarder and broker (reads 90;
    #: 92 with multi-member groups, 229 before that); the
    #: metric writes of a one-line round (reads 4; 22 with the copies).
    #: CPython 3.11 counts; 3.10 and 3.12 execute fewer bytecodes a call
    TOLL_RATIO, TELEMETRY_SHARE, IDLE_POLL, METRIC_WRITES = 3.5, 0.085, 100, 6

    @pytest.fixture(scope="class")
    def toll(self, tmp_path_factory):
        registry = MetricsRegistry()
        with use_registry(registry):
            spine = flush_toll.Spine(tmp_path_factory.mktemp("toll") / "wal", registry)
            warm = flush_toll.hot_messages(600, seed=1)
            spine.rounds(warm[:300], 1)
            spine.rounds(warm[300:], 100)
            lines = flush_toll.hot_messages(100, seed=2)
            spine.rounds(lines, 100)  # the lines' own first sight
            one = flush_toll.count_opcodes(lambda: spine.rounds(lines, 1))
            hundred = flush_toll.count_opcodes(lambda: spine.rounds(lines, 100))
            writes = flush_toll.count_metric_writes(lambda: spine.rounds(lines, 1)) / len(lines)
            spine.forwarder.poll_broker()  # the first idle poll settles the lag gauges
            idle = flush_toll.count_opcodes(spine.forwarder.poll_broker)
            spine.close()
        return one, hundred, idle, writes

    def test_a_one_line_round_costs_a_bounded_number_of_lines(self, toll):
        """100 one-line rounds against one 100-line round over the same
        lines: the per-round toll is at most this many lines' work."""
        one, hundred, _idle, _writes = toll
        ratio = one["total"] / hundred["total"]
        assert ratio <= self.TOLL_RATIO, (round(ratio, 2), dict(one), dict(hundred))

    def test_telemetry_is_a_bounded_share_of_a_one_line_round(self, toll):
        """The counted form of ``bench_obs_overhead.py``'s 3% wall-clock
        budget: ``repro/obs/`` and ``repro/runtime/timing.py`` frames,
        every metric still exact at every read."""
        one, _hundred, _idle, _writes = toll
        share = one["telemetry"] / one["total"]
        assert share <= self.TELEMETRY_SHARE, (round(share, 3), dict(one))

    def test_an_idle_poll_on_a_caught_up_group(self, toll):
        _one, _hundred, idle, _writes = toll
        assert idle["total"] <= self.IDLE_POLL, dict(idle)

    def test_a_one_line_round_writes_only_its_histograms(self, toll):
        """Counts are kept once: a round's counters and gauges are views of
        the numbers its layers own, so what it writes is its histogram
        observations (two stages' seconds, the batch's, the quorum
        write's)."""
        *_, writes = toll
        assert writes <= self.METRIC_WRITES, writes

    def test_the_count_restores_the_tracer_it_found(self):
        def tracer(frame, event, arg):
            return None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            counts = flush_toll.count_opcodes(lambda: LogBroker(registry=NullRegistry()))
            assert sys.gettrace() is tracer
        finally:
            sys.settrace(previous)
        assert counts["broker"] > 0 and counts["total"] >= counts["broker"]


class TestLineBytes:
    """A stored line is machine words: what 20,000 hot lines leave on the
    heap, through the spine's round (``flush_toll.Spine``) in 100-line
    rounds, counted with ``tracemalloc`` by the layer that allocated it —
    no clock.  The lines are built before the count starts, so a line's
    ``SyslogMessage``, its text and its pid are not in it; what is, is
    what the layers keep for it.  ``benchmarks/bench_line_bytes.py``
    (``BENCH_line_bytes.json``) reports the same split at 10k and 50k."""

    N = 20_000
    #: retained bytes a line by layer: reads 296.7 store, 17.2 journal,
    #: 46.9 broker; 381.8, 49.6 and 46.9 when each line's doc ids, local
    #: ids and journal event were ``int`` objects (CPython 3.11)
    FLOORS = {"store": 310.0, "journal": 18.5, "broker": 49.0}

    @pytest.fixture(scope="class")
    def kept(self, tmp_path_factory):
        registry = MetricsRegistry()
        with use_registry(registry):
            spine = flush_toll.Spine(tmp_path_factory.mktemp("bytes") / "wal", registry)
            # first sights (posting lists, plans, memos, partitions) land here
            spine.rounds(flush_toll.hot_messages(1_000, seed=1), 100)
            lines = flush_toll.hot_messages(self.N, seed=2)
            by_layer, by_site = flush_toll.retained(lambda: spine.rounds(lines, 100))
            spine.close()
        return by_layer, by_site

    def test_a_line_costs_at_most_its_floor_in_each_layer(self, kept):
        by_layer, _by_site = kept
        per_line = {layer: round(by_layer[layer] / self.N, 1) for layer in self.FLOORS}
        over = {layer: b for layer, b in per_line.items() if b > self.FLOORS[layer]}
        assert not over, f"bytes a line {per_line} against floors {self.FLOORS}"

    def test_no_site_keeps_an_object_a_line(self, kept):
        """An ``int`` per doc id, local id or event is one object a line
        at the site that numbered it; what a line may leave is bounded
        memo entries (plans, masks), well under one."""
        _by_layer, by_site = kept
        per_line = {site: n / self.N for site, n in by_site.items() if n >= 0.9 * self.N}
        assert not per_line, f"objects a line by allocation site: {per_line}"


class TestFitPerTemplate:
    def test_pipeline_fit_analyses_and_counts_each_masked_text_once(self, monkeypatch):
        """A pipeline fit lemmatizes and counts each distinct masked
        training text once: 1,066 documents each on the 9,826-line
        corpus, where analysing every row for the vocabulary and again
        for the matrix read 19,652 each.  The wall-clock twin is the
        spine's ``setup_s`` on ``cold_templates`` (EXPERIMENTS.md, "Fit
        per template")."""
        from repro.core.pipeline import ClassificationPipeline
        from repro.datagen.generator import CorpusGenerator
        from repro.ml import ComplementNB

        corpus = CorpusGenerator(scale=0.05, seed=0).generate()
        lemmatized, counted_rows = [], []
        lemmatize_docs, count_rows = Lemmatizer.lemmatize_docs, TfidfVectorizer._count_rows

        def counting_lemmatize_docs(lemmatizer, docs):
            out = lemmatize_docs(lemmatizer, docs)
            lemmatized.append(len(out))
            return out

        def counting_count_rows(vectorizer, docs):
            counted_rows.append(len(docs))
            return count_rows(vectorizer, docs)

        monkeypatch.setattr(Lemmatizer, "lemmatize_docs", counting_lemmatize_docs)
        monkeypatch.setattr(TfidfVectorizer, "_count_rows", counting_count_rows)
        pipe = ClassificationPipeline(vectorizer=TfidfVectorizer(), classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        assert len(corpus.texts) == 9_826
        assert sum(lemmatized) == 1_066, lemmatized
        assert sum(counted_rows) == 1_066, counted_rows
