"""Unit tests for the inverted-index log store."""

import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core.message import Severity, SyslogMessage
from repro.core.taxonomy import Category
from repro.replication import ReplicatedLogStore
from repro.stream import opensearch as store_mod
from repro.stream.opensearch import LogDocument, LogStore
from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tfidf import TfidfVectorizer
from repro.textproc.tokenize import Tokenizer
from reference_textproc import clear_memos, counted, reference_tokenize, tokenize_mod


def msg(t, host="cn001", app="kernel", text="x"):
    return SyslogMessage(timestamp=float(t), hostname=host, app=app, text=text,
                         severity=Severity.INFO)


@pytest.fixture()
def store():
    s = LogStore(n_shards=3)
    s.index(msg(10, "cn001", "kernel", "CPU5 temperature above threshold, throttled"))
    s.index(msg(20, "cn002", "sshd", "Connection closed by 1.2.3.4 port 22 [preauth]"))
    s.index(msg(30, "cn001", "kernel", "usb 1-2: new USB device number 9"))
    s.index(msg(40, "ep001", "slurmd", "node cn042 not responding please investigate"))
    return s


class TestIndexing:
    def test_len(self, store):
        assert len(store) == 4

    def test_shard_round_robin(self, store):
        assert store.shard_counts() == [2, 1, 1]

    def test_invalid_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            LogStore(n_shards=0)

    def test_bulk_index(self):
        s = LogStore()
        assert s.bulk_index([msg(1), msg(2)])
        assert len(s) == 2

    def test_a_document_is_slotted_and_still_pickles(self, store):
        """A document is built on every read: no ``__dict__`` a document,
        and the names, fields, equality and pickling DESIGN.md promises."""
        doc = store.get(1)
        assert not hasattr(doc, "__dict__")
        assert pickle.loads(pickle.dumps(doc)) == doc == store.get(1)
        assert replace(doc, category=Category.SSH) == LogDocument(
            doc_id=1, message=doc.message, category=Category.SSH
        )
        with pytest.raises(FrozenInstanceError):
            doc.doc_id = 2

    def test_index_stats(self, store):
        stats = store.index_stats()
        assert stats["docs"] == 4
        assert stats["unique_terms"] > 5
        assert stats["postings"] >= stats["unique_terms"]


class TestQueries:
    def test_term_query_token(self, store):
        assert store.term_query("throttled").total == 1

    def test_term_query_hostname(self, store):
        assert store.term_query("cn001").total >= 2

    def test_term_query_app(self, store):
        assert store.term_query("sshd").total == 1

    def test_term_query_masked_generalizes(self, store):
        # masked indexing means "cpu<num>" shape matches regardless of id
        s = LogStore()
        s.index(msg(1, text="CPU5 throttled"))
        s.index(msg(2, text="CPU99 throttled"))
        assert s.term_query("throttled").total == 2

    def test_term_query_time_filter(self, store):
        assert store.term_query("kernel", t0=25.0).total == 1

    def test_term_query_limit(self, store):
        r = store.term_query("kernel", limit=1)
        assert len(r.docs) == 1 and r.total == 2

    def test_all_terms_query(self, store):
        assert store.all_terms_query(["usb", "device"]).total == 1
        assert store.all_terms_query(["usb", "preauth"]).total == 0

    def test_all_terms_empty_raises(self, store):
        with pytest.raises(ValueError, match="at least one"):
            store.all_terms_query([])

    def test_phrase_query(self, store):
        assert store.phrase_query("temperature above threshold").total == 1
        # same tokens, wrong order: no phrase hit
        assert store.phrase_query("threshold above temperature").total == 0

    def test_time_range(self, store):
        r = store.time_range(15.0, 35.0)
        assert r.total == 2
        assert all(15 <= d.message.timestamp < 35 for d in r.docs)

    def test_get_by_id(self, store):
        assert store.get(0).message.timestamp == 10.0


class TestAggregations:
    def test_date_histogram_counts(self, store):
        buckets = store.date_histogram(interval_s=10.0)
        assert sum(b.count for b in buckets) == 4

    def test_date_histogram_includes_empty_buckets(self):
        s = LogStore()
        s.index(msg(0))
        s.index(msg(35))
        buckets = s.date_histogram(interval_s=10.0)
        assert len(buckets) == 4
        assert [b.count for b in buckets] == [1, 0, 0, 1]

    def test_date_histogram_term_filter(self, store):
        buckets = store.date_histogram(interval_s=10.0, term="sshd")
        assert sum(b.count for b in buckets) == 1

    def test_date_histogram_invalid_interval(self, store):
        with pytest.raises(ValueError, match="interval"):
            store.date_histogram(interval_s=0.0)

    def test_terms_aggregation_hostname(self, store):
        top = dict(store.terms_aggregation("hostname"))
        assert top["cn001"] == 2

    def test_terms_aggregation_category(self, store):
        store.set_category(0, Category.THERMAL)
        top = dict(store.terms_aggregation("category"))
        assert top == {"Thermal Issue": 1}

    def test_terms_aggregation_unknown_field(self, store):
        with pytest.raises(ValueError, match="aggregate"):
            store.terms_aggregation("nonexistent")

    def test_set_category_preserves_message(self, store):
        store.set_category(1, Category.SSH)
        doc = store.get(1)
        assert doc.category is Category.SSH
        assert doc.message.app == "sshd"


class TestSeverityFeatures:
    @pytest.fixture()
    def sev_store(self):
        s = LogStore()
        for i, sev in enumerate([Severity.INFO, Severity.WARNING,
                                 Severity.ERROR, Severity.INFO]):
            s.index(SyslogMessage(
                timestamp=float(i * 10), hostname="cn001", app="kernel",
                text=f"event number {i}", severity=sev,
            ))
        return s

    def test_max_severity_filter(self, sev_store):
        # WARNING-or-worse: warning + error = 2
        r = sev_store.term_query("kernel", max_severity=Severity.WARNING)
        assert r.total == 2
        assert all(d.message.severity <= Severity.WARNING for d in r.docs)

    def test_max_severity_error_only(self, sev_store):
        assert sev_store.term_query("kernel", max_severity=Severity.ERROR).total == 1

    def test_no_filter_returns_all(self, sev_store):
        assert sev_store.term_query("kernel").total == 4

    def test_severity_histogram(self, sev_store):
        hist = sev_store.severity_histogram()
        assert hist[Severity.INFO] == 2
        assert hist[Severity.WARNING] == 1
        assert hist[Severity.ERROR] == 1

    def test_severity_histogram_time_bounded(self, sev_store):
        hist = sev_store.severity_histogram(t0=5.0, t1=25.0)
        assert sum(hist.values()) == 2


# -- the shared, memoized analysis -----------------------------------------


def _reference_analyze(text):
    return tuple(reference_tokenize(Tokenizer(), MaskingNormalizer().normalize_reference(text)))


def _shared_memos():
    """(masked line → tokens, whitespace piece → tokens) of the default
    tokenizer: the memos the store and the vectorizer both read."""
    return Tokenizer()._memos()


def _replicated():
    return ReplicatedLogStore(n_nodes=3, n_shards=6, n_replicas=2)


def _assert_same_index(store, control):
    """Equal ``index_stats`` and equal ``term_query`` hits, every token."""
    assert store.index_stats() == control.index_stats()
    terms = {"cn001", "kernel"}
    for doc in control.iter_documents():
        terms.update(_reference_analyze(doc.message.text))
    for term in sorted(terms):
        assert (
            [d.doc_id for d in store.term_query(term).docs]
            == [d.doc_id for d in control.term_query(term).docs]
        ), term


@pytest.mark.parametrize("make", [LogStore, _replicated])
class TestSharedAnalysis:
    def _texts(self, corpus):
        return corpus.texts[:240] + [
            "temp is 45 C now", "wrote 3 MB to disk", "at 45 degC, rising",
            "link aa:bb:cc:dd:ee:ff up", "peer 10.0.0.1:22 fe80:0:0:1:2:3",
            "NUL\x00inside \udc80 lone", "split\x1con\x85odd\xa0spaces",
        ]

    def _build(self, make, texts, monkeypatch, *, reference):
        """Index ``texts`` in batches, with a node kill/restart on the
        replicated store (its promote path re-indexes from documents)."""
        import repro.replication.store as repl_mod

        with monkeypatch.context() as mp:
            if reference:
                mp.setattr(store_mod, "_analyze", _reference_analyze)
                mp.setattr(repl_mod, "_analyze", _reference_analyze)
            store = make()
            msgs = [msg(i, text=t) for i, t in enumerate(texts)]
            half = len(msgs) // 2
            store.bulk_index(msgs[:half])
            if hasattr(store, "kill_node"):
                store.kill_node(0)
            for m in msgs[half:-20]:
                store.index(m)
            if hasattr(store, "restart_node"):
                store.restart_node(0)
            store.bulk_index(msgs[-20:])
            return store

    def test_memoized_equals_reference_across_evictions(
        self, make, corpus, monkeypatch
    ):
        texts = self._texts(corpus)
        control = self._build(make, texts, monkeypatch, reference=True)
        monkeypatch.setattr(store_mod, "ANALYSIS_MEMO_MAX_ENTRIES", 8)  # the plans
        monkeypatch.setattr(tokenize_mod, "ANALYSIS_MEMO_MAX_ENTRIES", 8)
        monkeypatch.setattr(tokenize_mod, "TOKEN_MEMO_MAX_ENTRIES", 8)
        clear_memos()
        store = self._build(make, texts, monkeypatch, reference=False)
        lines, pieces = _shared_memos()
        assert 0 < len(lines) <= 8 and 0 < len(pieces) <= 8
        _assert_same_index(store, control)

    def test_poison_message_leaves_store_unchanged_and_memo_exact(
        self, make, monkeypatch
    ):
        """All-or-nothing with the memos in place.  The messages analyzed
        before the poison may already be memoized when the batch fails;
        what holds is that the store is untouched and every memo entry
        is the reference analysis of its key, so the retry indexes as if
        the failed attempt never ran."""
        emit = Tokenizer._emit

        def poisoned(self, raw, out):
            if "POISON" in raw:
                raise ValueError("tokenizer crash")
            return emit(self, raw, out)

        clear_memos()
        store, control = make(), make()
        warm = [msg(i, text=f"job {i} started on cn{i:03d}") for i in range(5)]
        store.bulk_index(warm)
        control.bulk_index(warm)
        batch = [msg(10 + i, text=f"job {70 + i} started on cn{i:03d}") for i in range(8)]
        batch[2] = msg(12, text="novel template ahead of the pill 12")
        batch[5] = msg(15, text="POISON pill 15")
        batch[7] = msg(17, text="never analyzed before 17")
        lines, pieces = _shared_memos()
        lines_before = dict(lines)
        stats_before = store.index_stats()
        with monkeypatch.context() as mp:
            mp.setattr(Tokenizer, "_emit", poisoned)
            with pytest.raises(ValueError, match="tokenizer crash"):
                store.bulk_index(batch)
        assert store.index_stats() == stats_before and len(store) == 5
        added = lines.keys() - lines_before.keys()
        assert added == {MaskingNormalizer().normalize_reference(batch[2].text)}
        assert "POISON" not in pieces
        for memo in (lines, pieces):
            for text, tokens in memo.items():
                assert tokens == tuple(reference_tokenize(Tokenizer(), text))
        assert store.bulk_index(batch)
        control.bulk_index(batch)
        _assert_same_index(store, control)

    def test_the_classifier_asking_first_spares_the_store_the_tokenisation(
        self, make, corpus, monkeypatch
    ):
        """One tokenisation per masked line whoever asks first: the
        vectorizer's ``analyze_batch`` fills the memo ``bulk_index``
        reads, and the index is the reference one all the same."""
        texts = self._texts(corpus)[-200:]  # fewer lines than the memo holds
        control = self._build(make, texts, monkeypatch, reference=True)
        masked = {MaskingNormalizer().normalize_reference(t) for t in texts}
        with counted() as counts:
            docs = TfidfVectorizer(lemmatize=False).analyze_batch(texts)
            assert counts.tokenize_calls == len(masked)
            store = self._build(make, texts, monkeypatch, reference=False)
            assert counts.tokenize_calls == len(masked)
        assert docs == [list(_reference_analyze(t)) for t in texts]
        _assert_same_index(store, control)
