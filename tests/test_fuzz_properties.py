"""Property-based fuzzing across module boundaries."""

import os
import random
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from broker_feed import fed_forwarder
from hypothesis import given, seed, settings, strategies as st
from reference_door import (
    ReferenceDeadLetterQueue,
    ReferenceQuota,
    reference_parse_line,
    reference_safe_parse_line,
)
from reference_textproc import (
    clear_memos,
    lemmatize_mod,
    normalize_mod,
    reference_analyze,
    reference_tokenize,
    tokenize_mod,
)

from repro.core.message import Severity, SyslogMessage
from repro.core.taxonomy import Category
from repro.faults.dlq import DeadLetter, DeadLetterQueue, entry_to_dict
from repro.ingest.quota import DeficitRoundRobin
from repro.obs import MetricsRegistry
from repro.stream import rfc as rfc_mod
from repro.stream.fluentd import settle
from repro.stream.opensearch import LogStore
from repro.stream.rfc import format_rfc3164, format_rfc5424, safe_parse_line
from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tfidf import TfidfVectorizer
from repro.textproc.tokenize import Tokenizer

_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs"),
                           max_codepoint=127),
    min_size=1, max_size=80,
).filter(lambda s: s.strip())

_message = st.builds(
    lambda t, host, ts: SyslogMessage(
        timestamp=ts, hostname=f"cn{host:03d}", app="fuzz", text=t.strip(),
        severity=Severity.INFO,
    ),
    _text,
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestLogStoreProperties:
    @given(st.lists(_message, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_every_indexed_doc_findable_by_hostname(self, messages):
        store = LogStore()
        for m in messages:
            store.index(m)
        for m in messages:
            hits = store.term_query(m.hostname)
            assert any(d.message is m for d in hits.docs)

    @given(st.lists(_message, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_time_range_partition(self, messages):
        """Splitting time at any point partitions the documents."""
        store = LogStore()
        for m in messages:
            store.index(m)
        mid = 5e5
        left = store.time_range(float("-inf"), mid).total
        right = store.time_range(mid, float("inf")).total
        assert left + right == len(messages)

    @given(st.lists(_message, max_size=40), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_shards_balance(self, messages, n_shards):
        store = LogStore(n_shards=n_shards)
        for m in messages:
            store.index(m)
        counts = store.shard_counts()
        assert sum(counts) == len(messages)
        assert max(counts) - min(counts) <= 1  # round-robin is balanced

    @given(st.lists(_message, min_size=1, max_size=30),
           st.floats(min_value=1.0, max_value=1e5, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_date_histogram_conserves_counts(self, messages, interval):
        store = LogStore()
        for m in messages:
            store.index(m)
        buckets = store.date_histogram(interval_s=interval)
        assert sum(b.count for b in buckets) == len(messages)


class TestForwarderProperties:
    @given(
        st.lists(_message, max_size=60),
        st.integers(min_value=1, max_value=10),  # batch size
        st.integers(min_value=1, max_value=100),  # buffer limit
    )
    @settings(max_examples=40, deadline=None)
    def test_no_message_lost_or_duplicated(self, messages, batch, limit):
        """Everything published is flushed once, in order; a buffer too
        small for it takes at most its room and leaves the rest as lag."""
        sunk: list = []
        fwd = fed_forwarder(
            messages, sink=lambda b: (sunk.extend(b), True)[1],
            batch_size=batch, buffer_limit=limit,
        )
        assert fwd.stats.accepted == min(len(messages), limit)
        fwd.drain()  # a full buffer polls nothing until a drain makes room
        settle([fwd])
        assert len(sunk) == len(messages) == fwd.stats.flushed_messages
        assert all(a is b for a, b in zip(sunk, messages))
        assert fwd.stats.max_buffer_seen <= limit

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_flaky_sink_eventually_delivers_everything(self, outcomes):
        """A sink that fails arbitrarily (then recovers) loses nothing."""
        sunk: list = []
        it = iter(outcomes)

        def sink(batch):
            ok = next(it, True)
            if ok:
                sunk.extend(batch)
            return ok

        msgs = [
            SyslogMessage(timestamp=float(i), hostname="h", app="a",
                          text=f"m{i}", severity=Severity.INFO)
            for i in range(20)
        ]
        fwd = fed_forwarder(msgs, sink=sink, batch_size=5, buffer_limit=1000)
        fwd.drain()
        assert [m.text for m in sunk] == [m.text for m in msgs]  # order kept


class TestHostileInputProperties:
    """Garbage in, one accounted-for result per message out.

    The resilience contract of ``classify_batch``: arbitrary input —
    random byte garbage, truncated UTF-8, pathological sizes — is
    either classified or quarantined, never an escaped exception and
    never a missing result.
    """

    @pytest.fixture(scope="class")
    def fitted(self, corpus):
        from repro.core.pipeline import ClassificationPipeline
        from repro.ml import ComplementNB

        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts[:500], corpus.labels[:500])
        return pipe

    @staticmethod
    def _check_invariants(texts, results):
        assert len(results) == len(texts)
        for t, r in zip(texts, results):
            assert r.text == t
            assert isinstance(r.category, Category)
            assert r.confidence is None or 0.0 <= r.confidence <= 1.0
            if r.quarantined:
                assert r.category is Category.UNIMPORTANT

    @given(st.lists(st.binary(min_size=0, max_size=200), max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_random_byte_garbage(self, fitted, blobs):
        """Bytes decoded every lossy way still classify or quarantine."""
        texts = [b.decode("latin-1") for b in blobs]
        texts += [b.decode("utf-8", errors="surrogateescape") for b in blobs]
        self._check_invariants(texts, fitted.classify_batch(texts))

    @given(
        st.text(min_size=1, max_size=60),
        st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=50, deadline=None)
    def test_truncated_utf8(self, fitted, text, cut):
        """UTF-8 cut mid-codepoint (lossily decoded) must not crash."""
        raw = text.encode("utf-8")[: max(1, cut)]
        texts = [
            raw.decode("utf-8", errors="replace"),
            raw.decode("utf-8", errors="surrogateescape"),
        ]
        self._check_invariants(texts, fitted.classify_batch(texts))

    def test_megabyte_single_line(self, fitted):
        """A 1 MB single-line message flows through classify and stream."""
        monster = ("error " * 200_000)[: 1 << 20]
        assert len(monster) == 1 << 20 and "\n" not in monster
        results = fitted.classify_batch([monster, "normal message"])
        self._check_invariants([monster, "normal message"], results)
        # the stream path indexes it too (broker -> forwarder -> store)
        store = LogStore(n_shards=2)
        m = SyslogMessage(timestamp=0.0, hostname="cn000", app="kernel",
                          text=monster, severity=Severity.INFO)
        fwd = fed_forwarder([m], sink=store.bulk_index, batch_size=10)
        assert fwd.buffered == 1
        assert fwd.drain() == 1
        assert len(store) == 1
        assert store.get(0).message.text == monster

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_raising_sink_no_loss_no_duplicate(self, outcomes):
        """A sink that *raises* arbitrarily behaves like one returning
        False: retried, all-or-nothing, order preserved."""
        sunk: list = []
        raised = [0]
        it = iter(outcomes)

        def sink(batch):
            if not next(it, True):
                raised[0] += 1
                raise ConnectionError("transient store outage")
            sunk.extend(batch)
            return True

        msgs = [
            SyslogMessage(timestamp=float(i), hostname="h", app="a",
                          text=f"m{i}", severity=Severity.INFO)
            for i in range(20)
        ]
        fwd = fed_forwarder(msgs, sink=sink, batch_size=5, buffer_limit=1000)
        fwd.drain()
        assert [m.text for m in sunk] == [m.text for m in msgs]
        assert fwd.stats.failed_flushes == raised[0]


class TestRfcParserProperties:
    """The wire parser is total: hostile bytes are quarantined with a
    reason, never an escaped exception — the listener's DLQ contract."""

    @staticmethod
    def _never_raises(raw):
        from repro.stream.rfc import safe_parse_line

        message, error = safe_parse_line(raw)
        assert (message is None) != (error is None)
        if message is not None:
            assert isinstance(message, SyslogMessage)
        else:
            assert isinstance(error, str) and error
        return message, error

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_raise(self, blob):
        self._never_raises(blob)

    @given(st.integers(min_value=192, max_value=999))
    @settings(max_examples=30, deadline=None)
    def test_malformed_pri_rejected(self, pri):
        """PRI above 191 is invalid per RFC 5424 — quarantined, not
        mapped onto a bogus facility."""
        message, error = self._never_raises(
            f"<{pri}>Jan  1 00:00:00 h app: text".encode()
        )
        assert message is None
        assert "PRI" in error

    @given(
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=60, deadline=None)
    def test_bad_clock_fields_never_raise(self, h, m, s):
        """Out-of-range HH:MM:SS parses only when it is a real clock."""
        message, error = self._never_raises(
            f"<34>Jan  1 {h:02d}:{m:02d}:{s:02d} h app: text".encode()
        )
        if h > 23 or m > 59 or s > 59:
            assert message is None
        else:
            assert message is not None

    @given(st.text(min_size=1, max_size=60), st.integers(min_value=1, max_value=59))
    @settings(max_examples=60, deadline=None)
    def test_truncated_utf8_never_raises(self, text, cut):
        line = f"<13>1 2023-01-01T00:00:00Z host app - - - {text}"
        self._never_raises(line.encode("utf-8")[:cut])

    @given(st.integers(min_value=8193, max_value=70_000))
    @settings(max_examples=20, deadline=None)
    def test_oversize_datagram_quarantined(self, size):
        message, error = self._never_raises(b"A" * size)
        assert message is None
        assert error.startswith("oversize:")

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_nul_bytes_stripped_or_quarantined(self, positions):
        base = bytearray(b"<34>Jan  1 00:00:00 cn001 kernel: link up")
        for p in positions:
            base.insert(min(p * 7, len(base)), 0)
        self._never_raises(bytes(base))
        # NULs at the edges are wire framing noise: stripped, parsed
        message, error = self._never_raises(
            b"\x00<34>Jan  1 00:00:00 cn001 kernel: link up\x00"
        )
        assert message is not None and message.text == "link up"


class TestVectorizerClassifierProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_any_message_classifies_without_error(self, split, salt):
        """A fitted pipeline never crashes on arbitrary well-formed text."""
        X_tr, _X_te, y_tr, _y_te, vec = split
        from repro.ml import ComplementNB

        clf = ComplementNB().fit(X_tr, y_tr)
        weird = f"never seen token{salt} ✗ {salt * 7} []{{}}"
        X = vec.transform([weird])
        pred = clf.predict(X)
        assert pred[0] in set(y_tr.tolist())

    @given(st.lists(st.sampled_from(list(Category)), min_size=2, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_tfidf_row_count_matches_input(self, cats):
        texts = [f"message about {c.value.lower()} body" for c in cats]
        X = TfidfVectorizer().fit_transform(texts)
        assert X.shape[0] == len(texts)


#: the CI template-cache job shifts this for the seed matrix
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

# what the masking rules and the split/join decomposition can disagree
# on: number + unit across whitespace, every rule's fragment glued to
# punctuation, and every separator ``str.split()`` treats as whitespace;
# and, drawn as often and each opening a token, what the digit-shape
# keys can: digit twins whose mask keeps the digit (``thermal_zone3:``,
# ``CPU7_Temp``), the ``0`` of ``0x`` beside its folded look-alikes, a
# number and a unit one space, one tab or two spaces apart, a digit
# outside ASCII
_hostile_line = st.lists(
    st.one_of(
        st.sampled_from([
            "45 C", "3 MB", "degC,", "45", "C", "MB", "kB;", "bytes", "Cat",
            "4.5e3", "12345678", "1234", "aa:bb:cc:dd:ee:ff", "10.0.0.1:22",
            "fe80:0:0:1:2:3", "0xdeadbeef", "deadbeefcafe", "/var/log/x.log",
            "1.2.3", "12:34:56", "2023-01-02", "cn042", "cpu7", "x=3",
            " ", "  ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
            "\xa0", "\x00", "\udc80",
        ]),
        st.sampled_from([
            " thermal_zone1:", " thermal_zone3:", " CPU1_Temp", " CPU7_Temp",
            " 0x1f", " 1x1f", " 9x1f", " 45 C", " 47\tC", " 45  C", " ٣",
        ]),
        st.text(max_size=6),
    ),
    max_size=14,
).map("".join)
#: a number and a unit one whitespace character apart: the one place a
#: rule (``<temp>``, ``<size>``) can match across whitespace
_NUMBER_UNIT = re.compile(r"\d\s(?:degC|celsius|C|[kKMGT]i?B|kB|bytes)(?:$|\W)")


class TestFingerprintProperties:
    """Hostile-input totality + determinism of the template key: the
    masked line, as ``normalize`` hands it to the cache and the store."""

    @staticmethod
    def _key_of_wire_bytes(payload: bytes) -> str:
        # the listener's decode; undecodable bytes arrive as U+FFFD
        return MaskingNormalizer().normalize(payload.decode("utf-8", errors="replace"))

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_byte_garbage_never_raises(self, payload):
        key = self._key_of_wire_bytes(payload)
        assert isinstance(key, str)
        assert key == MaskingNormalizer().normalize_reference(
            payload.decode("utf-8", errors="replace")
        )

    @given(st.text(min_size=0, max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_text_deterministic(self, text):
        norm = MaskingNormalizer()
        clear_memos()
        cold = norm.normalize(text)
        assert norm.normalize(text) == cold  # the recent-lines hit
        assert norm.normalize_many([text, text]) == [cold, cold]

    @given(st.text(min_size=1, max_size=80), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_truncated_utf8_never_raises(self, text, cut):
        assert isinstance(self._key_of_wire_bytes(text.encode("utf-8")[:cut]), str)

    def test_nuls_and_controls_never_raise(self):
        norm = MaskingNormalizer()
        for hostile in [
            "\x00\x00\x00", "NUL\x00inside", "\x1b[31mansi\x1b[0m",
            "\x00", "", "\udc80lone surrogate",
        ]:
            assert norm.normalize(hostile) == norm.normalize_reference(hostile)

    def test_megabyte_line_never_raises(self):
        line = ("kernel panic at 0xdeadbeef code 12345 " * 27_000)[:1_048_576]
        assert isinstance(MaskingNormalizer().normalize(line), str)
        assert isinstance(self._key_of_wire_bytes(line.encode()), str)

    @seed(SEED_SHIFT)
    @given(_hostile_line)
    @settings(max_examples=400, deadline=None)
    def test_mask_equals_normalizer_on_hostile_text(self, text):
        """The token-wise memoized masker is the regex chain, exactly:
        ``normalize == normalize_reference`` on hostile text, for every
        normalizer configuration, warm memo or cold."""
        from repro.textproc.normalize import MaskingNormalizer

        for alnum_ids in (True, False):
            for collapse in (True, False):
                norm = MaskingNormalizer(alnum_ids, collapse)
                expected = norm.normalize_reference(text)
                assert norm.normalize(text) == expected
                assert norm.normalize(text) == expected  # recent-lines hit

    @seed(SEED_SHIFT)
    @given(_hostile_line, st.permutations("23456789"))
    @settings(max_examples=400, deadline=None)
    def test_a_digit_twin_masks_like_the_chain(self, text, digits):
        """A line, a token and a number–unit window are remembered by
        their digit shape (ASCII 2–9 folded to 1) unless their mask
        keeps a digit.  Mask a text, then its digit twin (its digits 2–9
        permuted), then the reverse, on the memos they and every earlier
        example warmed: each is ``normalize_reference``'s answer.  And the
        chain runs only on a window where a number and a unit stand one
        whitespace character apart."""
        twin = text.translate(str.maketrans("23456789", "".join(digits)))
        chain, windows = MaskingNormalizer.normalize_reference, []
        for alnum_ids in (True, False):
            norm = MaskingNormalizer(alnum_ids)
            expected = {t: chain(norm, t) for t in (text, twin)}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(MaskingNormalizer, "normalize_reference",
                           lambda self, t: windows.append(t) or chain(self, t))
                for t in (text, twin, twin, text):
                    assert norm.normalize(t) == expected[t]
        assert all(_NUMBER_UNIT.search(window) for window in windows), windows


# -- one analysis per line: every product equals the staged chain ----------

# what ``_hostile_line`` lacks for the tokenizer: the separators beyond
# ASCII, ``key=value`` and ``key:value`` shapes (the clock exception,
# comma lists, edge punctuation inside values), and the digit ``<ipv6>``
# brings into a token that had none
_analysis_line = st.lists(
    st.one_of(
        st.sampled_from([
            " ", " ", "\x1c", "\x1f", "\x85", "key=value,list", "k=v,,w;", "a=b=c",
            "_k:v.", "ts:12:34:56", "t:12", "t:123", "err:x=1", "Key:", "=", ":", "(x=1)",
            "12:34:56", "0x1F", "0xdeadbeef,", "aa:bb:cc:dd:ee:ff", "45 Caa:bb:cc:dd:ee:ff",
            "3 MB", "3MB", "5e3", "1.5GiB", "١٢٣", "Failed", "connections", "throttling,",
            "statuses", "x" * 300,
        ]),
        _hostile_line,
    ),
    max_size=6,
).map("".join)
#: lines to analyse in order, each with "empty every memo first?"
_analysis_run = st.lists(st.tuples(_analysis_line, st.booleans()), min_size=1, max_size=6)


@contextmanager
def _memo_caps(cap):
    """Every text-analysis memo bounded by ``cap`` entries (``None``
    leaves the defaults), so a handful of lines clears each many times."""
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            for module, name in (
                (tokenize_mod, "TOKEN_MEMO_MAX_ENTRIES"),
                (tokenize_mod, "ANALYSIS_MEMO_MAX_ENTRIES"),
                (normalize_mod, "TOKEN_MEMO_MAX_ENTRIES"),
                (normalize_mod, "LINE_MEMO_MAX_ENTRIES"),
                (lemmatize_mod, "CACHE_MAX_ENTRIES"),
            ):
                mp.setattr(module, name, cap)
        yield


_TOKENIZERS = [
    Tokenizer(lowercase, split_kv, min_len)
    for lowercase in (True, False) for split_kv in (True, False) for min_len in (1, 3)
]
_VECTORIZERS = [
    TfidfVectorizer(normalize=normalize, lemmatize=lemmatize)
    for normalize in (True, False) for lemmatize in (True, False)
] + [TfidfVectorizer(ngram_range=(1, 2))]


@pytest.mark.parametrize("cap", [4, None])
class TestTextAnalysisExactness:
    """The token-wise, memo-sharing pass against the loops it replaced
    (``tests/reference_textproc.py``): warm memos or cold, whoever asks
    first, with the memos clearing mid-line at ``cap=4``."""

    @seed(SEED_SHIFT)
    @given(_analysis_run)
    @settings(max_examples=150, deadline=None)
    def test_tokenize_is_the_emit_loop_it_replaced(self, cap, run):
        with _memo_caps(cap):
            for text, clear in run:
                if clear:
                    clear_memos()
                for tokenizer in _TOKENIZERS:
                    expected = reference_tokenize(tokenizer, text)
                    assert tokenizer.tokenize(text) == expected
                    assert tokenizer.index_tokens(text) == tuple(expected)
                    assert tokenizer.index_tokens(text) == tuple(expected)  # recent-texts hit

    @seed(SEED_SHIFT)
    @given(_analysis_run)
    @settings(max_examples=150, deadline=None)
    def test_index_tokens_are_the_tokens_of_the_regex_chain(self, cap, run):
        from repro.stream.opensearch import _analyze

        norm, tokenizer = MaskingNormalizer(), Tokenizer()
        with _memo_caps(cap):
            for text, clear in run:
                if clear:
                    clear_memos()
                expected = tuple(reference_tokenize(tokenizer, norm.normalize_reference(text)))
                assert _analyze(text) == expected
                assert _analyze(text) == expected

    @seed(SEED_SHIFT)
    @given(_analysis_run, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_vectorizer_docs_are_the_staged_chain(self, cap, run, store_first):
        """``analyze_batch`` and the pipeline's ``analyze_masked(keys)``
        route, with the store asking before or after."""
        from repro.core.pipeline import ClassificationPipeline
        from repro.stream.opensearch import _analyze

        texts = [text for text, _clear in run]
        with _memo_caps(cap):
            for vec in _VECTORIZERS:
                if run[0][1]:
                    clear_memos()
                expected = reference_analyze(vec, texts)
                if store_first:
                    for text in texts:
                        _analyze(text)
                assert vec.analyze_batch(texts) == expected
                keys = ClassificationPipeline(vectorizer=vec)._template_keys(texts)
                assert vec.analyze_masked(keys) == expected


# -- the front door: deal, capture and parse equal the code they replaced ---

SPINE = Path(__file__).resolve().parents[1] / "benchmarks" / "spine"


def _spine_workloads():
    """``benchmarks/spine/workloads.py``, read-only: its malformed lines
    are what ``flood_reject`` sends."""
    sys.path.insert(0, str(SPINE))
    try:
        import workloads
    finally:
        sys.path.remove(str(SPINE))
    return workloads


class _SharedClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _quota_state(quota):
    return quota.snapshot(), quota._pool, list(quota._ring), dict(quota._last_seen)


class TestQuotaDealExactness:
    """``DeficitRoundRobin`` against the deal and the eviction it
    replaced (``tests/reference_door.py``): after every ``allow`` and
    ``set_rate`` of a random interleaving the decision, the deficits,
    the pool and the ring order are ``==`` — not close."""

    @pytest.mark.parametrize("block", range(4))
    def test_every_step_of_a_random_interleaving_is_bit_equal(self, block):
        for case in range(60):
            rng = random.Random((SEED_SHIFT * 4 + block) * 1000 + case)
            n_tenants = rng.choice([1, 2, 3, 7, 40, 211])
            burst = rng.choice([1.0, 2.0, 7.0, 30.0, 2000.0, 0.75, 9.478, 1e3 / 7])
            rate = rng.choice([0.5, 3.0, 50.0, 1e8])  # scarce … refilled at once
            kwargs = {
                "quantum": rng.choice([0.5, 1.0, 2.0, 3.0]),
                "max_tenants": rng.choice([n_tenants + 1, max(1, n_tenants // 2), 1024]),
            }
            clock = _SharedClock()
            new = DeficitRoundRobin(rate, burst, clock=clock, **kwargs)
            old = ReferenceQuota(rate, burst, clock=clock, **kwargs)
            tenants = [f"t{i}" for i in range(n_tenants)]
            for step in range(rng.choice([40, 150, 400])):
                # a tie on the last-seen stamp now and then: evictions compare
                if rng.random() < 0.8:
                    clock.now += rng.choice([1e-6, 1e-3, 0.05, 1.0])
                if rng.random() < 0.04:
                    args = (rng.choice([0.5, 3.0, 50.0, 1e8]),
                            rng.choice([None, 1.0, 9.478, 30.0, 2000.0]))
                    new.set_rate(*args)
                    old.set_rate(*args)
                else:
                    # Pareto: a few tenants send most of the lines
                    tenant = tenants[min(n_tenants - 1, int(rng.paretovariate(1.1)) - 1)]
                    assert new.allow(tenant) == old.allow(tenant), (case, step)
                assert _quota_state(new) == _quota_state(old), (case, step)

    def test_a_clock_that_steps_back_evicts_the_tenant_touched_longest_ago(self):
        """The precondition of the equality above, pinned: the victim is
        read off the order tenants were touched in, which is the order of
        their stamps only while the clock never steps back.  When it does,
        the tenant touched longest ago goes; the scan went by the stamps."""
        now = [10.0]
        new = DeficitRoundRobin(1.0, 4.0, max_tenants=2, clock=lambda: now[0])
        old = ReferenceQuota(1.0, 4.0, max_tenants=2, clock=lambda: now[0])
        for quota in (new, old):
            for tenant, at in (("a", 10.0), ("b", 5.0), ("c", 6.0)):
                now[0] = at
                quota.allow(tenant)
        assert set(new.snapshot()) == {"b", "c"}
        assert set(old.snapshot()) == {"a", "c"}


def _entries_view(queue):
    return (
        [entry_to_dict(e) for e in queue],
        [entry_to_dict(e) for e in queue.entries("b")],
        [e.seq for e in queue.entries() if e.seq > queue.n_evicted + 1],
        queue.n_evicted, len(queue), queue.counts_by_site(),
    )


_dlq_op = st.one_of(
    st.tuples(st.just("push"), st.sampled_from("abc"), st.integers(0, 99)),
    st.tuples(st.just("restore"), st.sampled_from("abc"), st.integers(0, 4)),
)


class TestDeadLetterCaptureExactness:
    """``DeadLetterQueue`` against the append and the count it replaced:
    entries, evictions and the registry exposition after every step —
    a push and every restored entry counted, in the registry the queue
    was constructed in."""

    @pytest.mark.parametrize("cap", [1, 3, None])
    @seed(SEED_SHIFT)
    @given(st.lists(_dlq_op, min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_every_step_of_a_random_sequence_is_equal(self, cap, ops):
        registries = {"new": MetricsRegistry(), "old": MetricsRegistry()}
        queues = {"new": DeadLetterQueue(max_entries=cap, registry=registries["new"]),
                  "old": ReferenceDeadLetterQueue(max_entries=cap, registry=registries["old"])}
        for step, (op, site, k) in enumerate(ops):
            for queue in queues.values():
                foreign = [
                    DeadLetter(seq=90 + i, site=site, payload=f"p{i}", error="e",
                               context={"i": i})
                    for i in range(k)
                ]
                if op == "push":
                    entry = queue.push(site, f"payload {k}", f"error {k}", attempt=k)
                    assert entry is list(queue)[-1]
                else:
                    assert queue.restore(foreign) == k
            assert _entries_view(queues["new"]) == _entries_view(queues["old"]), step
            assert (registries["new"].to_prometheus()
                    == registries["old"].to_prometheus()), step

    def test_a_reader_survives_a_capture_made_while_it_reads(self):
        """The listener's thread pushes while another reads: every reader
        walks a snapshot, as it did when the entries were a list."""
        for queue in (DeadLetterQueue(max_entries=3), ReferenceDeadLetterQueue(max_entries=3)):
            for i in range(3):
                queue.push("a", i, "e")
            seen = []
            for entry in queue:
                queue.push("b", entry.payload, "e")  # evicts what is being read
                seen.append(entry.payload)
            assert seen == [0, 1, 2] and queue.counts_by_site() == {"b": 3}


# PRI spellings ``\d{1,3}`` takes or leaves: canonical, out of range, four
# digits, leading zeros, other scripts' digits (``\d`` matches them and
# ``int`` reads them), a superscript (``isdigit`` but not ``\d``), torn
_pri = st.one_of(
    st.integers(0, 191).map(lambda p: f"<{p}>"),
    st.integers(0, 191).map(lambda p: f"<{p}>"),
    st.sampled_from([
        "", "<192>", "<999>", "<1234>", "<007>", "<000>", "<١٣>", "<१९१>", "<９９９>", "<1٣>",
        "<²>", "<1²>", "<>", "<", "<1", "<12", "<1a>", "<-1>", "< 1>", "<1 >", "<13>>", "<<13>",
        "<13><14>",
    ]),
)
_two = st.one_of(
    st.integers(0, 99).map(lambda v: f"{v:02d}"),
    st.sampled_from(["٢٣", "５９", "1", "123", "²3", "-1", "ab", ""]),
)
_valid_clock = st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)).map(
    lambda c: "%02d:%02d:%02d" % c)
_clock = st.one_of(
    _valid_clock, _valid_clock, _valid_clock,
    st.tuples(_two, _two, _two).map(":".join),
    st.sampled_from(["24:00:00", "23:60:00", "23:59:60", "00:00:00"]),
)
_day = st.one_of(
    st.integers(1, 30).map(str), st.integers(0, 32).map(str),
    st.integers(1, 9).map(lambda d: f" {d}"), st.sampled_from(["٣", "١٢", "31", "00", "007", ""]),
)
_month = st.sampled_from([
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    "Foo", "feb", "FEB", "Fe", "Sept",
])
_gap = st.one_of(
    st.just(" "), st.just(" "), st.just(" "), st.just(" "), st.just(" "),
    st.sampled_from(["  ", "\t", "\x1f", "\xa0", ""]),
)
_word = st.sampled_from([
    "cn042", "sk022", "-", "h", "kernel", "sshd", "my app", "a:b", "x[1", "ñandú", "1", "\x00",
])
_body = st.one_of(
    st.sampled_from([
        "link up", "", " ", "a: b: c", "[x] y", "line\nbreak", "tail\n", "nul\x00inside",
        "trailing  ", "1 2023-01-01T00:00:00Z h a - - - nested", "Feb  1 00:00:00 h a: nested",
    ]),
    st.text(max_size=12),
)
_bsd_line = st.tuples(
    _pri, _month, _gap, _day, _gap, _clock, _gap, _word, _gap, _word,
    st.sampled_from(["", "[7]", "[٧]", "[]", "[x]", "[12][3]"]),
    st.sampled_from([": ", ":", " :", ":  ", ""]), _body,
).map("".join)
_iso = st.one_of(
    st.tuples(st.integers(2020, 2026), st.integers(0, 13), st.integers(0, 32), _clock).map(
        lambda t: "%04d-%02d-%02dT%s" % t),
    st.tuples(st.integers(2023, 2024), st.integers(1, 12), st.integers(1, 30), _clock,
              st.sampled_from(["Z", ".123Z", "+02:00", ".5", "junk"])).map(
        lambda t: "%04d-%02d-%02dT%s%s" % t),
    st.sampled_from(["-", "2023-01-01", "٢٠٢٣-٠١-٠١T٠٠:٠٠:٠٠Z", "2023-1-1T0:0:0",
                     "2023-02-31T00:00:00Z", "2023-01-01T24:00:00Z", "x2023-01-01T00:00:00Z"]),
)
_iso_line = st.tuples(
    _pri, st.sampled_from(["1", "1", "1", "2", "11", ""]), _gap, _iso, _gap, _word, _gap, _word,
    _gap, st.sampled_from(["-", "7", "٧", "²", "12a", "007", ""]), _gap,
    st.sampled_from(["-", "ID47", ""]), _gap,
    st.sampled_from(["-", "[x y=\"z\"]", "[a][b]", "[", "[]", ""]),
    st.sampled_from([" ", "", "  "]), _body,
).map("".join)
_frame = st.sampled_from(["", "", "\n", "\r\n", "\x00", "\x00\r\n\x00", " \t", "\n\n"])
_wire_line = st.tuples(_frame, st.one_of(_bsd_line, _iso_line), _frame).map("".join)
_rendered = st.builds(
    lambda ts, host, app, text, sev, pid, fmt: (
        format_rfc3164 if fmt else format_rfc5424
    )(SyslogMessage(float(ts), host, app, text, Severity(sev), pid=pid)),
    st.integers(0, 86400 * 720), st.sampled_from(["cn001", "sk022", "hog001"]),
    st.sampled_from(["kernel", "sshd", "floodd"]), st.text(max_size=20), st.integers(0, 7),
    st.one_of(st.none(), st.integers(0, 99999)), st.booleans(),
)


def _same_parse(raw, **kwargs):
    got = safe_parse_line(raw, **kwargs)
    assert got == reference_safe_parse_line(raw, **kwargs), raw
    return got


@pytest.mark.parametrize("cap", [4, None])
class TestParserExactness:
    """``safe_parse_line`` against the regex chain it replaced, on
    ``(message, error)``: the table-read PRI, the one match and the
    stamp memo (bounded by ``cap`` entries, so hits and clears
    interleave within a handful of lines) change no verdict, no field
    and no error string."""

    @pytest.fixture(autouse=True)
    def _memo_cap(self, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(rfc_mod, "STAMP_MEMO_MAX_ENTRIES", cap)
        rfc_mod._STAMPS.clear()
        yield
        rfc_mod._STAMPS.clear()

    @seed(SEED_SHIFT)
    @given(st.lists(st.tuples(st.one_of(_wire_line, _rendered), st.booleans()),
                    min_size=1, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_hostile_and_rendered_lines(self, cap, run):
        for line, as_bytes in run:
            raw = line.encode("utf-8", errors="replace") if as_bytes else line
            _same_parse(raw)
            _same_parse(raw)  # the stamp is in the memo now, if it was valid
            _same_parse(raw, max_bytes=None)
            _same_parse(raw, max_bytes=16)
        assert len(rfc_mod._STAMPS) <= rfc_mod.STAMP_MEMO_MAX_ENTRIES
        assert all(len(stamp) <= 19 for stamp in rfc_mod._STAMPS)

    def test_the_benchmarks_malformed_kinds_and_every_truncation(self, cap):
        workloads = _spine_workloads()
        rng = np.random.default_rng(SEED_SHIFT)
        message = SyslogMessage(86400.0 * 41 + 4711, "sk022", "kernel",
                                "CPU16 temperature above threshold — throttled",
                                Severity.WARNING, pid=100)
        for render in (format_rfc3164, format_rfc5424):
            valid = render(message).encode()
            assert _same_parse(valid)[0] == message
            for kind in range(4):
                for _ in range(8):
                    assert _same_parse(workloads._malformed(kind, rng, valid))[0] is None
            assert _same_parse(valid + b" pad" * 768, max_bytes=2048)[0] is None
            for cut in range(len(valid) + 1):
                _same_parse(valid[:cut])
                _same_parse(valid[:cut] + b"\x00\r\n")
                _same_parse(b"\x00\x00" + valid[cut:])

    def test_an_invalid_stamp_is_refused_on_every_sight(self, cap):
        for line in (
            "<13>Feb 31 00:00:00 h app: x", "<13>Feb  1 24:00:00 h app: x",
            "<13>1 2023-02-31T00:00:00Z h app - - - x", "<13>1 2023-02-01T24:00:00Z h app - - - x",
            "<13>Foo  1 00:00:00 h app: x",
        ):
            first = _same_parse(line)
            assert first[0] is None and first == _same_parse(line)
        assert not rfc_mod._STAMPS

    def test_the_memo_keys_on_the_second_and_keeps_no_long_key(self, cap):
        """Fractions and offsets of one RFC 5424 second share its entry
        (the stamp is read to the second, as before); an RFC 3164 stamp
        stretched with whitespace parses as it did and is not kept."""
        for tail in ("Z", ".000001Z", ".999999+02:00", ".5", "junk" * 2000):
            message, error = _same_parse(f"<13>1 2023-02-01T00:00:07{tail} h app 7 - - x",
                                         max_bytes=None)
            assert error is None and message.timestamp == 86400.0 * 30 + 7
        assert list(rfc_mod._STAMPS) == ["2023-02-01T00:00:07"]
        for _sight in range(2):
            message, error = _same_parse("<13>Feb" + " " * 4000 + "1 00:00:07 h app: x")
            assert error is None and message.timestamp == 86400.0 * 30 + 7
        _same_parse("<13>Feb 1 00:00:07 h app: x")
        assert set(rfc_mod._STAMPS) == {"2023-02-01T00:00:07", "Feb 1 00:00:07"}

    def test_a_repeated_second_hits_and_a_full_memo_clears(self, cap):
        seconds = [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 5, 6, 7, 8, 9, 0, 0]
        for i, s in enumerate(seconds):
            line = (f"<13>Feb  1 00:00:{s:02d} h app[{i}]: x" if i % 2
                    else f"<13>1 2023-02-01T00:00:{s:02d}Z h app {i} - - x")
            message, error = _same_parse(line)
            assert error is None and message.timestamp == 86400.0 * 30 + s
            assert message.pid == i
        assert 0 < len(rfc_mod._STAMPS) <= rfc_mod.STAMP_MEMO_MAX_ENTRIES


def _same_strict_parse(line):
    """``parse_line`` against the reference: the same message or the same error."""
    try:
        want = reference_parse_line(line)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            rfc_mod.parse_line(line)
        assert str(got.value) == str(exc)
        return None
    got = rfc_mod.parse_line(line)
    assert got == want, line
    return got


class TestNameMemo:
    """Host and app names come out of one bounded memo: a host's lines
    share one string, the memo never outgrows its cap or keeps a long
    name, and no verdict, field or error string moves."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        rfc_mod._NAMES.clear()
        yield
        rfc_mod._NAMES.clear()

    def test_a_hosts_lines_share_one_name_string(self):
        lines = [
            "<13>1 2023-02-01T00:00:07Z cn042 sshd 7 - - one",
            "<13>1 2023-02-01T00:00:08Z cn042 sshd 8 - - two",
            "<13>Feb  1 00:00:09 cn042 sshd[9]: three",
            "<13>Feb  1 00:00:10 cn042  sshd [10]: four",
        ]
        parsed = [_same_strict_parse(line) for line in lines]
        assert all(m.hostname is parsed[0].hostname for m in parsed)
        assert all(m.app is parsed[0].app for m in parsed)
        assert [m.text for m in parsed] == ["one", "two", "three", "four"]

    def test_distinct_hostnames_leave_the_memo_at_its_cap(self):
        for i in range(10_000):
            stamp = i % 60
            line = (f"<13>1 2023-02-01T00:00:{stamp:02d}Z host{i:05d} app{i % 3} {i} - - x"
                    if i % 2 else f"<13>Feb  1 00:00:{stamp:02d} host{i:05d} app{i % 3}[{i}]: x")
            if i % 97 == 0:
                assert _same_strict_parse(line).hostname == f"host{i:05d}"
                assert _same_parse(line.encode())[0].hostname == f"host{i:05d}"
            else:
                rfc_mod.parse_line(line)
            assert len(rfc_mod._NAMES) <= rfc_mod.NAME_MEMO_MAX_ENTRIES
        assert rfc_mod._NAMES

    def test_an_over_long_name_is_not_kept(self):
        host, app = "h" * (rfc_mod._NAME_CHARS + 1), "a" * 4000
        for line in (f"<13>1 2023-02-01T00:00:07Z {host} {app} 7 - - x",
                     f"<13>Feb  1 00:00:07 {host} {app}: x"):
            message = _same_strict_parse(line)
            assert (message.hostname, message.app) == (host, app)
        assert not rfc_mod._NAMES
        _same_strict_parse("<13>Feb  1 00:00:07 " + "h" * rfc_mod._NAME_CHARS + " app: x")
        assert set(rfc_mod._NAMES) == {"h" * rfc_mod._NAME_CHARS, "app"}

    @seed(SEED_SHIFT)
    @given(st.lists(st.one_of(_wire_line, _rendered), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_hostile_lines_under_a_two_entry_memo(self, run):
        """The door corpus again with the memo capped at two names, so
        hits, misses and clears interleave inside one line."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rfc_mod, "NAME_MEMO_MAX_ENTRIES", 2)
            for line in run:
                for raw in (line, line.encode("utf-8", errors="replace")):
                    _same_parse(raw)
                    _same_parse(raw, max_bytes=None)
                stripped = line.strip("\r\n\x00 \t")
                if stripped:
                    _same_strict_parse(stripped)
                assert len(rfc_mod._NAMES) <= 2
                assert all(len(name) <= rfc_mod._NAME_CHARS for name in rfc_mod._NAMES)


def test_decimal_digits_are_the_digits_the_pattern_took():
    """``str.isdecimal`` reads PRI where ``\\d{1,3}`` did: the two agree
    on every code point, and ``int`` reads each of them."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    digits = set(re.findall(r"\d", everything))
    assert digits == {c for c in everything if c.isdecimal()}
    assert all(0 <= int(c) <= 9 for c in digits)
