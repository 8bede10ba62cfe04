"""A miniature OpenSearch: sharded store with a real inverted index.

§4.2: "Database support is provided by an Opensearch service deployed
across 6 of the Dell servers ... This system has allowed us to store
and search over thirty million log records a month."  The experiments
need the *capabilities* — term search, time-range filters, and the
aggregations Grafana panels are built on — not the distributed systems
internals, so :class:`LogStore` implements:

- round-robin document sharding (6 shards like the paper's 6 data
  nodes; per-shard stats let the capacity bench reason about balance),
- an inverted index token → sorted doc-id postings (masked-normalized
  tokens, so searches generalize over volatile fields),
- term / all-terms / phrase queries with time-range filtering,
- ``date_histogram`` and ``terms`` aggregations — the backbone of the
  §4.5 frequency and grouping analyses.

The seven queries are written once, in :class:`_Queries`, over four
primitives — a column over a time range, that range's hits, the hits
filed under every one of some terms, the documents of some hits.
:class:`LogStore` answers those from its time index, postings and two
columns (message, category: a :class:`LogDocument` is built when read);
:class:`~repro.replication.ReplicatedLogStore` inherits the same queries
and answers the primitives from its acting primaries' ``LogStore``s.
"""

from __future__ import annotations

import bisect
import time
from array import array
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, repeat
from operator import attrgetter

from repro.core.message import Severity, SyslogMessage
from repro.core.taxonomy import Category
from repro.obs.propagation import carried, record_hop
from repro.textproc.normalize import ANALYSIS_MEMO_MAX_ENTRIES, normalize_message
from repro.textproc.tokenize import index_tokens

__all__ = ["LogDocument", "LogStore", "QueryResult", "DateHistogramBucket"]

_NO_TIME = float("-inf")  # earlier than any timestamp


def _ids() -> array:
    """An empty run of doc ids: machine words, not ``int`` objects.

    Unsigned, because a doc id is never negative and CPython converts an
    item for an unsigned array directly, where a signed one goes through
    ``PyArg_Parse``: an append costs 27 ns, not 67 (a list's, 19; CPython
    3.11 on a 2-vCPU x86-64 host).
    """
    return array("Q")


def _analyze(text: str) -> tuple[str, ...]:
    """Index-time analysis for :class:`LogStore` and
    :class:`~repro.replication.ReplicatedLogStore`: mask, then tokenize;
    equal to ``tokenize(normalize_reference(text))`` on every input.
    Lines of a template the process has seen — or the classifier has
    just analysed — cost one mask and one lookup
    (:meth:`~repro.textproc.tokenize.Tokenizer.index_tokens`)."""
    return index_tokens(normalize_message(text))


@dataclass(frozen=True, slots=True)
class LogDocument:
    """One indexed log record, built when it is read: a store keeps a
    message column and a category column, not a document per line."""

    doc_id: int
    message: SyslogMessage
    category: Category | None = None  # classifier-assigned, if any


@dataclass(frozen=True)
class QueryResult:
    """Documents matching a query, plus timing-free metadata."""

    docs: tuple[LogDocument, ...]
    total: int


@dataclass(frozen=True)
class DateHistogramBucket:
    """One time bucket of a date-histogram aggregation."""

    start: float
    count: int


class _Queries:
    """The seven queries of the store surface, each written once.

    :class:`LogStore` and :class:`~repro.replication.ReplicatedLogStore`
    inherit them and supply four primitives of their own.  A *hit* is
    whatever a store names a document by (``LogStore``: its doc id), so
    that hits are counted and cut before any document is built:

    ``_iter_range(t0, t1, categories=False)``
        the message — with ``categories``, the category — of every
        document with ``t0 <= timestamp < t1`` (``None`` leaves that
        side open), each once, lazily, in an order that is a function of
        the store's contents.  This is the count-only path: an
        aggregation reads the column it counts, and no document is built
        for a row scanned.
    ``_range_hits(t0, t1)``
        a hit for each of those documents, in (timestamp, doc id) order.
    ``_term_hits(terms, t0, t1, max_severity=None)``
        a hit for each document of that range whose postings hold every
        one of the lower-cased ``terms`` (hostnames, apps or tokens), at
        ``max_severity`` or more urgent, in ascending doc id.
    ``_documents(hits)``
        the documents of ``hits``, in order, under the store's doc ids.
    """

    def _iter_range(self, t0: float | None, t1: float | None, categories: bool = False):
        raise NotImplementedError

    def _range_hits(self, t0: float | None, t1: float | None):
        raise NotImplementedError

    def _term_hits(self, terms: Sequence[str], t0, t1, max_severity: "Severity | None" = None):
        raise NotImplementedError

    def _documents(self, hits):
        raise NotImplementedError

    def _result(self, hits, limit: int | None) -> QueryResult:
        """Count ``hits``, cut them to ``limit``, build what is left."""
        hits = list(hits)
        return QueryResult(docs=tuple(self._documents(hits[:limit])), total=len(hits))

    def _range_times(self, t0: float | None, t1: float | None) -> list[float]:
        """Ascending timestamps of the documents in [t0, t1)."""
        return sorted(map(attrgetter("timestamp"), self._iter_range(t0, t1)))

    # -- document queries ---------------------------------------------------

    def term_query(
        self,
        term: str,
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
        max_severity: "Severity | None" = None,
    ) -> QueryResult:
        """Documents containing ``term`` (hostname/app/token match).

        ``max_severity`` keeps only documents at that severity or more
        urgent (syslog severities are lower-is-more-urgent, so this is
        a numeric upper bound — ``max_severity=Severity.WARNING`` means
        warnings, errors, criticals, alerts, and emergencies).
        """
        return self._result(self._term_hits((term.lower(),), t0, t1, max_severity), limit)

    def all_terms_query(
        self,
        terms: Sequence[str],
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """Documents containing every term (AND of postings)."""
        if not terms:
            raise ValueError("all_terms_query requires at least one term")
        return self._result(self._term_hits([t.lower() for t in terms], t0, t1), limit)

    def phrase_query(
        self,
        phrase: str,
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """AND-query on the phrase's tokens, verified by substring match
        on the masked text (like a match_phrase over a keyword subfield)."""
        tokens = _analyze(phrase)
        if not tokens:
            raise ValueError(f"phrase {phrase!r} yields no tokens")
        cand = self.all_terms_query(tokens, t0=t0, t1=t1)
        needle = " ".join(tokens)
        docs = [d for d in cand.docs if needle in " ".join(_analyze(d.message.text))]
        return QueryResult(docs=tuple(docs[:limit]), total=len(docs))

    def time_range(self, t0: float, t1: float) -> QueryResult:
        """All documents with t0 <= timestamp < t1."""
        return self._result(self._range_hits(t0, t1), None)

    # -- aggregations ------------------------------------------------------

    def date_histogram(
        self,
        *,
        interval_s: float,
        t0: float | None = None,
        t1: float | None = None,
        term: str | None = None,
    ) -> list[DateHistogramBucket]:
        """Counts per fixed time interval (Grafana's message-rate panel).

        Empty intermediate buckets are included so plots show gaps.
        """
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if term is not None:
            docs = self.term_query(term, t0=t0, t1=t1).docs
            times = sorted(d.message.timestamp for d in docs)
        else:
            times = self._range_times(t0, t1)
        if not times:
            return []
        start = (t0 if t0 is not None else times[0]) // interval_s * interval_s
        counts: Counter[int] = Counter(int((t - start) // interval_s) for t in times)
        n_buckets = int((times[-1] - start) // interval_s) + 1
        return [
            DateHistogramBucket(start=start + b * interval_s, count=counts.get(b, 0))
            for b in range(n_buckets)
        ]

    def terms_aggregation(
        self,
        field_name: str,
        *,
        top: int = 10,
        t0: float | None = None,
        t1: float | None = None,
    ) -> list[tuple[str, int]]:
        """Top values of a document field (hostname/app/category),
        highest count first; equal counts in value order, so the answer
        does not depend on which copy of a document was counted first.

        Raises
        ------
        ValueError
            Unknown field name.
        """
        if field_name not in ("hostname", "app", "category"):
            raise ValueError(f"cannot aggregate on field {field_name!r}")
        if field_name == "category":
            by_category = Counter(self._iter_range(t0, t1, categories=True))
            by_category.pop(None, None)  # not yet classified
            counts = [(c.value, n) for c, n in by_category.items()]
        else:
            counts = Counter(map(attrgetter(field_name), self._iter_range(t0, t1))).items()
        return sorted(counts, key=lambda kv: (-kv[1], kv[0]))[:top]

    def severity_histogram(
        self, *, t0: float | None = None, t1: float | None = None
    ) -> dict[Severity, int]:
        """Document counts per severity level (dashboard panel)."""
        return dict(Counter(map(attrgetter("severity"), self._iter_range(t0, t1))))


class LogStore(_Queries):
    """Sharded, inverted-indexed log document store.

    Parameters
    ----------
    n_shards:
        Shard count (paper deployment: 6 data nodes).
    """

    def __init__(self, n_shards: int = 6) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        # a document is two rows, read back as a LogDocument by get()
        self._messages: list[SyslogMessage] = []
        self._categories: list[Category | None] = []
        self._shard_counts = [0] * n_shards
        # doc ids are machine words here and in the time order: a stored
        # line leaves no int object behind
        self._postings: dict[str, array] = defaultdict(_ids)
        # token tuple -> () on first sight, then (distinct tokens, the
        # bound ``append`` of each one's posting list); see index_many
        self._plans: dict[tuple[str, ...], tuple] = {}
        self._times: list[float] = []  # per doc_id, indexing order
        # Time index, sorted lazily: streams arrive mostly in time
        # order (append-only), while bulk loads may be shuffled — an
        # insertion sort per document would be quadratic there, so the
        # sorted view is rebuilt on demand instead.
        self._time_order = _ids()  # doc ids sorted by timestamp
        self._time_sorted: list[float] = []
        self._time_dirty = False

    # -- indexing -------------------------------------------------------

    def index(
        self, message: SyslogMessage, category: Category | None = None
    ) -> int:
        """Index one message; returns its doc id."""
        return self.index_many([message], categories=[category])[0]

    def index_many(
        self,
        messages: Sequence[SyslogMessage],
        tokens: Sequence[tuple[str, ...]] | None = None,
        categories: Sequence[Category | None] | None = None,
    ) -> range:
        """Index a run of messages; returns their doc ids, ascending.

        The one postings-maintenance routine.  ``tokens`` is the
        per-message analysis when the caller already has it (the
        replicated store analyzes a batch once for all its owners);
        otherwise every message is analyzed here *before* the first
        document lands, so a poison message fails the run with the
        store unchanged — as does a ``tokens`` or ``categories`` column
        of another length than ``messages`` (:class:`ValueError`).

        A template's tokens are deduplicated and bound to their posting
        lists once, in a *plan* keyed by the token tuple the analysis
        memo shares between lines of one template: every later line of
        that template costs one append per distinct token.  A template
        earns its plan on second sight — for text that never repeats a
        plan is pure overhead, so the first sight costs one lookup.
        """
        if tokens is None:
            tokens = [_analyze(m.text) for m in messages]
        elif len(tokens) != len(messages):
            raise ValueError(f"{len(tokens)} token rows for {len(messages)} messages")
        if categories is not None and len(categories) != len(messages):
            raise ValueError(f"{len(categories)} categories for {len(messages)} messages")
        first = len(self._messages)
        ids = range(first, first + len(messages))
        postings, plans = self._postings, self._plans
        n_shards, shard_counts = self.n_shards, self._shard_counts
        times, time_sorted = self._times, self._time_sorted
        last = time_sorted[-1] if time_sorted else _NO_TIME
        for doc_id, message, toks in zip(ids, messages, tokens):
            shard_counts[doc_id % n_shards] += 1
            plan = plans.get(toks)
            if plan is None:  # first sight: remember it, index it longhand
                if len(plans) >= ANALYSIS_MEMO_MAX_ENTRIES:
                    plans.clear()
                plans[toks] = ()
                seen = dict.fromkeys(toks)
                for tok in seen:
                    postings[tok].append(doc_id)
            else:
                if not plan:  # second sight: the template repeats
                    seen = dict.fromkeys(toks)
                    plan = plans[toks] = (
                        seen, [postings[tok].append for tok in seen]
                    )
                seen, appends = plan
                for append in appends:
                    append(doc_id)
            host = message.hostname.lower()
            if host not in seen:
                postings[host].append(doc_id)
            app = message.app.lower()
            if app not in seen and app != host:
                postings[app].append(doc_id)
            ts = message.timestamp
            if ts < last:
                self._time_dirty = True
            last = ts
            time_sorted.append(ts)
            times.append(ts)
        self._time_order.extend(ids)
        self._messages.extend(messages)
        self._categories.extend(categories or repeat(None, len(ids)))
        return ids

    def _ensure_time_index(self) -> None:
        """Re-sort the time index after a late line: a stable argsort of
        the timestamps (ties in doc-id order, a NaN last), kept as machine
        words, with no ``int`` object a document on the way."""
        if self._time_dirty:
            import numpy as np  # a store that never saw a late line never sorts

            times = self._times
            order = np.argsort(np.array(times, dtype=np.float64), kind="stable")
            self._time_order = array("Q", order.astype(np.uint64).tobytes())
            self._time_sorted = list(map(times.__getitem__, self._time_order))
            self._time_dirty = False

    def bulk_index(self, messages: Sequence[SyslogMessage]) -> bool:
        """Index a batch (the Fluentd sink contract), all-or-nothing.

        Every message is analyzed *before* the first document lands, so
        a poison message (undecodable text, a tokenizer crash) fails
        the whole batch cleanly: the exception propagates with the
        store unchanged, the forwarder counts a failed flush, and the
        batch stays buffered for retry — no half-indexed flush.

        When the caller carries sampled trace contexts
        (:func:`repro.obs.propagation.carrying`), a ``store.index`` hop
        is recorded per context — the cross-hop trace's store stop on
        the single-node path.
        """
        ctxs, clock = carried()
        wall_t0 = time.perf_counter() if ctxs else 0.0
        self.index_many(messages)
        if ctxs:
            now = clock()
            wall_ms = (time.perf_counter() - wall_t0) * 1e3
            for ctx in ctxs:
                record_hop(
                    ctx, "store.index", now,
                    docs=len(messages), wall_ms=round(wall_ms, 3),
                )
        return True

    def set_category(self, doc_id: int, category: Category) -> None:
        """Attach a classifier verdict to an already-indexed document.

        Raises
        ------
        IndexError
            ``doc_id`` outside ``[0, len(store))`` — a negative id is
            not a position counted from the end.
        """
        if not 0 <= doc_id < len(self._categories):
            raise IndexError(f"doc id {doc_id} out of range")
        self._categories[doc_id] = category

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._messages)

    def get(self, doc_id: int) -> LogDocument:
        """Fetch by id (IndexError when absent, or negative)."""
        if doc_id < 0:
            raise IndexError(f"doc id {doc_id} out of range")
        return LogDocument(doc_id, self._messages[doc_id], self._categories[doc_id])

    # -- the query primitives (the queries themselves: _Queries) ------------

    def _time_slice(self, t0: float | None, t1: float | None) -> tuple[int, int]:
        """Bounds of [t0, t1) in the sorted time index."""
        self._ensure_time_index()
        lo = bisect.bisect_left(self._time_sorted, t0) if t0 is not None else 0
        hi = (
            bisect.bisect_left(self._time_sorted, t1)
            if t1 is not None else len(self._time_sorted)
        )
        return lo, hi

    def _range_hits(self, t0: float | None, t1: float | None) -> array:
        """Doc ids of [t0, t1) in (timestamp, doc id) order: the range's
        slice of the time order, the one thing a ranged read copies."""
        lo, hi = self._time_slice(t0, t1)
        return self._time_order[lo:hi]

    def _column(self, ids, categories: bool = False):
        """The message (or category) of each of ``ids``, lazily."""
        return map((self._categories if categories else self._messages).__getitem__, ids)

    def _iter_range(self, t0, t1, categories=False):
        return self._column(self._range_hits(t0, t1), categories)

    def _documents(self, hits):
        return map(self.get, hits)

    def _term_hits(self, terms, t0, t1, max_severity=None):
        """AND of the terms' postings, shortest list first; only the
        doc ids every list names are cut by time and severity."""
        lists = sorted((self._postings.get(t, ()) for t in terms), key=len)
        ids = lists[0]  # one term: its postings, ascending as appended
        if len(lists) > 1:
            found = set(ids)
            for lst in lists[1:]:
                if not found:
                    break
                found &= set(lst)
            ids = sorted(found)
        if t0 is not None or t1 is not None:
            lo = t0 if t0 is not None else float("-inf")
            hi = t1 if t1 is not None else float("inf")
            times = self._times
            ids = (i for i in ids if lo <= times[i] < hi)
        if max_severity is not None:
            messages = self._messages
            ids = (i for i in ids if messages[i].severity <= max_severity)
        return ids

    def _range_times(self, t0: float | None, t1: float | None) -> list[float]:
        lo, hi = self._time_slice(t0, t1)
        return self._time_sorted[lo:hi]

    def iter_documents(self):
        """Iterate every document in doc-id order (checkpoint path)."""
        return map(LogDocument, count(), self._messages, self._categories)

    # -- ops visibility -----------------------------------------------------

    def shard_counts(self) -> list[int]:
        """Documents per shard (balance check)."""
        return list(self._shard_counts)

    def index_stats(self) -> dict[str, int]:
        """Coarse index size statistics."""
        return {
            "docs": len(self),
            "unique_terms": len(self._postings),
            "postings": sum(len(p) for p in self._postings.values()),
        }
