"""The dashboard client: five Grafana-style queries and their brute-force twins.

The rotation is what a refresh of the paper's panels costs the store: two
message-rate histograms, the busiest hosts, the severity mix and a term search.
``mismatches`` recomputes each answer from ``iter_documents()`` alone, which is
what the oracle holds the store's own answers against at quiescence.
"""

from __future__ import annotations

from collections import Counter

from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tokenize import Tokenizer

KINDS = (
    "date_histogram_recent",
    "date_histogram",
    "terms_aggregation",
    "severity_histogram",
    "term_query",
)
INTERVAL_S = 60.0
TERM = "error"
TERM_LIMIT = 50
TOP_HOSTS = 10


def recent_window(oldest: float, newest: float) -> tuple[float, float]:
    """The last tenth of the log time the store holds."""
    return newest - 0.1 * (newest - oldest), newest + 1.0


def run(store, kind: str, oldest: float, newest: float):
    t0, t1 = recent_window(oldest, newest)
    if kind == "date_histogram_recent":
        return store.date_histogram(interval_s=INTERVAL_S, t0=t0, t1=t1)
    if kind == "date_histogram":
        return store.date_histogram(interval_s=INTERVAL_S)
    if kind == "terms_aggregation":
        return store.terms_aggregation("hostname", top=TOP_HOSTS)
    if kind == "severity_histogram":
        return store.severity_histogram(t0=t0, t1=t1)
    if kind == "term_query":
        return store.term_query(TERM, limit=TERM_LIMIT)
    raise ValueError(f"unknown dashboard query {kind!r}")


def _histogram(times: list[float], start_from: float | None) -> list[tuple[float, int]]:
    if not times:
        return []
    start = (start_from if start_from is not None else min(times)) // INTERVAL_S * INTERVAL_S
    counts = Counter(int((t - start) // INTERVAL_S) for t in times)
    return [
        (start + b * INTERVAL_S, counts.get(b, 0))
        for b in range(int((max(times) - start) // INTERVAL_S) + 1)
    ]


def mismatches(store, docs, oldest: float, newest: float) -> list[str]:
    """Every dashboard answer that differs from a pass over ``docs``, the
    store's ``iter_documents()``."""
    t0, t1 = recent_window(oldest, newest)
    tokenizer, normalizer = Tokenizer(), MaskingNormalizer()
    times, recent_times, hosts, severities = [], [], Counter(), Counter()
    term_hits: list[int] = []
    for doc in docs:
        m = doc.message
        times.append(m.timestamp)
        hosts[m.hostname] += 1
        if t0 <= m.timestamp < t1:
            recent_times.append(m.timestamp)
            severities[m.severity] += 1
        # the query returns the lowest matching ids; a token is a substring of
        # the lower-cased text, which spares most documents the analysis
        if len(term_hits) < TERM_LIMIT and (
            TERM in (m.hostname.lower(), m.app.lower())
            or (
                TERM in m.text.lower()
                and TERM in tokenizer.tokenize(normalizer.normalize(m.text))
            )
        ):
            term_hits.append(doc.doc_id)
    out = []
    got = run(store, "date_histogram_recent", oldest, newest)
    if [(b.start, b.count) for b in got] != _histogram(recent_times, t0):
        out.append("date_histogram over the recent window differs from the documents")
    got = run(store, "date_histogram", oldest, newest)
    if [(b.start, b.count) for b in got] != _histogram(times, None):
        out.append("date_histogram over everything differs from the documents")
    got = run(store, "terms_aggregation", oldest, newest)
    rest = [n for host, n in hosts.items() if host not in dict(got)]
    if (
        len(got) != min(TOP_HOSTS, len(hosts))
        or any(hosts[host] != n for host, n in got)
        or (rest and got and max(rest) > min(n for _h, n in got))
    ):
        out.append("terms_aggregation(hostname) differs from the documents")
    if run(store, "severity_histogram", oldest, newest) != dict(severities):
        out.append("severity_histogram differs from the documents")
    got = run(store, "term_query", oldest, newest)
    if [d.doc_id for d in got.docs] != term_hits or got.total < len(term_hits):
        out.append(f"term_query({TERM!r}) differs from the documents")
    return out
