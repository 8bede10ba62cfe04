"""RUNTIME — per-message vs batch classify throughput.

The ROADMAP's north star ("as fast as the hardware allows") and §5's
feasibility bar (>1M messages/hour) both hinge on the batch-first
hot path: per-message calls pay Python overhead 50k times, the batch
path pays it once per batch.  This bench measures both strategies on
the same ≥50k-message corpus and prints the per-stage breakdown for
the batch path.

The template-dedup matrix (``test_template_cache_matrix``) measures
the memoized fast path across target hit rates, writes the rows to
``BENCH_template_cache_matrix.json`` (CI publishes it as a job
artifact) and holds the 95% row to two same-process bars: the cached
cost, in units of the regex-chain oracle's cost over the same lines,
may not exceed what it was before the masker itself was memoized, and
the cache must still win ≥3.5× over the — now much cheaper — uncached
path.

The batch-size lane (``test_batch_size_lane``) is the other end of the
scale: the paced spine flushes one to three lines at a time, so it
times ``classify_batch`` on all-hit and all-miss lines at 1/3/10/100/500
rows — µs per call and per line, the miss side also with the
matrix-by-matrix TF-IDF weighting it had before (kept in
``tests/reference_tfidf.py``) — and writes ``BENCH_batch_size_lane.json``.

The text-analysis lane (``test_text_analysis_lane``) is what a line
pays before any of that: mask, index tokens and lemmas, the token-wise
memo-sharing pass beside the staged chain it replaced (kept in
``tests/reference_textproc.py``), µs and counted operations per line,
and a first-sight row per spine workload (burst lines masked once after
the paced phase), written to ``BENCH_text_analysis.json``.

The small-batch floors (``TestSmallBatchFloors``) are the wall-clock
ratios tier-1 once held: a one-row ``transform_analyzed`` beside the
matrix-by-matrix one (≤ 0.4×), and a one-line all-hit ``classify_batch``
in lines of a 500-line one (≤ 18).  Tier-1 now counts what they timed
(one CSR built a row; no metric resolved per steady batch); here each
ratio is a ledger row in ``BENCH_small_batch_floors.json``.

Environment knob: ``REPRO_BENCH_SCALING_N`` (corpus size, default
50000).
"""

from __future__ import annotations

import os
import random
import string
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import BENCH_SEED, emit, write_artifact

from repro.core.pipeline import ClassificationPipeline
from repro.core.template_cache import TemplateCache
from repro.datagen.generator import CorpusGenerator
from repro.experiments.common import format_table
from repro.ml import ComplementNB
from repro.ml.model_selection import train_test_split
from repro.obs import MetricsRegistry, use_registry
from repro.stream.rfc import safe_parse_line
from repro.textproc import Lemmatizer, MaskingNormalizer, Tokenizer
from repro.textproc.tfidf import TfidfVectorizer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "spine"))

import workloads as spine_workloads  # noqa: E402
from reference_textproc import (  # noqa: E402
    clear_memos,
    counted,
    reference_lemmatize,
    reference_tokenize,
)
from reference_tfidf import reference_transform_analyzed  # noqa: E402

N_MESSAGES = int(os.environ.get("REPRO_BENCH_SCALING_N", "50000"))
# the per-message path is extrapolated from a subsample — timing the
# seed-style loop over all 50k messages would dominate the bench
PER_MESSAGE_PROBE = 2000
# messages per hit-rate row of the template-cache matrix
MATRIX_N = int(os.environ.get("REPRO_BENCH_MATRIX_N", "20000"))
# the speed-up of the uncached side lowers the cached/uncached ratio,
# so the cached side is also held to its own old cost.  The yardstick
# is ``normalize_reference`` timed over the same lines in the same
# process (frozen oracle code, so it scales with the runner and not
# with this repo): before ``normalize`` was token-wise (PR 13) the
# cached path cost 9.5 µs/msg against 36 for the chain, 0.26; now ~0.15
CACHED_VS_REFERENCE_MAX_AT_95 = 0.25
SPEEDUP_FLOOR_AT_95 = 3.5
# the batch-size lane: rows per call, never-seen lines per size and round
LANE_SIZES = (1, 3, 10, 100, 500)
LANE_MISS_LINES = 1500
LANE_ROUNDS = 5
# the text-analysis lane: lines per workload drawn from the spine benchmark
ANALYSIS_LINES = 4000


def test_runtime_scaling(benchmark):
    corpus = CorpusGenerator(scale=0.02, seed=BENCH_SEED).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    texts = (corpus.texts * (N_MESSAGES // len(corpus.texts) + 1))[:N_MESSAGES]
    batch = tuple(texts)
    assert len(batch) >= 50_000 or N_MESSAGES < 50_000

    # (a) the seed's per-message path: one classify() call per message
    t0 = time.perf_counter()
    for t in texts[:PER_MESSAGE_PROBE]:
        pipe.classify(t)
    per_message_s = (time.perf_counter() - t0) / PER_MESSAGE_PROBE

    # (b) serial batch-first path, one columnar batch; the pipeline's
    # own service-time accounting is the measurement
    pipe.reset_timing()
    svc_before = pipe.service_seconds
    benchmark.pedantic(lambda: pipe.classify_batch(batch), rounds=1, iterations=1)
    serial_s = (pipe.service_seconds - svc_before) / len(batch)
    stage_report = pipe.timing_report()

    rows = [
        ["per-message (seed path)", f"{per_message_s * 1e6:.1f}",
         f"{1.0 / per_message_s:,.0f}", f"{3600.0 / per_message_s:,.0f}"],
        ["serial batch", f"{serial_s * 1e6:.1f}",
         f"{1.0 / serial_s:,.0f}", f"{3600.0 / serial_s:,.0f}"],
    ]
    emit(
        f"Runtime scaling — {len(batch):,} messages",
        format_table(["strategy", "µs/msg", "msg/s", "msg/h"], rows)
        + "\n\nserial batch per-stage breakdown:\n"
        + stage_report.render(),
    )

    # the batch path must never lose to the per-message path it replaced
    assert serial_s <= per_message_s * 1.05, (
        f"serial batch path slower than per-message path: "
        f"{serial_s:.2e}s vs {per_message_s:.2e}s per message"
    )
    # §5 feasibility: even one serial process clears 1M messages/hour
    assert 3600.0 / serial_s > 1_000_000


def _letters(n: int) -> str:
    """Base-26 letters-only encoding of ``n``.

    Unique filler messages must not contain digit tokens: the masking
    normalizer would collapse ``unique 17`` and ``unique 18`` into one
    template and the "miss" messages would silently become hits.
    """
    out = []
    while True:
        n, r = divmod(n, 26)
        out.append(string.ascii_lowercase[r])
        if n == 0:
            return "".join(reversed(out))


def _matrix_workload(
    pool: list[str], hit_rate: float, n: int, salt: str
) -> list[str]:
    """``n`` messages: ``hit_rate`` of draws from the template pool,
    the rest unique single-occurrence messages (guaranteed misses)."""
    rng = random.Random(f"cache-matrix:{salt}")
    out = []
    for i in range(n):
        if rng.random() < hit_rate:
            out.append(pool[rng.randrange(len(pool))])
        else:
            out.append(f"unique payload {salt}{_letters(i)} marker zz")
    return out


def test_template_cache_matrix(benchmark):
    """Hit-rate × throughput matrix for the template-dedup fast path.

    Each row builds a workload whose steady-state cache hit rate is
    pinned near a target (pool draws hit, fresh unique messages miss),
    then times the same pipeline with the cache off and with a warmed
    ``TemplateCache``.  The bars at 95%: cached cost ≤
    ``CACHED_VS_REFERENCE_MAX_AT_95`` × the regex chain's over the same
    lines, speedup ≥ ``SPEEDUP_FLOOR_AT_95``.
    """
    corpus = CorpusGenerator(scale=0.01, seed=BENCH_SEED).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    pool = corpus.texts[:400]
    reference = MaskingNormalizer().normalize_reference

    targets = [0.50, 0.90, 0.95, 0.99]
    rows = []
    measured: dict[float, dict[str, float]] = {}
    for target in targets:
        # warm workload fills the pool templates; the timed workload
        # reuses the pool but carries *fresh* uniques so misses stay
        # misses and the observed hit rate tracks the target
        warm = _matrix_workload(pool, target, MATRIX_N, salt="w")
        timed = _matrix_workload(pool, target, MATRIX_N, salt="t")
        timed_batch = tuple(timed)

        pipe.template_cache = None
        t0 = time.perf_counter()
        baseline = pipe.classify_batch(timed_batch)
        uncached_s = (time.perf_counter() - t0) / len(timed)

        cache = TemplateCache(max_entries=4096)
        pipe.template_cache = cache
        try:
            pipe.classify_batch(warm)
            mark = cache.counters()

            def cached_run():
                return pipe.classify_batch(timed_batch)

            if target == 0.95:
                cached = benchmark.pedantic(cached_run, rounds=1, iterations=1)
                cached_s = benchmark.stats.stats.total / len(timed)
            else:
                t0 = time.perf_counter()
                cached = cached_run()
                cached_s = (time.perf_counter() - t0) / len(timed)
        finally:
            pipe.template_cache = None

        # the fast path must be invisible in the results
        assert [r.category for r in cached] == [r.category for r in baseline]

        after = cache.counters()
        hits = after["hits"] - mark["hits"]
        misses = after["misses"] - mark["misses"]
        observed = hits / max(1, hits + misses)
        speedup = uncached_s / cached_s
        measured[target] = {
            "observed_hit_rate": observed,
            "uncached_us_per_msg": uncached_s * 1e6,
            "cached_us_per_msg": cached_s * 1e6,
            "speedup": speedup,
        }
        if target == 0.95:
            t0 = time.perf_counter()
            for text in timed:
                reference(text)
            reference_s = (time.perf_counter() - t0) / len(timed)
            measured[target]["reference_us_per_msg"] = reference_s * 1e6
            measured[target]["cached_vs_reference"] = cached_s / reference_s
        rows.append([
            f"{target:.0%}", f"{observed:.1%}",
            f"{uncached_s * 1e6:.1f}", f"{cached_s * 1e6:.1f}",
            f"{speedup:.2f}x", f"{3600.0 / cached_s:,.0f}",
        ])

    table = format_table(
        ["target hit", "observed", "uncached µs/msg", "cached µs/msg",
         "speedup", "cached msg/h"],
        rows,
    )
    emit(f"Template-cache matrix — {MATRIX_N:,} messages/row", table)
    write_artifact("template_cache_matrix", {
        "messages_per_row": MATRIX_N,
        "rows": {f"{target:.2f}": row for target, row in measured.items()},
        "bars_at_95": {
            "cached_vs_reference_max": CACHED_VS_REFERENCE_MAX_AT_95,
            "speedup_min": SPEEDUP_FLOOR_AT_95,
        },
    })

    at_95 = measured[0.95]
    assert at_95["cached_vs_reference"] <= CACHED_VS_REFERENCE_MAX_AT_95, (
        f"cached path at 95% hits costs {at_95['cached_us_per_msg']:.1f} "
        f"us/msg, {at_95['cached_vs_reference']:.2f}x the regex chain's "
        f"{at_95['reference_us_per_msg']:.1f} (bar "
        f"{CACHED_VS_REFERENCE_MAX_AT_95})\n{table}"
    )
    assert at_95["speedup"] >= SPEEDUP_FLOOR_AT_95, (
        f"expected >={SPEEDUP_FLOOR_AT_95}x speedup at 95% hit rate, got "
        f"{at_95['speedup']:.2f}x\n{table}"
    )



def _lane_cost(call, batches: list[list[str]], before_round=None) -> float:
    """Seconds per ``call(batch)`` over ``batches``: best of LANE_ROUNDS."""
    best = float("inf")
    for _ in range(LANE_ROUNDS):
        if before_round is not None:
            before_round()
        t0 = time.perf_counter()
        for batch in batches:
            call(batch)
        best = min(best, (time.perf_counter() - t0) / len(batches))
    return best


def test_batch_size_lane(benchmark):
    """What ``classify_batch`` costs by batch size, all-hit and all-miss.

    The spine benchmark's pipeline (TF-IDF, ComplementNB, a 4096-entry
    template cache, a live registry).  Hit batches repeat cached
    templates; miss batches are corpus lines made unique by one
    never-seen word, classified from an empty cache each round (token
    memos stay warm, as they do in a long run).  The miss side runs
    twice, with ``transform_analyzed`` as it is and as it was.
    """
    corpus = CorpusGenerator(scale=0.02, seed=BENCH_SEED).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB(), template_cache=TemplateCache(4096))
    pipe.fit(corpus.texts, corpus.labels)
    vec = pipe.vectorizer
    pool = corpus.texts[:500]
    fresh = [
        f"{pool[i % len(pool)]} {_letters(i + 26 ** 5)}" for i in range(LANE_MISS_LINES)
    ]

    def as_it_was(docs):
        return reference_transform_analyzed(vec, docs)

    lane: dict[str, dict[str, float]] = {}
    rows = []
    with use_registry(MetricsRegistry()):
        # the fixture's own number: the trickle's case, one never-seen line a call
        benchmark.pedantic(
            lambda: [pipe.classify_batch([line]) for line in fresh], rounds=1, iterations=1
        )
        for size in LANE_SIZES:
            pipe.template_cache.clear()
            pipe.classify_batch(pool)
            hit_batches = [pool[i:i + size] for i in range(0, len(pool) - size + 1, size)]
            mark = pipe.template_cache.counters()
            hit_s = _lane_cost(pipe.classify_batch, hit_batches)
            assert pipe.template_cache.counters()["misses"] == mark["misses"]

            miss_batches = [fresh[i:i + size] for i in range(0, len(fresh) - size + 1, size)]
            costs = {}
            for name, transform in (("miss", None), ("miss_reference_transform", as_it_was)):
                if transform is not None:
                    vec.transform_analyzed = transform
                try:
                    mark = pipe.template_cache.counters()
                    costs[name] = _lane_cost(
                        pipe.classify_batch, miss_batches, pipe.template_cache.clear
                    )
                    assert pipe.template_cache.counters()["hits"] == mark["hits"]
                finally:
                    vec.__dict__.pop("transform_analyzed", None)
            lane[str(size)] = {
                "hit_us_per_call": hit_s * 1e6,
                "hit_us_per_line": hit_s * 1e6 / size,
                **{f"{name}_us_per_call": s * 1e6 for name, s in costs.items()},
                **{f"{name}_us_per_line": s * 1e6 / size for name, s in costs.items()},
            }
            rows.append([
                str(size), f"{hit_s * 1e6:.1f}", f"{hit_s * 1e6 / size:.2f}",
                f"{costs['miss'] * 1e6:.1f}", f"{costs['miss'] * 1e6 / size:.2f}",
                f"{costs['miss_reference_transform'] * 1e6:.1f}",
                f"{costs['miss_reference_transform'] * 1e6 / size:.2f}",
            ])

    table = format_table(
        ["rows", "hit µs/call", "µs/line", "miss µs/call", "µs/line",
         "miss, old transform µs/call", "µs/line"],
        rows,
    )
    emit("classify_batch by batch size — all-hit and all-miss lines", table)
    write_artifact("batch_size_lane", {
        "miss_lines_per_round": LANE_MISS_LINES, "rounds": LANE_ROUNDS, "rows": lane,
    })

    one, full = lane["1"], lane[str(LANE_SIZES[-1])]
    # a one-line miss no longer pays for seven matrices ...
    assert one["miss_us_per_call"] <= 0.7 * one["miss_reference_transform_us_per_call"], table
    # ... and a full batch pays no more per line for it
    assert full["miss_us_per_line"] <= 1.1 * full["miss_reference_transform_us_per_line"], table
    # a batch's fixed cost stays a small multiple of a full batch's line
    assert one["hit_us_per_call"] <= 25 * full["hit_us_per_line"], table


def _benchmark_texts(name: str, n: int) -> list[str]:
    """Message texts of a spine-benchmark workload, as its sink sees them."""
    lines = getattr(spine_workloads, name)(np.random.default_rng(BENCH_SEED), BENCH_SEED, n)[0]
    return [safe_parse_line(line)[0].text for line in lines]


def _hostile_draws(n: int) -> list[str]:
    """``n`` draws of the fuzz wall's ``_hostile_line``, the same every run."""
    from hypothesis import Phase, given, seed, settings
    from test_fuzz_properties import _hostile_line

    draws: list[str] = []

    @seed(BENCH_SEED)
    @settings(max_examples=n, database=None, phases=[Phase.generate], deadline=None)
    @given(_hostile_line)
    def collect(text):
        draws.append(text)

    collect()
    return draws


def _spine_phases(name: str) -> tuple[list[str], list[str]]:
    """A spine workload's accepted texts at the reference size: the paced
    phase's, then the bursts'."""
    inputs = spine_workloads.build(name, BENCH_SEED, spine_workloads.REFERENCE_SECONDS)
    phases, lo = [], 0
    for phase in (inputs.paced, *inputs.bursts):
        phases.append([
            safe_parse_line(phase.lines[i - lo])[0].text for i in phase.accepted_ordinals
        ])
        lo += len(phase.lines)
    return phases[0], [text for texts in phases[1:] for text in texts]


def _first_sight_row(norm: MaskingNormalizer, paced: list[str], bursts: list[str]) -> dict:
    """Every burst line masked once on the memos the paced phase warmed
    (the spine's order): µs a line (best of ``LANE_ROUNDS``) and, counted,
    ``sub`` calls, chain runs (whole line or number–unit window) and
    shape-memo hits a line."""
    best = float("inf")
    for _ in range(LANE_ROUNDS):
        clear_memos()
        norm.normalize_many(paced)
        t0 = time.perf_counter()
        norm.normalize_many(bursts)
        best = min(best, time.perf_counter() - t0)
    with counted() as counts:
        norm.normalize_many(paced)
        warm = counts.subs, counts.chain_runs, counts.shape_hits
        norm.normalize_many(bursts)
    n = max(1, len(bursts))
    return {
        "paced_lines": len(paced), "lines": len(bursts), "mask_us_per_line": best * 1e6 / n,
        "regex_subs_per_line": (counts.subs - warm[0]) / n,
        "chain_runs_per_line": (counts.chain_runs - warm[1]) / n,
        "shape_hits_per_line": (counts.shape_hits - warm[2]) / n,
    }


def _analysis_cost(step, lines) -> float:
    """µs per line of ``step(lines)``, every round from empty memos."""
    best = float("inf")
    for _ in range(LANE_ROUNDS):
        clear_memos()
        t0 = time.perf_counter()
        step(lines)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6 / max(1, len(lines))


def test_text_analysis_lane(benchmark):
    """Mask, index tokens, lemmas: the one token-wise pass beside the
    staged chain it replaced (``tests/reference_textproc.py``).

    µs per line (wall clock, best of ``LANE_ROUNDS``, each from empty
    memos) and counted operations per line, on the spine benchmark's
    hot, cold and fleet lines, on all-unique lines and on the fuzz
    wall's hostile draws.  "Index tokens" is what the sink does: the
    store asks for a masked line's tokens, then the classifier does.
    The ledger row of the floors ``tests/test_perf_smoke.py`` states as
    counts — and what decided that a line of never-seen tokens needs no
    whole-line route: masking each token behind its screens must cost
    no more than the chain over the line.  The "first sight" rows are
    the spine's own order on its hot, fleet and flood lines: the paced
    phase warms the memos, then every burst line is masked once — µs,
    ``sub`` calls, chain runs and shape-memo hits a line.
    """
    norm, tokenizer = MaskingNormalizer(), Tokenizer()
    rng = np.random.default_rng(BENCH_SEED)
    alphabet = np.array(list(string.ascii_lowercase + string.digits))
    inputs = {
        "hot": _benchmark_texts("_hot", ANALYSIS_LINES),
        "cold": _benchmark_texts("_cold", ANALYSIS_LINES),
        "fleet": _benchmark_texts("_fleet", ANALYSIS_LINES),
        "all_unique": [
            " ".join("".join(alphabet[rng.integers(0, 36, size=8)]) for _ in range(12))
            for _ in range(ANALYSIS_LINES // 2)
        ],
        "hostile": _hostile_draws(400),
    }

    def index_tokens_twice(masked):
        for i in range(0, len(masked), 500):  # a flush: the store's ask, then the classifier's
            for _ in range(2):
                for text in masked[i:i + 500]:
                    tokenizer.index_tokens(text)

    def whole_line_route(lines):
        """What the masker did for a line of mostly new tokens: the chain
        over the line, split back into per-token maskings for the memo."""
        memo: dict[str, str] = {}
        for text in lines:
            out = norm.normalize_reference(text).split()
            memo.update(zip(text.split(), out))
            " ".join(out)

    def reference_tokens_twice(masked):
        for _ in range(2):
            for text in masked:
                reference_tokenize(tokenizer, text)

    def reference_lemmas(docs):
        lemmatizer = Lemmatizer()
        for doc in docs:
            for token in doc:
                reference_lemmatize(lemmatizer, token)

    lane: dict[str, dict[str, float]] = {}
    rows = []
    for name, lines in inputs.items():
        masked = [norm.normalize_reference(line) for line in lines]
        docs = [reference_tokenize(tokenizer, text) for text in masked]
        assert [norm.normalize(line) for line in lines] == masked
        assert [list(tokenizer.index_tokens(text)) for text in masked] == docs
        timed = {
            "mask": _analysis_cost(norm.normalize_many, lines),
            "mask_reference": _analysis_cost(
                lambda batch: [norm.normalize_reference(line) for line in batch], lines
            ),
            "index_tokens": _analysis_cost(index_tokens_twice, masked),
            "index_tokens_reference": _analysis_cost(reference_tokens_twice, masked),
            "lemmas": _analysis_cost(lambda batch: Lemmatizer().lemmatize_docs(batch), docs),
            "lemmas_reference": _analysis_cost(reference_lemmas, docs),
        }
        with counted() as counts:
            norm.normalize_many(lines)
            index_tokens_twice(masked)
            Lemmatizer().lemmatize_docs(docs)
        n = max(1, len(lines))
        lane[name] = {
            **{f"{stage}_us_per_line": cost for stage, cost in timed.items()},
            "lines": len(lines),
            "tokens_per_line": sum(len(line.split()) for line in lines) / n,
            "regex_subs_per_line": counts.subs / n,
            "regex_subs_per_unseen_token": counts.subs / max(1, counts.unseen_tokens),
            "memo_probes_per_line": counts.memo_probes / n,
            "tokenize_calls_per_line": counts.tokenize_calls / n,
            "emit_calls_per_line": counts.emit_calls / n,
            "suffix_tests_per_line": counts.suffix_tests / n,
        }
        row = lane[name]
        rows.append([
            name,
            *(f"{timed[s]:.1f} / {timed[s + '_reference']:.1f}"
              for s in ("mask", "index_tokens", "lemmas")),
            f"{row['regex_subs_per_line']:.2f}", f"{row['regex_subs_per_unseen_token']:.2f}",
            f"{row['tokenize_calls_per_line']:.2f}", f"{row['emit_calls_per_line']:.2f}",
            f"{row['suffix_tests_per_line']:.2f}",
        ])
    benchmark.pedantic(lambda: norm.normalize_many(inputs["cold"]), rounds=1, iterations=1)

    table = format_table(
        ["lines", "mask µs/line new / chain", "index tokens ×2 new / _emit loop",
         "lemmas new / every rule", "subs/line", "subs/unseen token",
         "tokenize/line", "_emit/line", "suffix tests/line"],
        rows,
    )
    emit(f"Text analysis — one pass beside the staged chain, {ANALYSIS_LINES:,} lines", table)
    # lines of never-seen tokens, each token behind its screens against
    # the whole-line route the masker had for them: at or under 1.0 that
    # route is not worth keeping (reads 0.9-1.0; it is gone)
    whole_line_us = _analysis_cost(whole_line_route, inputs["all_unique"])
    per_token_vs_whole_line = lane["all_unique"]["mask_us_per_line"] / whole_line_us
    emit(
        "Text analysis — all-unique lines, per-token screens vs the whole-line route",
        f"{lane['all_unique']['mask_us_per_line']:.1f} / {whole_line_us:.1f} µs/line"
        f" = {per_token_vs_whole_line:.2f}",
    )
    first_sight = {
        name: _first_sight_row(norm, *_spine_phases(workload))
        for name, workload in (("hot", "hot_templates"), ("fleet", "fleet_dash"),
                               ("flood", "flood_reject"))
    }
    emit(
        "Text analysis — first sight: each burst line masked once after the paced phase",
        format_table(
            ["lines", "paced / burst lines", "mask µs/line", "subs/line", "chain runs/line",
             "shape hits/line"],
            [[name, f"{row['paced_lines']:,} / {row['lines']:,}", f"{row['mask_us_per_line']:.2f}",
              f"{row['regex_subs_per_line']:.2f}", f"{row['chain_runs_per_line']:.3f}",
              f"{row['shape_hits_per_line']:.2f}"] for name, row in first_sight.items()],
        ),
    )
    write_artifact("text_analysis", {
        "rounds": LANE_ROUNDS, "rows": lane, "first_sight": first_sight,
        "all_unique_whole_line_route_us_per_line": whole_line_us,
        "all_unique_per_token_vs_whole_line": per_token_vs_whole_line,
    })

    # counts, which hold on any host.  A flush's second ask finds the
    # first's answer unless the 2,048-entry memo filled in between:
    # 1.0 tokenisations a line under that many, ~1.06 over a long run
    assert lane["cold"]["tokenize_calls_per_line"] <= 1.1, table
    assert lane["cold"]["emit_calls_per_line"] <= 2.0, table
    for name in ("hot", "fleet"):
        assert lane[name]["regex_subs_per_unseen_token"] <= 5.0, table


# -- the small-batch floors ------------------------------------------------

#: the running floor's ratios, and each floor's last one by test name
_RATIOS: list[float] = []
_SMALL_BATCH_ROWS: dict[str, float] = {}


@pytest.fixture(scope="module")
def corpus():
    """The tier-1 suite's corpus: small but fully representative."""
    return CorpusGenerator(scale=0.005, seed=42).generate()


@pytest.fixture(scope="module")
def split(corpus):
    """(X_train, X_test, y_train, y_test, vectorizer) on the corpus."""
    labels = np.asarray([lab.value for lab in corpus.labels])
    tr_txt, te_txt, y_tr, y_te = train_test_split(
        corpus.texts, labels, test_size=0.25, seed=0
    )
    vec = TfidfVectorizer(max_features=1500)
    X_tr = vec.fit_transform(list(tr_txt))
    X_te = vec.transform(list(te_txt))
    return X_tr, X_te, y_tr, y_te, vec


def _best_ratio(numerator, denominator, rounds: int = 9) -> float:
    """``numerator()`` over ``denominator()`` (seconds each): alternating
    rounds, best round of each side; recorded for the ledger row."""
    passes = [(numerator(), denominator()) for _ in range(rounds)]
    _RATIOS.append(min(p[0] for p in passes) / min(p[1] for p in passes))
    return _RATIOS[-1]


def _zipf_draw(corpus, n: int = 15_000) -> list[str]:
    """Zipf-skewed draw over the corpus templates: a few shapes
    dominate, like production syslog."""
    rng = np.random.default_rng(0)
    ranks = np.minimum(rng.zipf(1.3, size=n) - 1, len(corpus) - 1)
    return [corpus.texts[r] for r in ranks]


class TestSmallBatchFloors:
    """A trickle flushes one to three lines at a time, so what a batch
    costs before its first row is what the paced regime pays per line.
    Ratios against a same-process yardstick only, each written to
    ``BENCH_small_batch_floors.json`` whether or not its bound held."""

    @pytest.fixture(autouse=True)
    def _ledger_row(self, request):
        _RATIOS.clear()
        yield
        if _RATIOS:
            _SMALL_BATCH_ROWS[request.node.name] = _RATIOS[-1]
            write_artifact("small_batch_floors", {"ratios": _SMALL_BATCH_ROWS})

    def test_one_row_transform_costs_under_half_the_matrix_by_matrix_one(self, split, corpus):
        """Weighting at array level (one CSR built) against the
        implementation it replaced (seven), kept in
        ``reference_tfidf.py``: reads 0.15-0.17."""
        from reference_tfidf import reference_transform_analyzed

        vec = split[4]
        rows = [[doc] for doc in vec.analyze_batch(corpus.texts[:300])]

        def timed(transform):
            def one_round() -> float:
                t0 = time.perf_counter()
                for row in rows:
                    transform(row)
                return time.perf_counter() - t0
            return one_round

        ratio = _best_ratio(
            timed(vec.transform_analyzed), timed(lambda row: reference_transform_analyzed(vec, row))
        )
        assert ratio <= 0.4, f"a one-row transform costs {ratio:.2f}x the reference"

    def test_a_one_line_all_hit_batch_costs_a_bounded_number_of_full_batch_lines(self, corpus):
        """The fixed cost of ``classify_batch`` — stage timers, batch and
        cache metrics — measured in lines of a 500-line all-hit batch:
        reads 10-11; 27-31 while every batch resolved its metric
        families and labels anew."""
        from repro.core.pipeline import ClassificationPipeline
        from repro.core.template_cache import TemplateCache
        from repro.ml import ComplementNB

        pipe = ClassificationPipeline(classifier=ComplementNB(), template_cache=TemplateCache(4096))
        pipe.timer.registry = MetricsRegistry()
        pipe.fit(corpus.texts, corpus.labels)
        full = _zipf_draw(corpus, 500)
        one = full[:1]
        pipe.classify_batch(full)  # fill the cache: everything below is a hit
        misses = pipe.template_cache.misses

        def one_line_call() -> float:
            t0 = time.perf_counter()
            for _ in range(400):
                pipe.classify_batch(one)
            return (time.perf_counter() - t0) / 400

        def full_batch_line() -> float:
            t0 = time.perf_counter()
            for _ in range(4):
                pipe.classify_batch(full)
            return (time.perf_counter() - t0) / (4 * 500)

        ratio = _best_ratio(one_line_call, full_batch_line)
        assert pipe.template_cache.misses == misses
        assert ratio <= 18.0, f"a one-line all-hit batch costs {ratio:.1f} full-batch lines"
