"""The template-dedup property-test wall.

The cache is only shippable because cached ≡ uncached is *provable*:
the key is the exact masked text, and everything downstream of masking
is a deterministic per-row function of it.  These tests pin that
equivalence the adversarial way — arbitrary message mixes, cache sizes
including 0 and 1, refits mid-sequence, poison fault injection (under
the ``REPRO_CHAOS_SEED`` matrix) and blacklist filtering — plus the
LRU/eviction/invalidations unit behavior and the load-bearing
identity: a key is ``MaskingNormalizer``'s masked line.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import ClassificationPipeline
from repro.core.template_cache import TemplateCache
from repro.faults.plan import SITE_POISON, FaultInjector, FaultPlan, FaultSpec
from repro.ml import ComplementNB
from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tfidf import TfidfVectorizer

SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

# arbitrary hostile-ish text: unicode letters/digits/whitespace/punct,
# including characters the masking rules react to
_arbitrary_text = st.text(min_size=0, max_size=60)


def _fit_pipeline(corpus, *, blacklist: bool = False) -> ClassificationPipeline:
    """A freshly fitted ComplementNB pipeline on the session corpus."""
    bl = None
    if blacklist:
        from repro.buckets.blacklist import BlacklistFilter

        bl = BlacklistFilter(threshold=3)
    pipe = ClassificationPipeline(classifier=ComplementNB(), blacklist=bl)
    pipe.fit(corpus.texts, corpus.labels)
    return pipe


@pytest.fixture(scope="module")
def fitted(corpus) -> ClassificationPipeline:
    """Shared fitted pipeline; tests attach/detach caches, never refit."""
    return _fit_pipeline(corpus)


@pytest.fixture(scope="module")
def fitted_blacklist(corpus) -> ClassificationPipeline:
    """Fitted pipeline with the §5.1 blacklist pre-filter attached."""
    return _fit_pipeline(corpus, blacklist=True)


@pytest.fixture(scope="module")
def pool(corpus) -> list[str]:
    """A template-skewed message pool (what real syslog looks like)."""
    return list(corpus.texts[:300])


def _chunks(msgs: list[str], n_batches: int) -> list[list[str]]:
    if not msgs:
        return []
    size = max(1, -(-len(msgs) // n_batches))
    return [msgs[i : i + size] for i in range(0, len(msgs), size)]


def _run(pipe, batches, cache):
    """Classify ``batches`` under ``cache``, restoring the pipeline."""
    pipe.template_cache = cache
    try:
        return [pipe.classify_batch(b) for b in batches]
    finally:
        pipe.template_cache = None


class TestEquivalenceProperty:
    """cached classify_batch ≡ uncached, exactly, under anything."""

    @given(data=st.data())
    @settings(max_examples=25)
    def test_cached_equals_uncached(self, fitted, pool, data):
        msgs = data.draw(
            st.lists(
                st.one_of(st.sampled_from(pool), _arbitrary_text),
                max_size=30,
            )
        )
        size = data.draw(st.sampled_from([0, 1, 3, 64]))
        batches = _chunks(msgs, data.draw(st.integers(1, 4)))
        base = _run(fitted, batches, None)
        cache = TemplateCache(size)
        again = _run(fitted, batches, cache)
        assert again == base
        # exactly one lookup per message reached the model path
        assert cache.hits + cache.misses == len(msgs)

    @given(data=st.data())
    @settings(max_examples=10)
    def test_cached_equals_uncached_with_blacklist(
        self, fitted_blacklist, pool, data
    ):
        """Filtered results bypass the cache and stay identical."""
        msgs = data.draw(st.lists(st.sampled_from(pool), max_size=40))
        batches = _chunks(msgs, 2)
        base = _run(fitted_blacklist, batches, None)
        again = _run(fitted_blacklist, batches, TemplateCache(16))
        assert again == base

    def test_duplicate_heavy_batch_served_from_cache(self, fitted, pool):
        """A skewed stream mostly hits after the first batch."""
        msgs = [pool[i % 5] for i in range(200)]
        base = _run(fitted, [msgs, msgs], None)
        cache = TemplateCache(64)
        again = _run(fitted, [msgs, msgs], cache)
        assert again == base
        assert cache.hits >= 200  # the whole second batch at minimum
        assert len(cache) <= 5


class TestRefitInvalidation:
    """A refit must atomically invalidate everything memoized."""

    @pytest.mark.parametrize("refit_at", [1, 2])
    def test_cached_tracks_refit(self, corpus, pool, refit_at):
        half = len(corpus.texts) // 2
        batches = [pool[:50], pool[25:75], pool[50:100]]

        def run(cache):
            pipe = ClassificationPipeline(classifier=ComplementNB())
            pipe.fit(corpus.texts[:half], corpus.labels[:half])
            pipe.template_cache = cache
            out = []
            for i, b in enumerate(batches):
                if i == refit_at:
                    pipe.fit(corpus.texts[half:], corpus.labels[half:])
                out.append(pipe.classify_batch(b))
            return out

        cache = TemplateCache(256)
        assert run(cache) == run(None)
        assert cache.invalidations == 1

    def test_refit_with_empty_cache_counts_no_invalidation(self, corpus):
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        pipe.template_cache = TemplateCache(16)
        pipe.fit(corpus.texts, corpus.labels)
        pipe.classify_batch(["kernel says hello"])
        assert pipe.template_cache.invalidations == 0


class TestPoisonEquivalence:
    """pipeline.poison fault injection: same results, same dead letters."""

    @pytest.mark.parametrize("probability", [0.05, 0.5])
    def test_poisoned_cached_equals_uncached(self, corpus, pool, probability):
        plan = FaultPlan(
            sites={SITE_POISON: FaultSpec(probability=probability)},
            seed=7 + SEED_SHIFT,
        )
        batches = _chunks([pool[i % 20] for i in range(300)], 6)

        def run(cache):
            pipe = ClassificationPipeline(classifier=ComplementNB())
            pipe.fit(corpus.texts, corpus.labels)
            pipe.fault_injector = FaultInjector(plan)
            pipe.template_cache = cache
            out = [pipe.classify_batch(b) for b in batches]
            return out, list(pipe.dead_letters), pipe.fault_injector.fire_log

        cache = TemplateCache(64)
        cached_out, cached_dlq, cached_fires = run(cache)
        base_out, base_dlq, base_fires = run(None)
        assert cached_out == base_out
        assert cached_fires == base_fires
        assert len(cached_dlq) == len(base_dlq)
        assert [(e.site, e.payload) for e in cached_dlq] == [
            (e.site, e.payload) for e in base_dlq
        ]
        assert any(r.quarantined for batch in base_out for r in batch)

    def test_poisoned_results_never_cached(self, corpus):
        plan = FaultPlan(
            sites={SITE_POISON: FaultSpec(probability=1.0)},
            seed=SEED_SHIFT,
        )
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        pipe.fault_injector = FaultInjector(plan)
        pipe.template_cache = TemplateCache(64)
        results = pipe.classify_batch(list(corpus.texts[:20]))
        assert all(r.quarantined for r in results)
        assert len(pipe.template_cache) == 0
        assert pipe.template_cache.hits == 0


class TestLruSemantics:
    """The bounded-LRU contract, including the 0 and 1 edge sizes."""

    def test_eviction_order_is_lru(self):
        cache = TemplateCache(2)
        cache.put("a", (1, None))
        cache.put("b", (2, None))
        assert cache.get("a") == (1, None)  # refresh a
        cache.put("c", (3, None))  # evicts b, the least recently used
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == (1, None)
        assert cache.get("c") == (3, None)

    def test_size_zero_is_fully_disabled(self):
        cache = TemplateCache(0)
        cache.put("a", (1, None))
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.misses == 1
        assert cache.hits == cache.evictions == 0

    def test_size_one_keeps_most_recent(self):
        cache = TemplateCache(1)
        cache.put("a", (1, None))
        cache.put("b", (2, None))
        assert len(cache) == 1
        assert cache.get("b") == (2, None)
        assert cache.get("a") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            TemplateCache(-1)

    def test_overwrite_same_key_does_not_evict(self):
        cache = TemplateCache(2)
        cache.put("a", (1, None))
        cache.put("a", (2, None))
        assert len(cache) == 1
        assert cache.evictions == 0
        assert cache.get("a") == (2, None)

    def test_counters_and_stats_shape(self):
        cache = TemplateCache(4)
        cache.put("a", (1, None))
        cache.get("a")
        cache.get("zzz")
        st_ = cache.stats()
        assert st_["hits"] == 1 and st_["misses"] == 1
        assert st_["hit_rate"] == 0.5
        assert set(cache.counters()) == {
            "hits", "misses", "evictions", "invalidations",
        }


def _template_keys(texts, **vectorizer_kw) -> list[str]:
    """What the pipeline's ``fingerprint`` stage hands the cache."""
    pipe = ClassificationPipeline(vectorizer=TfidfVectorizer(**vectorizer_kw))
    return pipe._template_keys(texts)


class TestFingerprintExactness:
    """A cache key must equal the masker's regex chain on the line — the
    soundness pin that makes cache keys collision-free by construction."""

    @given(text=_arbitrary_text)
    @settings(max_examples=300)
    def test_mask_equals_normalize_arbitrary(self, text):
        assert _template_keys([text]) == [MaskingNormalizer().normalize_reference(text)]

    def test_mask_equals_normalize_on_corpus(self, corpus):
        norm = MaskingNormalizer()
        assert _template_keys(corpus.texts) == [
            norm.normalize_reference(text) for text in corpus.texts
        ]

    def test_cross_whitespace_units_fall_back_exactly(self):
        """'45 C' / '3 MB' are the one cross-token rule family."""
        norm = MaskingNormalizer()
        texts = [
            "temp is 45 C now", "wrote 3 MB to disk", "read 12 KiB",
            "45  C double space", "4.5e3 C sci", "45 Cat not a unit",
            "used 100 bytes total", "at 45 celsius", "45 degC",
        ]
        assert _template_keys(texts) == [norm.normalize_reference(t) for t in texts]

    def test_same_template_same_key_different_slots(self):
        same_a, same_b, done, failed = _template_keys([
            "job 111 done in 5 s", "job 999 done in 7 s", "job 1 done", "job 1 failed",
        ])
        assert same_a == same_b
        assert done != failed

    def test_identity_mode_for_unnormalized_vectorizers(self):
        texts = ("Connection from 1.2.3.4", "Connection from 5.6.7.8")
        assert _template_keys(texts, normalize=False) == list(texts)


class TestCacheMetrics:
    """The cache's counters reach the registry."""

    def test_cache_metric_families_emitted(self, corpus, pool):
        from repro.obs import default_registry

        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        pipe.template_cache = TemplateCache(64)
        pipe.classify_batch(pool[:20])
        pipe.classify_batch(pool[:20])
        text = default_registry().to_prometheus()
        assert "repro_template_cache_hits_total" in text
        assert "repro_template_cache_misses_total" in text
        assert "repro_template_cache_size" in text
