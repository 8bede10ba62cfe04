"""The real-time classification pipeline.

Composes the pieces the paper deploys: optional blacklist pre-filter
(§5.1) → TF-IDF vectorization (§4.3) → classifier → per-category alert
routing (§4.1's actionable categories).  The pipeline is the unit the
throughput experiments measure: ``classify_batch`` reports wall-clock
service time so the stream simulator can decide whether a classifier
keeps up with the message arrival rate (§5's feasibility argument).
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.taxonomy import Category
from repro.core.template_cache import TemplateCache
from repro.faults.dlq import DeadLetterQueue
from repro.faults.plan import SITE_POISON, InjectedFault
from repro.obs import wellknown
from repro.obs.metrics import Views, default_registry
from repro.runtime.timing import StageReport, StageStat, StageTimer
from repro.textproc.tfidf import TfidfVectorizer

__all__ = ["ClassificationPipeline", "PipelineResult"]

#: dead-letter site for messages condemned by the salvage path
QUARANTINE_SITE = "pipeline.quarantine"
#: what ``_poisoned_indices`` returns when no injector is armed
_NONE_POISONED: frozenset[int] = frozenset()


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of classifying one message.

    Attributes
    ----------
    text:
        The input message body.
    category:
        Predicted category (blacklisted messages get UNIMPORTANT).
    confidence:
        Classifier confidence in [0, 1] when the model exposes
        probabilities; ``None`` otherwise.
    filtered:
        True when the blacklist pre-filter short-circuited the message.
    quarantined:
        True when the message poisoned the model path and was
        dead-lettered instead of classified; the category is the
        fail-closed UNIMPORTANT default, not a prediction.
    """

    text: str
    category: Category
    confidence: float | None = None
    filtered: bool = False
    quarantined: bool = False


#: the template cache's views, in exposition order: (accessor, read)
_CACHE_VIEWS = (
    (wellknown.template_cache_hits, "hits"), (wellknown.template_cache_misses, "misses"),
    (wellknown.template_cache_evictions, "evictions"),
    (wellknown.template_cache_invalidations, "invalidations"), (wellknown.template_cache_size, len),
)


@dataclass
class ClassificationPipeline:
    """Preprocess → vectorize → classify → route.

    Parameters
    ----------
    vectorizer:
        A fitted-or-not :class:`TfidfVectorizer`; ``fit`` fits it.
    classifier:
        Any estimator honouring the fit/predict contract whose labels
        are :class:`Category` values (or their string names).
    blacklist:
        Optional :class:`repro.buckets.blacklist.BlacklistFilter`
        applied before vectorization.
    blacklist_coverage:
        When a blacklist is attached, ``fit`` blacklists the most
        frequent Unimportant message *shapes* until this fraction of
        the training noise is covered, and keeps the rest (still
        labelled Unimportant) in the classifier's training set.  This
        mirrors operations — administrators blacklist the top
        offenders — and leaves the classifier a residual Unimportant
        class for the long tail the filter misses.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; when armed at
        ``pipeline.poison`` it condemns individual messages so the
        quarantine path can be exercised deterministically.  Never
        consulted when ``None`` (the production default).
    template_cache:
        Optional :class:`~repro.core.template_cache.TemplateCache`.
        When attached, ``classify_batch`` memoizes the final
        ``(category, confidence)`` per masked template and only sends
        cache misses through the model stage.  The cache key is the
        exact masked text, so a hit reproduces the model's answer
        bit-for-bit; blacklist, poison-salvage, and quarantine
        semantics are preserved exactly (filtered/quarantined results
        are never cached, poison-injected messages bypass the cache),
        and ``fit`` invalidates atomically via the generation stamp.
    """

    vectorizer: TfidfVectorizer = field(default_factory=TfidfVectorizer)
    classifier: object = None
    blacklist: object = None
    blacklist_coverage: float = 0.9
    fault_injector: object = None
    template_cache: TemplateCache | None = None

    #: poison messages parked here with their exception context
    dead_letters: DeadLetterQueue = field(
        default_factory=DeadLetterQueue, init=False, repr=False
    )
    _fitted: bool = field(default=False, init=False, repr=False)
    #: what the pipeline classified: batches (``calls``), messages
    #: (``items``) and seconds, what the batch and message counters read
    classified: StageStat = field(default_factory=StageStat, init=False, repr=False)
    #: per-stage (filter/normalize/vectorize/predict/route) accounting
    timer: StageTimer = field(default_factory=StageTimer, init=False, repr=False)
    #: bumped by every successful ``fit``; stamps the template cache so
    #: a refit atomically invalidates memoized results
    _generation: int = field(default=0, init=False, repr=False)
    #: model-stage label → Category, resolved from the classifier's
    #: ``classes_`` once per ``fit`` generation
    _label_categories: dict | None = field(default=None, init=False, repr=False)
    #: the batches and messages views, and the [batch seconds, filtered
    #: (at the first filtered batch)] children, bound once per registry;
    #: never pickled
    _batch_views: Views = field(default_factory=Views, init=False, repr=False)
    _batch_metrics: list | None = field(default=None, init=False, repr=False)
    #: the template cache's views, moved with the registry, process and
    #: cache a batch reports from, and the ``_CACHE_VIEWS`` rows not
    #: attached there yet
    _cache_views: Views = field(default_factory=Views, init=False, repr=False)
    _cache_pending: tuple = field(default=(), init=False, repr=False)

    @property
    def n_classified(self) -> int:
        """Messages classified so far."""
        return self.classified.items

    @property
    def service_seconds(self) -> float:
        """Cumulative wall-clock seconds spent classifying (excl. fit)."""
        return self.classified.seconds

    def fit(self, texts: Sequence[str], labels: Sequence[Category]) -> "ClassificationPipeline":
        """Fit vectorizer and classifier on a labelled corpus.

        When a blacklist is attached, the most frequent Unimportant
        message shapes (up to ``blacklist_coverage`` of the training
        noise) are blacklisted, messages matching the blacklist are
        removed from the training set, and the rest — including the
        residual Unimportant tail — train the classifier.  This is the
        paper's §5.1 filter-then-classify suggestion in its deployable
        form.
        """
        if self.classifier is None:
            raise ValueError("ClassificationPipeline requires a classifier")
        if len(texts) != len(labels):
            raise ValueError(
                f"texts and labels lengths differ: {len(texts)} vs {len(labels)}"
            )
        texts = list(texts)
        y = np.asarray([_as_category(lab).value for lab in labels])
        if self.blacklist is not None:
            if not 0.0 < self.blacklist_coverage <= 1.0:
                raise ValueError(
                    f"blacklist_coverage must be in (0, 1], got "
                    f"{self.blacklist_coverage}"
                )
            from collections import Counter

            noise = [t for t, lab in zip(texts, y) if lab == Category.UNIMPORTANT.value]
            shapes = Counter(self.blacklist.shape(t) for t in noise)
            budget = self.blacklist_coverage * len(noise)
            covered = 0
            selected: list[str] = []
            for shape, count in shapes.most_common():
                if covered >= budget:
                    break
                selected.append(shape)
                covered += count
            self.blacklist.blacklist_many(selected)
            keep = [i for i, t in enumerate(texts) if not self.blacklist.matches(t)]
            texts = [texts[i] for i in keep]
            y = y[keep]
        X = self.vectorizer.fit_transform(texts)
        self.classifier.fit(X, y)
        self._fitted = True
        # a refit changes what the model would answer: bump the
        # generation so an attached template cache clears atomically on
        # its next lookup
        self._generation += 1
        self._label_categories = None
        return self

    def classify(self, text: str) -> PipelineResult:
        """Classify one message (a batch of one on the batch-first path)."""
        return self.classify_batch((text,))[0]

    def classify_batch(self, batch: Sequence[str]) -> list[PipelineResult]:
        """Classify a batch, tracking service time for throughput math.

        This is the runtime primitive: the batch flows through each
        stage — blacklist filter, normalize/tokenize, vectorize,
        predict, route — as one columnar unit, with per-stage
        wall-clock accounting in :attr:`timer` (see
        :meth:`timing_report`).  Accepts any sequence of message texts.

        Poison messages do not abort the batch: when the columnar model
        path raises (undecodable input, a predict failure, or an
        injected ``pipeline.poison`` fault), the batch is re-run
        per-message under the ``salvage`` stage and the individual
        offenders are quarantined — dead-lettered with their exception
        context and returned as fail-closed UNIMPORTANT results with
        ``quarantined=True``.  Exactly one result per input, always.

        With a :attr:`template_cache` attached, messages whose masked
        template was already classified are served from the cache under
        a ``fingerprint`` stage and only misses run the model stages —
        same results, bit-for-bit (see
        ``tests/test_template_cache.py``), at a fraction of the cost on
        skewed workloads.
        """
        if not self._fitted:
            raise RuntimeError("ClassificationPipeline used before fit")
        texts = tuple(batch)
        t0 = time.perf_counter()
        results: list[PipelineResult | None] = [None] * len(texts)
        to_model: list[int] = []
        if self.blacklist is not None:
            with self.timer.stage("filter", len(texts)):
                for i, t in enumerate(texts):
                    try:
                        noise = self.blacklist.is_noise(t)
                    except Exception:
                        # malformed input the filter cannot judge: let
                        # the model path quarantine it properly
                        noise = False
                    if noise:
                        results[i] = PipelineResult(
                            text=t, category=Category.UNIMPORTANT, filtered=True
                        )
                    else:
                        to_model.append(i)
        else:
            to_model = range(len(texts))
        if to_model:
            model_texts = [texts[i] for i in to_model] if self.blacklist is not None else texts
            poisoned = self._poisoned_indices(len(model_texts))
            if self.template_cache is not None:
                cats, confs, condemned = self._model_stage_cached(
                    model_texts, poisoned, self.template_cache
                )
            elif poisoned:
                cats, confs, condemned = self._model_salvage(model_texts, poisoned)
            else:
                try:
                    cats, confs = self._model_stage(model_texts)
                    condemned = {}
                except Exception:
                    cats, confs, condemned = self._model_salvage(
                        model_texts, poisoned
                    )
            route_t0 = time.perf_counter()
            try:
                for j, i in enumerate(to_model):
                    if j in condemned:
                        results[i] = PipelineResult(
                            text=texts[i], category=Category.UNIMPORTANT,
                            quarantined=True,
                        )
                    else:
                        conf = confs[j] if confs is not None else None
                        results[i] = PipelineResult(
                            text=texts[i],
                            category=self._category(cats[j]),
                            confidence=float(conf) if conf is not None else None,
                        )
            finally:
                self.timer.add("route", time.perf_counter() - route_t0, len(to_model))
        elapsed = time.perf_counter() - t0
        self._record_batch_metrics(len(texts), len(texts) - len(to_model), elapsed)
        return results  # type: ignore[return-value]

    def _poisoned_indices(self, n: int) -> set[int] | frozenset[int]:
        """Indices condemned by an armed ``pipeline.poison`` injector."""
        inj = self.fault_injector
        if inj is None or not inj.armed(SITE_POISON):
            return _NONE_POISONED
        return {j for j in range(n) if inj.should_fire(SITE_POISON)}

    def _model_stage(self, model_texts, keys=None):
        """The columnar normalize → vectorize → predict path; ``keys``
        (the texts' template-cache keys) are their already-masked form,
        used when the vectorizer offers ``analyze_masked``."""
        n = len(model_texts)
        analyze_masked = getattr(self.vectorizer, "analyze_masked", None)
        with self.timer.stage("normalize", n):
            if keys is None or analyze_masked is None:
                docs = self.vectorizer.analyze_batch(model_texts)
            else:
                docs = analyze_masked(keys)
        with self.timer.stage("vectorize", n):
            X = self.vectorizer.transform_analyzed(docs)
        with self.timer.stage("predict", n):
            preds = self.classifier.predict(X)
            probs = None
            if hasattr(self.classifier, "predict_proba"):
                probs = self.classifier.predict_proba(X).max(axis=1)
        return preds, probs

    def _template_keys(self, texts: Sequence[str]) -> list[str]:
        """Template-cache keys: the exact masked form of each text — the
        vectorizer's own ``normalize_many`` output, so the store, the
        vectorizer and the cache share one masker and one memo.  Without
        masking (``TfidfVectorizer(normalize=False)``) the raw text is
        the only sound key."""
        normalizer = getattr(self.vectorizer, "_normalizer", None)
        if normalizer is None:
            return list(texts)
        return normalizer.normalize_many(texts)

    def _model_stage_cached(self, model_texts, poisoned: set[int], cache):
        """Template-dedup front of the model stage.

        Returns the same ``(cats, confs, condemned)`` contract as the
        uncached paths, with hits served from ``cache`` and only misses
        sent through :meth:`_model_stage` / :meth:`_model_salvage`.
        Soundness: the key is the exact masked text, and everything the
        model stage computes is a deterministic per-row function of it,
        so a hit replays precisely what the miss path stored.  Poisoned
        indices never read nor write the cache (the injector decision
        is positional, not textual), and quarantined results are never
        stored.
        """
        n = len(model_texts)
        before = (cache.hits, cache.misses, cache.evictions, cache.invalidations)
        cache.sync_generation(self._generation)
        fingerprint_t0 = time.perf_counter()
        try:
            keys = self._template_keys(model_texts)
        finally:
            self.timer.add("fingerprint", time.perf_counter() - fingerprint_t0, n)
        cats: list = [None] * n
        confs: list = [None] * n
        condemned: dict[int, Exception] = {}
        miss_j: list[int] = []
        for j, key in enumerate(keys):
            if j in poisoned:
                miss_j.append(j)
                continue
            entry = cache.get(key)
            if entry is None:
                miss_j.append(j)
            else:
                cats[j], confs[j] = entry
        if miss_j:
            miss_texts = [model_texts[j] for j in miss_j]
            miss_poisoned = {k for k, j in enumerate(miss_j) if j in poisoned}
            if miss_poisoned:
                m_cats, m_confs, m_condemned = self._model_salvage(
                    miss_texts, miss_poisoned
                )
            else:
                try:
                    m_cats, m_confs = self._model_stage(
                        miss_texts, [keys[j] for j in miss_j]
                    )
                    m_condemned = {}
                except Exception:
                    m_cats, m_confs, m_condemned = self._model_salvage(
                        miss_texts, set()
                    )
            for k, j in enumerate(miss_j):
                if k in m_condemned:
                    condemned[j] = m_condemned[k]
                    continue
                # store the *converted* result so hits skip the
                # label→Category and numpy→float conversions too
                conf = m_confs[k] if m_confs is not None else None
                cats[j] = self._category(m_cats[k])
                confs[j] = float(conf) if conf is not None else None
                if j not in poisoned:
                    cache.put(keys[j], (cats[j], confs[j]))
        self._view_cache(cache, before)
        return cats, confs, condemned

    def _category(self, label) -> Category:
        """The :class:`Category` a model-stage label names."""
        if isinstance(label, Category):
            return label
        table = self._label_categories
        if table is None:
            table = self._label_categories = {}
            classes = getattr(self.classifier, "classes_", None)
            for known in classes if classes is not None else ():
                try:
                    table[known] = Category.from_name(str(known))
                except KeyError:
                    pass  # raised if and when the model predicts it
        category = table.get(label)
        return category if category is not None else Category.from_name(str(label))

    def _view_cache(self, cache, before: tuple[int, int, int, int]) -> None:
        """Attach the cache's views in the registry this batch reports to,
        each counter at its first move there (counting from ``before``,
        the counters at the batch's start), then the size.  A forked
        child reports under its own pid."""
        registry = self.timer.registry
        if registry is None:
            registry = default_registry()
        pid = os.getpid()
        if self._cache_views.follow(registry, pid, cache):
            self._cache_pending = tuple(range(len(_CACHE_VIEWS)))
        if self._cache_pending:
            now = (cache.hits, cache.misses, cache.evictions, cache.invalidations, len)
            was = (*before, None)
            for i in self._cache_pending:
                if now[i] != was[i]:
                    accessor, read = _CACHE_VIEWS[i]
                    self._cache_views.attach(
                        accessor(registry), cache, read, base=was[i], worker=str(pid)
                    )
            self._cache_pending = tuple(i for i in self._cache_pending if now[i] == was[i])

    def _model_salvage(self, model_texts, poisoned: set[int]):
        """Per-message fallback when the columnar path cannot run.

        Returns ``(cats, confs, condemned)`` where ``condemned`` maps
        model-batch index → exception for every quarantined message.
        Each offender is dead-lettered; survivors get the same
        prediction the columnar path would have produced (same
        vectorizer, same model, one row at a time).
        """
        n = len(model_texts)
        cats: list = [None] * n
        confs: list = [None] * n
        condemned: dict[int, Exception] = {}
        has_proba = hasattr(self.classifier, "predict_proba")
        with self.timer.stage("salvage", n):
            for j, text in enumerate(model_texts):
                try:
                    if j in poisoned:
                        raise InjectedFault(SITE_POISON)
                    docs = self.vectorizer.analyze_batch([text])
                    X = self.vectorizer.transform_analyzed(docs)
                    cats[j] = self.classifier.predict(X)[0]
                    if has_proba:
                        confs[j] = self.classifier.predict_proba(X).max()
                except Exception as e:
                    condemned[j] = e
                    site = e.site if isinstance(e, InjectedFault) else QUARANTINE_SITE
                    self.dead_letters.push(
                        site, text, repr(e), batch_index=j,
                    )
        if condemned:
            wellknown.faults_quarantined(self.timer.registry).inc(len(condemned))
        if not has_proba:
            confs = None
        return cats, confs, condemned

    def _record_batch_metrics(
        self, n_messages: int, n_filtered: int, elapsed: float
    ) -> None:
        """Count one classified batch: its seconds (and filtered messages)
        are written, batches and messages are views of :attr:`classified`
        attached when a batch first reports into a registry."""
        registry = self.timer.registry
        if registry is None:
            registry = default_registry()
        classified = self.classified
        if self._batch_views.follow(registry):
            for family, read in (
                (wellknown.pipeline_batches(registry), "calls"),
                (wellknown.pipeline_messages(registry), "items"),
            ):
                self._batch_views.attach(family, classified, read, base=getattr(classified, read))
            # resolved in exposition order: [filtered], seconds
            filtered = wellknown.pipeline_filtered(registry).labels() if n_filtered else None
            self._batch_metrics = [wellknown.pipeline_batch_seconds(registry).labels(), filtered]
        bound = self._batch_metrics
        classified.calls += 1
        classified.items += n_messages
        classified.seconds += elapsed
        if n_filtered:
            if bound[1] is None:
                bound[1] = wellknown.pipeline_filtered(registry).labels()
            bound[1].inc(n_filtered)
        bound[0].observe(elapsed)

    def __getstate__(self) -> dict:
        # resolved children stay in the process that resolved them
        state = self.__dict__.copy()
        state["_batch_metrics"] = None
        return state

    def timing_report(self) -> StageReport:
        """Per-stage breakdown of time spent classifying so far."""
        return self.timer.report()

    def reset_timing(self) -> None:
        """Zero the per-stage accounting (service totals are kept)."""
        self.timer.reset()

    @property
    def mean_service_time(self) -> float:
        """Average wall-clock seconds per message classified so far."""
        if self.n_classified == 0:
            return 0.0
        return self.service_seconds / self.n_classified

    def messages_per_hour(self) -> float:
        """Sustainable throughput extrapolated from observed service time.

        The paper's Table 3 reports this figure for the LLM
        classifiers; computing it for the pipeline makes the two
        directly comparable.
        """
        mst = self.mean_service_time
        return float("inf") if mst == 0.0 else 3600.0 / mst


def _as_category(label) -> Category:
    if isinstance(label, Category):
        return label
    return Category.from_name(str(label))
