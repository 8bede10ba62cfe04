"""Unit tests for the classification pipeline."""

import numpy as np
import pytest

from repro.buckets.blacklist import BlacklistFilter
from repro.core.pipeline import ClassificationPipeline
from repro.core.taxonomy import Category
from repro.core.template_cache import TemplateCache
from repro.ml import ComplementNB, LogisticRegression
from repro.textproc.tfidf import HashingVectorizer, TfidfVectorizer


@pytest.fixture(scope="module")
def fitted(corpus):
    pipe = ClassificationPipeline(classifier=LogisticRegression(max_iter=100))
    pipe.fit(corpus.texts, corpus.labels)
    return pipe


class TestFit:
    def test_requires_classifier(self, corpus):
        with pytest.raises(ValueError, match="classifier"):
            ClassificationPipeline().fit(corpus.texts, corpus.labels)

    def test_length_mismatch(self):
        pipe = ClassificationPipeline(classifier=ComplementNB())
        with pytest.raises(ValueError, match="lengths differ"):
            pipe.fit(["a"], [])

    def test_classify_before_fit(self):
        pipe = ClassificationPipeline(classifier=ComplementNB())
        with pytest.raises(RuntimeError, match="before fit"):
            pipe.classify("anything")


class TestClassify:
    def test_thermal_example(self, fitted):
        r = fitted.classify("Warning: Socket 2 - CPU 23 throttling")
        assert r.category is Category.THERMAL

    def test_ssh_example(self, fitted):
        r = fitted.classify("Connection closed by 10.3.2.1 port 50000 [preauth]")
        assert r.category is Category.SSH

    def test_confidence_populated_for_proba_models(self, fitted):
        r = fitted.classify("Out of memory: Killed process 4242 (stress)")
        assert r.confidence is not None and 0.0 <= r.confidence <= 1.0

    def test_no_proba_model_has_none_confidence(self, corpus):
        from repro.ml import LinearSVC

        pipe = ClassificationPipeline(classifier=LinearSVC())
        pipe.fit(corpus.texts[:400], corpus.labels[:400])
        assert pipe.classify("usb 1-2: new device").confidence is None

    def test_batch_matches_singles(self, fitted, corpus):
        texts = corpus.texts[:10]
        batch = [r.category for r in fitted.classify_batch(texts)]
        singles = [fitted.classify(t).category for t in texts]
        assert batch == singles

    def test_accuracy_on_training_corpus(self, fitted, corpus):
        preds = fitted.classify_batch(corpus.texts[:300])
        acc = np.mean([
            r.category == l for r, l in zip(preds, corpus.labels[:300])
        ])
        assert acc > 0.97


class TestThroughputAccounting:
    def test_service_time_accumulates(self, fitted, corpus):
        before = fitted.n_classified
        fitted.classify_batch(corpus.texts[:20])
        assert fitted.n_classified == before + 20
        assert fitted.service_seconds > 0.0

    def test_messages_per_hour_positive(self, fitted, corpus):
        fitted.classify_batch(corpus.texts[:10])
        assert fitted.messages_per_hour() > 0


class TestWithBlacklist:
    def test_noise_filtered_before_model(self, corpus):
        pipe = ClassificationPipeline(
            classifier=LogisticRegression(max_iter=100),
            blacklist=BlacklistFilter(threshold=3),
        )
        pipe.fit(corpus.texts, corpus.labels)
        noise_text = next(
            t for t, l in zip(corpus.texts, corpus.labels)
            if l is Category.UNIMPORTANT
        )
        r = pipe.classify(noise_text)
        assert r.category is Category.UNIMPORTANT
        assert r.filtered

    def test_blacklist_shrinks_training_noise(self, corpus):
        pipe = ClassificationPipeline(
            classifier=LogisticRegression(max_iter=100),
            blacklist=BlacklistFilter(threshold=3),
            blacklist_coverage=0.9,
        )
        pipe.fit(corpus.texts, corpus.labels)
        # the classifier keeps a residual Unimportant class for the
        # long tail the filter misses...
        assert Category.UNIMPORTANT.value in pipe.classifier.classes_.tolist()
        # ...but most noise shapes were blacklisted
        assert len(pipe.blacklist.store) > 0

    def test_full_coverage_removes_unimportant_class(self, corpus):
        pipe = ClassificationPipeline(
            classifier=LogisticRegression(max_iter=100),
            blacklist=BlacklistFilter(threshold=3),
            blacklist_coverage=1.0,
        )
        pipe.fit(corpus.texts, corpus.labels)
        assert Category.UNIMPORTANT.value not in pipe.classifier.classes_.tolist()

    def test_invalid_blacklist_coverage(self, corpus):
        pipe = ClassificationPipeline(
            classifier=LogisticRegression(max_iter=100),
            blacklist=BlacklistFilter(threshold=3),
            blacklist_coverage=0.0,
        )
        with pytest.raises(ValueError, match="blacklist_coverage"):
            pipe.fit(corpus.texts, corpus.labels)


class TestModelStageFedKeys:
    """A cache miss hands the model stage its key instead of the raw
    text; the key is the masked text (the raw text without masking), so
    both feeds must predict identically."""

    @pytest.mark.parametrize("make_vectorizer", [
        lambda: TfidfVectorizer(normalize=False),
        lambda: HashingVectorizer(),
        lambda: TfidfVectorizer(ngram_range=(1, 2)),
    ], ids=["unnormalized", "hashing", "bigrams"])
    def test_keys_equal_raw_texts(self, corpus, make_vectorizer):
        pipe = ClassificationPipeline(
            vectorizer=make_vectorizer(), classifier=ComplementNB()
        )
        pipe.fit(corpus.texts, corpus.labels)
        texts = corpus.texts[:150] + [
            "temp is 45 C now", "wrote 3 MB to  disk", "cn042   eth0 0xdeadbeef",
        ]
        from_raw = pipe._model_stage(texts)
        from_keys = pipe._model_stage(texts, pipe._template_keys(texts))
        np.testing.assert_array_equal(from_keys[0], from_raw[0])
        np.testing.assert_array_equal(from_keys[1], from_raw[1])

    def test_vectorizer_without_analyze_masked_keeps_columnar_path(
        self, fitted, corpus, monkeypatch
    ):
        """``analyze_masked`` is optional: a wrapper that only speaks
        ``analyze_batch``/``transform_analyzed`` is fed the raw texts,
        not dropped to per-row salvage."""
        class BatchOnly:
            def __init__(self, inner):
                self.inner = inner

            def analyze_batch(self, texts):
                return self.inner.analyze_batch(texts)

            def transform_analyzed(self, docs):
                return self.inner.transform_analyzed(docs)

        texts = corpus.texts[:80]
        expected = [r.category for r in fitted.classify_batch(texts)]
        pipe = ClassificationPipeline(
            classifier=fitted.classifier, template_cache=TemplateCache()
        )
        pipe.vectorizer = BatchOnly(fitted.vectorizer)
        pipe._fitted = True
        monkeypatch.setattr(
            pipe, "_model_salvage",
            lambda *a, **k: pytest.fail("fell to per-row salvage"),
        )
        assert [r.category for r in pipe.classify_batch(texts)] == expected


class TestLabelTable:
    """Model-stage labels resolve through a table built from the
    classifier's ``classes_`` once per fit, not through a scan of the
    enum per row."""

    class Parrot:
        """Predicts whatever ``says`` holds, row by row."""

        classes_ = np.asarray(["Unimportant", "Thermal Issue", "Bogus"])
        says: list = []

        def predict(self, X):
            return np.asarray(self.says[: X.shape[0]])

    @pytest.mark.parametrize("cache", [None, TemplateCache()], ids=["uncached", "cached"])
    def test_known_labels_resolve_and_an_unknown_one_still_raises(self, fitted, cache):
        pipe = ClassificationPipeline(
            vectorizer=fitted.vectorizer, classifier=self.Parrot(), template_cache=cache
        )
        pipe._fitted = True
        pipe.classifier.says = ["Thermal Issue", "Unimportant", "thermal issues"]
        got = [r.category for r in pipe.classify_batch(["alpha one", "beta two", "gamma three"])]
        # the third is not one of classes_: it takes from_name's tolerant route
        assert got == [Category.THERMAL, Category.UNIMPORTANT, Category.THERMAL]
        assert set(pipe._label_categories) == {"Unimportant", "Thermal Issue"}
        pipe.classifier.says = ["Bogus"]
        with pytest.raises(KeyError, match="Bogus"):
            pipe.classify_batch(["delta four"])

    def test_every_category_resolves_as_from_name_does(self, corpus):
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        pipe.classify_batch(corpus.texts[:5])
        table = pipe._label_categories
        assert {str(k): v for k, v in table.items()} == {c.value: c for c in Category}
        for label in pipe.classifier.classes_:
            assert pipe._category(label) is Category.from_name(str(label))
        pipe.fit(corpus.texts[:300], corpus.labels[:300])
        assert pipe._label_categories is None  # rebuilt on the refit's first batch
