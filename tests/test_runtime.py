"""Unit tests for the batch-first runtime layer (repro.runtime)."""

import pytest

from repro.buckets.blacklist import BlacklistFilter
from repro.cli import _CLASSIFIERS
from repro.core.pipeline import ClassificationPipeline
from repro.ml import ComplementNB
from repro.runtime import StageTimer


# -- StageTimer ------------------------------------------------------------


class TestStageTimer:
    def test_stage_accumulates(self):
        t = StageTimer()
        for _ in range(3):
            with t.stage("predict", items=10):
                pass
        rep = t.report()
        assert rep.stages["predict"].calls == 3
        assert rep.stages["predict"].items == 30
        assert rep.stages["predict"].seconds >= 0.0

    def test_total_is_sum_of_stages(self):
        t = StageTimer()
        t.add("a", 0.25, 5)
        t.add("b", 0.75, 5)
        rep = t.report()
        assert rep.total_seconds == pytest.approx(1.0)
        assert rep.stages["a"].items_per_second == pytest.approx(20.0)

    def test_render_lists_stages(self):
        t = StageTimer()
        t.add("vectorize", 0.5, 100)
        out = t.report().render()
        assert "vectorize" in out and "total" in out

    def test_render_empty(self):
        assert "no stages" in StageTimer().report().render()


# -- batch-first pipeline --------------------------------------------------


@pytest.fixture(scope="module")
def train_slice(corpus):
    return corpus.texts[:400], corpus.labels[:400]


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(_CLASSIFIERS))
    def test_classify_batch_matches_classify(self, name, train_slice, corpus):
        """classify_batch ≡ per-message classify for the whole roster."""
        texts, labels = train_slice
        pipe = ClassificationPipeline(classifier=_CLASSIFIERS[name]())
        pipe.fit(texts, labels)
        probe = corpus.texts[400:425]
        batch = pipe.classify_batch(tuple(probe))
        singles = [pipe.classify(t) for t in probe]
        assert [r.category for r in batch] == [r.category for r in singles]
        if batch[0].confidence is not None:
            assert [r.confidence for r in batch] == pytest.approx(
                [r.confidence for r in singles]
            )

    def test_blacklist_routing_matches(self, corpus):
        pipe = ClassificationPipeline(
            classifier=ComplementNB(), blacklist=BlacklistFilter(threshold=3)
        )
        pipe.fit(corpus.texts[:600], corpus.labels[:600])
        probe = corpus.texts[:40]
        batch = pipe.classify_batch(probe)
        singles = [pipe.classify(t) for t in probe]
        assert [r.filtered for r in batch] == [r.filtered for r in singles]
        assert [r.category for r in batch] == [r.category for r in singles]

    def test_sequence_input_still_accepted(self, train_slice):
        texts, labels = train_slice
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(texts, labels)
        assert len(pipe.classify_batch(texts[:5])) == 5


class TestPipelineTiming:
    def test_stage_seconds_sum_to_total(self, train_slice):
        pipe = ClassificationPipeline(classifier=ComplementNB())
        texts, labels = train_slice
        pipe.fit(texts, labels)
        pipe.classify_batch(texts[:200])
        rep = pipe.timing_report()
        assert set(rep.stages) == {"normalize", "vectorize", "predict", "route"}
        # the stages are sequential inside classify_batch, so their sum
        # is bounded by (and close to) the tracked service time
        assert rep.total_seconds <= pipe.service_seconds
        assert rep.total_seconds >= 0.5 * pipe.service_seconds
        assert all(s.items == 200 for s in rep.stages.values())

    def test_filter_stage_present_with_blacklist(self, corpus):
        pipe = ClassificationPipeline(
            classifier=ComplementNB(), blacklist=BlacklistFilter(threshold=3)
        )
        pipe.fit(corpus.texts[:600], corpus.labels[:600])
        pipe.classify_batch(corpus.texts[:50])
        assert "filter" in pipe.timing_report().stages

    def test_reset_timing(self, train_slice):
        texts, labels = train_slice
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(texts, labels)
        pipe.classify("some message")
        pipe.reset_timing()
        assert pipe.timing_report().stages == {}
