"""Unit tests for the batch-first runtime layer (repro.runtime)."""

import pytest

from repro.buckets.blacklist import BlacklistFilter
from repro.cli import _CLASSIFIERS
from repro.core.pipeline import ClassificationPipeline
from repro.ml import ComplementNB
from repro.runtime import MessageBatch, ShardedExecutor, StageTimer


# -- MessageBatch ----------------------------------------------------------


class TestMessageBatch:
    def test_of_texts(self):
        b = MessageBatch.of_texts(["a", "b"])
        assert len(b) == 2 and list(b) == ["a", "b"]
        assert b.texts == ("a", "b")

    def test_coerce_passthrough(self):
        b = MessageBatch.of_texts(["x"])
        assert MessageBatch.coerce(b) is b
        assert MessageBatch.coerce(["x", "y"]).texts == ("x", "y")

    def test_chunks_preserve_order_and_columns(self):
        b = MessageBatch.of_texts(f"t{i}" for i in range(10))
        chunks = list(b.chunks(4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert tuple(t for c in chunks for t in c) == b.texts
        assert chunks[2].texts == ("t8", "t9")

    def test_chunks_invalid_size(self):
        with pytest.raises(ValueError, match="positive"):
            list(MessageBatch.of_texts(["a"]).chunks(0))

    def test_read_lines_batches_and_skips_blanks(self):
        lines = ["one\n", "\n", "two\n", "three\n", "four"]
        batches = list(MessageBatch.read_lines(iter(lines), 2))
        assert [b.texts for b in batches] == [("one", "two"), ("three", "four")]

    def test_read_lines_invalid_batch_size(self):
        with pytest.raises(ValueError, match="positive"):
            list(MessageBatch.read_lines(iter(["a"]), 0))


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

    def test_merge_and_reset(self):
        t, other = StageTimer(), StageTimer()
        other.add("a", 1.0, 2)
        t.add("a", 1.0, 1)
        t.merge(other.report())
        assert t.report().stages["a"].items == 3
        t.reset()
        assert t.report().stages == {}

    def test_render_lists_stages(self):
        t = StageTimer()
        t.add("vectorize", 0.5, 100)
        out = t.report().render()
        assert "vectorize" in out and "total" in out

    def test_render_empty(self):
        assert "no stages" in StageTimer().report().render()

    def test_as_dict_roundtrips_to_json(self):
        import json

        t = StageTimer()
        t.add("predict", 0.1, 7)
        d = json.loads(json.dumps(t.report().as_dict()))
        assert d["stages"]["predict"]["items"] == 7


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
        batch = pipe.classify_batch(MessageBatch.of_texts(probe))
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


# -- ShardedExecutor -------------------------------------------------------


@pytest.fixture(scope="module")
def fitted_cnb(corpus):
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts[:600], corpus.labels[:600])
    return pipe


class TestShardedExecutor:
    def test_requires_exactly_one_source(self, fitted_cnb):
        with pytest.raises(ValueError, match="exactly one"):
            ShardedExecutor()
        with pytest.raises(ValueError, match="exactly one"):
            ShardedExecutor(fitted_cnb, model_dir="somewhere")

    def test_invalid_params(self, fitted_cnb):
        with pytest.raises(ValueError, match="n_workers"):
            ShardedExecutor(fitted_cnb, n_workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ShardedExecutor(fitted_cnb, chunk_size=0)

    def test_small_batch_runs_serial(self, fitted_cnb, corpus):
        with ShardedExecutor(fitted_cnb, n_workers=2, min_parallel=1000) as ex:
            ex.classify_batch(corpus.texts[:10])
            assert ex.n_serial_batches == 1
            assert ex.n_sharded_batches == 0

    def test_sharded_matches_serial(self, fitted_cnb, corpus):
        """Scatter/gather across processes must be result-identical."""
        probe = corpus.texts[:120]
        serial = fitted_cnb.classify_batch(probe)
        with ShardedExecutor(
            fitted_cnb, n_workers=2, chunk_size=32, min_parallel=0
        ) as ex:
            sharded = ex.classify_batch(MessageBatch.of_texts(probe))
            assert ex.n_sharded_batches == 1
        assert [r.category for r in sharded] == [r.category for r in serial]
        assert [r.confidence for r in sharded] == pytest.approx(
            [r.confidence for r in serial]
        )
        assert [r.text for r in sharded] == list(probe)

    def test_sharded_updates_parent_accounting(self, fitted_cnb, corpus):
        before = fitted_cnb.n_classified
        with ShardedExecutor(
            fitted_cnb, n_workers=2, chunk_size=50, min_parallel=0
        ) as ex:
            ex.classify_batch(corpus.texts[:100])
        assert fitted_cnb.n_classified == before + 100
        assert "shard" in fitted_cnb.timing_report().stages

    def test_model_dir_source(self, fitted_cnb, corpus, tmp_path):
        from repro.core.serialize import save_pipeline

        save_pipeline(fitted_cnb, tmp_path / "m")
        probe = corpus.texts[:60]
        with ShardedExecutor(
            model_dir=tmp_path / "m", n_workers=2, chunk_size=20, min_parallel=0
        ) as ex:
            results = ex.classify_batch(probe)
        expected = fitted_cnb.classify_batch(probe)
        assert [r.category for r in results] == [r.category for r in expected]
