"""End-to-end integration tests spanning the whole system."""

import numpy as np
import pytest

from repro.core import (
    AlertRouter,
    Category,
    ClassificationPipeline,
    load_pipeline,
    save_pipeline,
)
from repro.datagen import CorpusGenerator, Incident, generate_stream
from repro.ml import LogisticRegression, weighted_f1_score
from repro.monitor import BurstDetector, RackTopology, localize_bursts, render_overview
from repro.stream import TivanCluster
from repro.stream.tivan import ClassifierStage


@pytest.fixture(scope="module")
def trained_pipeline(corpus):
    pipe = ClassificationPipeline(classifier=LogisticRegression(max_iter=150))
    pipe.fit(corpus.texts, corpus.labels)
    return pipe


class TestFullTriageScenario:
    """The triage_day example as an asserted test."""

    RACK = tuple(f"cn{i:03d}" for i in range(8))

    @pytest.fixture(scope="class")
    def run(self, trained_pipeline):
        events = generate_stream(
            duration_s=900.0, background_rate=4.0, seed=17,
            incidents=[Incident("door", Category.THERMAL, start=300.0,
                                duration=90.0, hostnames=self.RACK,
                                peak_rate=2.0)],
        )
        cluster = TivanCluster()
        cluster.load_events(events)
        cluster.attach_classifier(ClassifierStage(
            service_time_s=1e-4,
            classify_batch=lambda texts: [
                r.category for r in trained_pipeline.classify_batch(texts)
            ],
        ))
        report = cluster.run(930.0)
        return events, cluster, report

    def test_no_message_lost(self, run):
        events, cluster, report = run
        assert report.indexed == report.produced == len(events)
        assert report.relay_dropped == 0

    def test_classifier_kept_up(self, run):
        _events, _cluster, report = run
        assert report.keeping_up
        assert report.classified == report.indexed

    def test_classification_accuracy_on_stream(self, run):
        events, cluster, _report = run
        truth = {e.message.text: e.label for e in events}
        correct = total = 0
        for i in range(0, len(cluster.store), 7):  # sample
            doc = cluster.store.get(i)
            total += 1
            if doc.category is truth[doc.message.text]:
                correct += 1
        assert correct / total > 0.9

    def test_incident_found_by_monitoring(self, run):
        _events, cluster, _report = run
        detector = BurstDetector(z_threshold=3.0)
        topo = RackTopology.grid(self.RACK, nodes_per_rack=8)
        bursts = {
            h: detector.detect_in_store(cluster.store, interval_s=60.0, term=h)
            for h in self.RACK
        }
        incidents = localize_bursts(topo, bursts)
        assert incidents and incidents[0].rack == "r00"
        lo, hi = incidents[0].window
        assert lo <= 400 and hi >= 300  # overlaps the injection window

    def test_alerts_fire_with_cooldown(self, run):
        _events, cluster, _report = run
        alerts = []
        router = AlertRouter.with_defaults(alerts.append)
        for i in range(len(cluster.store)):
            doc = cluster.store.get(i)
            if doc.category is not None:
                router.route(
                    doc.category,
                    timestamp=doc.message.timestamp,
                    hostname=doc.message.hostname,
                    text=doc.message.text,
                    severity=doc.message.severity,
                )
        thermal_alerts = [a for a in alerts if a.category is Category.THERMAL]
        assert thermal_alerts
        # cooldown keeps the storm to roughly one alert per node per 300 s
        per_host = {}
        for a in thermal_alerts:
            per_host.setdefault(a.hostname, []).append(a.timestamp)
        for times in per_host.values():
            diffs = np.diff(sorted(times))
            assert (diffs >= 300.0).all()

    def test_dashboard_renders(self, run):
        _events, cluster, _report = run
        out = render_overview(cluster.store, interval_s=120.0)
        assert "documents" in out and "categories" in out


class TestTrainPersistDeploy:
    """§7's deployment loop: train → save → load → serve."""

    def test_roundtrip_served_model_matches(self, corpus, trained_pipeline, tmp_path):
        save_pipeline(trained_pipeline, tmp_path / "prod")
        served = load_pipeline(tmp_path / "prod")
        fresh = CorpusGenerator(scale=0.003, seed=777).generate()
        y_true = np.asarray([lab.value for lab in fresh.labels])
        y_pred = np.asarray(
            [r.category.value for r in served.classify_batch(fresh.texts)]
        )
        assert weighted_f1_score(y_true, y_pred) > 0.95


class TestCrossModuleConsistency:
    def test_pipeline_agrees_with_manual_steps(self, corpus, trained_pipeline):
        """The pipeline's classify == vectorize + predict by hand."""
        texts = corpus.texts[:30]
        X = trained_pipeline.vectorizer.transform(texts)
        manual = trained_pipeline.classifier.predict(X)
        piped = [r.category.value for r in trained_pipeline.classify_batch(texts)]
        assert list(manual) == piped

    def test_store_term_search_finds_classified_thermal(self, trained_pipeline, corpus):
        from repro.stream.opensearch import LogStore

        store = LogStore()
        for m, lab in zip(corpus.messages[:300], corpus.labels[:300]):
            doc = store.index(m)
            store.set_category(doc, trained_pipeline.classify(m.text).category)
        hits = store.term_query("throttled")
        assert hits.total > 0
        assert all(
            d.category is Category.THERMAL
            for d in hits.docs
            if "throttled" in d.message.text and "selftest" not in d.message.text
            and "burn-in" not in d.message.text
        )
