"""Integration tests over the experiment runners (small scales)."""

import pytest

from repro.core.taxonomy import Category
from repro.experiments import (
    CLASSIFIER_FACTORIES,
    ExperimentData,
    format_table,
    linear_svc_confusion,
    run_blacklist_experiment,
    run_classifier_comparison,
    run_drift_experiment,
    run_monitoring_experiment,
    run_prompt_ablation,
    run_table1,
    run_table2,
    run_table3,
    run_throughput_sweep,
)
from repro.experiments.table3 import PAPER_TABLE3
from repro.monitor.perarch import PeerVerdict


@pytest.fixture(scope="module")
def data():
    return ExperimentData(scale=0.008, seed=0, max_features=1200).prepare()


class TestExperimentData:
    def test_prepare_idempotent(self, data):
        X = data.X_train
        assert data.prepare().X_train is X

    def test_split_shapes(self, data):
        assert data.X_train.shape[0] == len(data.y_train)
        assert data.X_test.shape[0] == len(data.y_test)
        assert data.X_train.shape[1] == data.X_test.shape[1]

    def test_drop_unimportant(self):
        d = ExperimentData(scale=0.008, seed=0, drop_unimportant=True).prepare()
        assert Category.UNIMPORTANT.value not in set(d.y_train)


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(["name", "v"], [["a", 0.5], ["bb", 1.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "0.5000" in out


class TestTable1:
    def test_signature_tokens(self):
        tops = run_table1(scale=0.008, seed=0)
        assert len(tops) == 8
        assert set(tops[Category.THERMAL.value]) & {
            "temperature", "temp", "throttle", "throttled", "cpu", "sensor"
        }
        assert set(tops[Category.UNIMPORTANT.value]) & {
            "lpi_hbm_nn", "job_argument", "error", "iteration", "slurm_rpc_node_registration"
        }


class TestTable2:
    def test_shape_matches_paper(self):
        res = run_table2(scale=0.008, seed=0)
        assert res.all_unique
        # ordering of the two dominant classes matches Table 2
        assert res.generated[Category.UNIMPORTANT] > res.generated[Category.THERMAL]
        for cat in (Category.UNIMPORTANT, Category.THERMAL, Category.MEMORY):
            assert res.ratio(cat) == pytest.approx(1.0, rel=0.05)


class TestTable3:
    def test_rows_and_ordering(self):
        rows = run_table3()
        assert [r.model for r in rows] == list(PAPER_TABLE3)
        times = {r.model: r.inference_time_s for r in rows}
        assert (
            times["facebook/bart-large-mnli"]
            < times["tiiuae/falcon-7b"]
            < times["tiiuae/falcon-40b"]
        )

    def test_within_25pct_of_paper(self):
        for row in run_table3():
            paper_t, _paper_mph = PAPER_TABLE3[row.model]
            assert row.inference_time_s == pytest.approx(paper_t, rel=0.25)

    def test_uncapped_is_slower(self):
        capped = {r.model: r.inference_time_s for r in run_table3(max_new_tokens=20)}
        uncapped = {r.model: r.inference_time_s for r in run_table3(max_new_tokens=120)}
        assert uncapped["tiiuae/falcon-40b"] > capped["tiiuae/falcon-40b"] * 3


@pytest.fixture(scope="module")
def comparison(data):
    """The eight Figure 3 fits, made once for the tests that read them."""
    return run_classifier_comparison(data)


class TestClassifierComparison:
    def test_all_eight_rows(self, comparison):
        rows = comparison
        assert len(rows) == len(CLASSIFIER_FACTORIES) == 8

    def test_accuracy_shape(self, comparison):
        rows = {r.name: r for r in comparison}
        # everything well above 0.9 except Nearest Centroid (paper shape)
        for name, row in rows.items():
            floor = 0.70 if name == "Nearest Centroid" else 0.9
            assert row.weighted_f1 > floor, name
        assert rows["Nearest Centroid"].weighted_f1 == min(
            r.weighted_f1 for r in rows.values()
        )

    def test_confusion_matrix_square(self, data):
        cm, labels = linear_svc_confusion(data)
        assert cm.shape == (len(labels), len(labels))
        assert cm.sum() == len(data.y_test)


class TestAblationUnimportant:
    def test_f1_improves_without_unimportant(self):
        full = ExperimentData(scale=0.008, seed=0).prepare()
        dropped = ExperimentData(scale=0.008, seed=0, drop_unimportant=True).prepare()
        pick = {"Logistic Regression": CLASSIFIER_FACTORIES["Logistic Regression"],
                "Complement Naive Bayes": CLASSIFIER_FACTORIES["Complement Naive Bayes"]}
        f_full = {r.name: r.weighted_f1 for r in run_classifier_comparison(full, factories=pick)}
        f_drop = {r.name: r.weighted_f1 for r in run_classifier_comparison(dropped, factories=pick)}
        for name in pick:
            assert f_drop[name] >= f_full[name] - 1e-6


class TestPromptAblation:
    def test_rows_and_trends(self):
        rows = run_prompt_ablation(
            scale=0.006, seed=0, n_messages=60,
            models=("tiiuae/falcon-7b",), caps=(None, 20),
        )
        assert len(rows) == 2 * 5  # caps × variants
        by = {(r.variant, r.max_new_tokens): r for r in rows}
        # format spec + example reduce invention vs categories-only
        assert (
            by[("+ one-shot example", None)].invented_rate
            <= by[("categories only", None)].invented_rate
        )
        # the cap reduces latency
        assert (
            by[("+ TF-IDF hints (full)", 20)].mean_latency_s
            < by[("+ TF-IDF hints (full)", None)].mean_latency_s
        )


class TestThroughput:
    def test_llm_never_keeps_up_at_high_rate(self):
        rows = run_throughput_sweep(
            rates_hz=(5.0,), duration_s=60.0, include_traditional=True
        )
        by = {r.classifier: r for r in rows}
        assert not by["tiiuae/falcon-40b"].keeping_up
        assert by["tfidf+complement-nb (measured)"].keeping_up

    def test_backlog_grows_with_rate_for_fixed_service(self):
        rows = run_throughput_sweep(
            rates_hz=(1.0, 5.0), duration_s=60.0, include_traditional=False
        )
        f40 = [r for r in rows if r.classifier == "tiiuae/falcon-40b"]
        assert f40[1].final_backlog > f40[0].final_backlog


class TestDrift:
    def test_bucket_coverage_collapses_ml_holds(self):
        rows = run_drift_experiment(scale=0.006, seed=1, generations=(0, 2))
        base, drifted = rows
        assert base.bucket_coverage > 0.9
        assert drifted.bucket_coverage < base.bucket_coverage - 0.2
        assert drifted.ml_weighted_f1 > 0.9
        assert drifted.new_buckets > base.new_buckets


class TestBlacklist:
    def test_three_configs_and_load_reduction(self):
        results = run_blacklist_experiment(scale=0.008, seed=0)
        assert len(results) == 3
        by = {r.name: r for r in results}
        bl = by["blacklist pre-filter"]
        plain = by["plain (8 categories)"]
        assert bl.filtered > 0
        assert bl.messages_to_model < plain.messages_to_model
        assert bl.weighted_f1 > 0.9


class TestAnomalyBaselines:
    def test_message_level_ordering(self):
        from repro.experiments.anomalyexp import run_message_level

        rows = {r.detector.split(" (")[0]: r.auc
                for r in run_message_level(scale=0.006, seed=0)}
        assert rows["Logistic Regression"] > rows["PCA"]
        assert rows["PCA"] > rows["Isolation Forest"]

    def test_session_level_deeplog_wins(self):
        from repro.experiments.anomalyexp import run_session_level

        rows = {r.detector.split(" (")[0]: r.auc
                for r in run_session_level(seed=0, n_train=120,
                                           n_test_normal=40,
                                           n_test_anomalous=30)}
        assert rows["DeepLog"] > rows["PCA"]
        assert rows["DeepLog"] > rows["Isolation Forest"]


class TestCorrelationExperiment:
    def test_signal_vs_control(self):
        from repro.experiments.correlationexp import run_correlation_experiment

        res = run_correlation_experiment(seed=0, duration_s=3600.0,
                                         n_badged_visits=10)
        assert res.usb.lift > res.ssh_control.lift
        assert res.usb.p_value < 0.1
        assert res.indexed > 0


class TestRetrainExperiment:
    def test_adaptation_recovers_accuracy(self):
        from repro.experiments.retrainexp import run_retrain_experiment

        res = run_retrain_experiment(scale=0.006, seed=0, n_stream=800)
        assert res.adaptive_newcomer_accuracy > res.static_newcomer_accuracy
        assert res.retrain_events >= 1
        assert res.adaptive_base_accuracy > 0.95


class TestMonitoring:
    def test_incidents_detected_and_localized(self):
        res = run_monitoring_experiment(
            duration_s=600.0, background_rate=4.0, seed=0
        )
        assert res.indexed > 0
        assert res.cluster_bursts  # frequency analysis sees the storm
        assert res.thermal_rack == "r00"
        assert res.usb_burst_found
        assert res.singleton_reading_verdict is PeerVerdict.ANOMALOUS
        assert res.family_reading_verdict is PeerVerdict.FAMILY_WIDE
