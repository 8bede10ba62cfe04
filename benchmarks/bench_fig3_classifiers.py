"""EXP-F3 — Figure 3: eight classifiers, weighted F1 / train / test time.

Paper reference values (196k messages, their hardware):

    Logistic Regression    0.9992   15.38 s    0.0054 s
    Ridge Classifier       0.9987    4.72 s    0.0043 s
    kNN                    0.9985    0.011 s   4.91 s
    Random Forest          0.9995    9.10 s    0.61 s
    Linear SVC             0.9993  211.78 s    4.82 s
    Log-loss SGD           0.9878    0.47 s    0.0023 s
    Nearest Centroid       0.9523    0.013 s   0.0074 s
    Complement Naive Bayes 0.9975    0.023 s   0.0018 s

Absolute numbers differ (smaller corpus, different hardware); the
asserted *shape* is the paper's: every model ≥0.95 except Nearest
Centroid lowest; kNN trains fastest and pays at test time; Linear SVC
(dual coordinate descent, the liblinear algorithm) trains slowest by a
wide margin; Complement NB tests fastest.

``TestClassifierComparison::test_timing_shape`` makes the same three
wall-clock rankings on the small split the experiment tests use; it
lives here, beside the timed figure, because a ranking of wall times
is not a tier-1 gate.
"""

import pytest
from conftest import emit

from repro.experiments.classifiers import fig3_layout, run_classifier_comparison
from repro.experiments.common import ExperimentData, format_table


@pytest.fixture(scope="module")
def data():
    return ExperimentData(scale=0.008, seed=0, max_features=1200).prepare()


def test_fig3_classifier_comparison(benchmark, bench_data):
    rows = benchmark.pedantic(
        lambda: run_classifier_comparison(bench_data), rounds=1, iterations=1
    )

    emit(
        "Figure 3 — traditional classifiers (measured vs paper weighted F1)",
        format_table(*fig3_layout(rows)),
    )

    by = {r.name: r for r in rows}
    # accuracy shape
    for name, row in by.items():
        floor = 0.75 if name == "Nearest Centroid" else 0.95
        assert row.weighted_f1 > floor, f"{name} f1={row.weighted_f1:.4f}"
    assert by["Nearest Centroid"].weighted_f1 == min(r.weighted_f1 for r in rows)
    # timing shape — kNN and Nearest Centroid both "train" in
    # microseconds (a near-tie in the paper too: 0.0107 vs 0.0127 s);
    # the meaningful claim is that kNN's training cost is negligible
    assert by["kNN"].train_s <= 2.0 * min(r.train_s for r in rows)
    assert by["kNN"].train_s < 0.01 * by["Linear SVC"].train_s
    assert by["Linear SVC"].train_s == max(r.train_s for r in rows)
    assert by["Linear SVC"].train_s > 5 * by["Random Forest"].train_s or \
        by["Linear SVC"].train_s > 1.0
    assert by["Complement Naive Bayes"].test_s <= min(
        r.test_s for r in rows
    ) * 3  # among the fastest testers
    assert by["kNN"].test_s > 10 * by["Complement Naive Bayes"].test_s


class TestClassifierComparison:
    def test_timing_shape(self, data):
        rows = {r.name: r for r in run_classifier_comparison(data)}
        # kNN: trivial train, among the slowest testers (Figure 3; at
        # this tiny scale Random Forest's per-tree traversal can edge it)
        assert rows["kNN"].train_s == min(r.train_s for r in rows.values())
        test_ranking = sorted(rows.values(), key=lambda r: -r.test_s)
        assert rows["kNN"] in test_ranking[:2]
        # Linear SVC (dual CD): slowest train
        assert rows["Linear SVC"].train_s == max(r.train_s for r in rows.values())
