"""Unit + property tests for classification metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    precision_recall_f1,
    weighted_f1_score,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score(["a", "b"], ["a", "b"]) == 1.0

    def test_half(self):
        assert accuracy_score(["a", "b"], ["a", "a"]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            accuracy_score(["a"], ["a", "b"])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy_score([], [])


class TestConfusionMatrix:
    def test_known(self):
        cm = confusion_matrix(["a", "a", "b"], ["a", "b", "b"], labels=["a", "b"])
        assert cm.tolist() == [[1, 1], [0, 1]]

    def test_diagonal_for_perfect(self):
        cm = confusion_matrix(["x", "y", "z"], ["x", "y", "z"])
        assert np.all(cm == np.eye(3, dtype=int))

    def test_label_order_respected(self):
        cm = confusion_matrix(["a", "b"], ["a", "b"], labels=["b", "a"])
        assert cm[0, 0] == 1  # 'b' first

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="outside"):
            confusion_matrix(["a"], ["z"], labels=["a"])


class TestPrecisionRecallF1:
    def test_perfect_scores(self):
        p, r, f1, support = precision_recall_f1(["a", "b"], ["a", "b"])
        assert np.allclose(p, 1.0) and np.allclose(r, 1.0) and np.allclose(f1, 1.0)
        assert support.tolist() == [1, 1]

    def test_zero_division_convention(self):
        # 'b' never predicted: precision 0 without warnings/NaN
        p, r, f1, _ = precision_recall_f1(["a", "b"], ["a", "a"], labels=["a", "b"])
        assert p[1] == 0.0 and r[1] == 0.0 and f1[1] == 0.0

    def test_known_values(self):
        # tp(a)=2, fp(a)=1, fn(a)=1
        y_true = ["a", "a", "a", "b"]
        y_pred = ["a", "a", "b", "a"]
        p, r, f1, s = precision_recall_f1(y_true, y_pred, labels=["a", "b"])
        assert p[0] == pytest.approx(2 / 3)
        assert r[0] == pytest.approx(2 / 3)
        assert f1[0] == pytest.approx(2 / 3)
        assert s.tolist() == [3, 1]


class TestF1Aggregates:
    def test_weighted_vs_macro_on_imbalance(self):
        # majority class perfect, minority class wrong
        y_true = ["maj"] * 9 + ["min"]
        y_pred = ["maj"] * 10
        w = weighted_f1_score(y_true, y_pred)
        _p, _r, f1, support = precision_recall_f1(y_true, y_pred)
        macro = f1[support > 0].mean()
        assert w > macro  # weighting favours the well-predicted majority

    def test_perfect_is_one(self):
        assert weighted_f1_score(["a", "b"], ["a", "b"]) == 1.0


class TestReport:
    def test_contains_labels_and_averages(self):
        rep = classification_report(["a", "b", "b"], ["a", "b", "a"])
        assert "a" in rep and "b" in rep
        assert "weighted avg" in rep
        assert "accuracy" in rep


_labels = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40)


class TestProperties:
    @given(_labels)
    def test_perfect_prediction_all_ones(self, y):
        assert weighted_f1_score(y, y) == pytest.approx(1.0)
        assert accuracy_score(y, y) == 1.0

    @given(_labels, _labels)
    def test_f1_bounds(self, y1, y2):
        n = min(len(y1), len(y2))
        y1, y2 = y1[:n], y2[:n]
        if n == 0:
            return
        assert 0.0 <= weighted_f1_score(y1, y2) <= 1.0

    @given(_labels, _labels)
    def test_confusion_sums_to_n(self, y1, y2):
        n = min(len(y1), len(y2))
        if n == 0:
            return
        cm = confusion_matrix(y1[:n], y2[:n])
        assert cm.sum() == n

    @given(_labels, _labels)
    def test_accuracy_equals_confusion_trace(self, y1, y2):
        n = min(len(y1), len(y2))
        if n == 0:
            return
        cm = confusion_matrix(y1[:n], y2[:n])
        assert accuracy_score(y1[:n], y2[:n]) == pytest.approx(np.trace(cm) / n)
