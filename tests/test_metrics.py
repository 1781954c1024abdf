import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctalign.errors import ConfigError, ShapeError, UndefinedMetricError
from ctalign.metrics import (
    average_precision,
    map_score,
    prf_suite,
    top_k_predictions,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestAveragePrecision:
    def test_positives_ranked_first(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_worked_interleaved_case(self):
        ap = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert ap == pytest.approx(5 / 6, abs=1e-12)
        assert abs(ap - 0.833333) < 1e-6

    def test_single_positive_ranked_second(self):
        assert average_precision([0.9, 0.8], [0, 1]) == 0.5

    def test_no_positive_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.4, 0.2], [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            average_precision([0.4], [0, 1])

    def test_ties_break_to_lower_index(self):
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    @given(seeds)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        scores = rng.random(n)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        labels[int(rng.integers(0, n))] = 1
        a = average_precision(scores, labels)
        b = average_precision(3.0 * scores + 1.0, labels)
        assert a == b


class TestMapScore:
    def test_perfect_scores(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        labels = np.array([[1, 0], [0, 1]])
        assert map_score(scores, labels) == 1.0

    def test_mean_of_per_class_aps(self):
        # class 0 perfect, class 1 has its positive ranked second
        scores = np.array([[0.9, 0.6], [0.1, 0.7]])
        labels = np.array([[1, 1], [0, 0]])
        assert map_score(scores, labels) == pytest.approx(0.75)

    def test_zero_positive_classes_excluded(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6]])
        labels = np.array([[1, 0], [0, 0]])
        assert map_score(scores, labels) == 1.0

    def test_no_positives_anywhere_rejected(self):
        with pytest.raises(UndefinedMetricError):
            map_score(np.ones((2, 2)), np.zeros((2, 2), dtype=np.int64))

    @given(seeds)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 4
        scores = rng.random((n, m))
        labels = (rng.random((n, m)) < 0.4).astype(np.int64)
        labels[0] = 1  # ensure every class scored
        rows, cols = rng.permutation(n), rng.permutation(m)
        base = map_score(scores, labels)
        shuffled = map_score(scores[np.ix_(rows, cols)], labels[np.ix_(rows, cols)])
        assert base == pytest.approx(shuffled, abs=1e-12)


class TestPrfSuite:
    def test_perfect_predictions_give_all_ones(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        labels = np.array([[1, 0], [0, 1]])
        report = prf_suite(scores, labels)
        row = report.as_row()
        for key in ("mAP", "CP", "CR", "CF1", "OP", "OR", "OF1"):
            assert row[key] == 1.0

    def test_pooled_counts_worked_case(self):
        # one TP, one FP, one FN after thresholding
        scores = np.array([[0.9, 0.8], [0.2, 0.3]])
        labels = np.array([[1, 0], [0, 1]])
        report = prf_suite(scores, labels)
        assert report.overall_precision == 0.5
        assert report.overall_recall == 0.5
        assert report.overall_f1 == 0.5

    def test_top_k_regime_recall(self):
        scores = np.array([[0.9, 0.8, 0.7, 0.1]])
        labels = np.array([[1, 1, 1, 0]])
        report = prf_suite(scores, labels, top_k=3)
        assert report.regime == "top3"
        assert report.overall_recall == 1.0

    def test_zero_prediction_class_contributes_zero_precision(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        labels = np.array([[1, 1], [1, 0]])
        report = prf_suite(scores, labels)
        # class 1 predicted never: precision (1 + 0) / 2
        assert report.class_precision == 0.5

    def test_threshold_is_strict(self):
        scores = np.array([[0.5, 0.6]])
        labels = np.array([[1, 1]])
        report = prf_suite(scores, labels)
        assert report.overall_recall == 0.5

    def test_cf1_is_harmonic_mean(self):
        rng = np.random.default_rng(2)
        scores = rng.random((8, 3))
        labels = (rng.random((8, 3)) < 0.5).astype(np.int64)
        labels[0] = 1
        r = prf_suite(scores, labels)
        cp, cr = r.class_precision, r.class_recall
        if cp + cr > 0:
            assert r.class_f1 == pytest.approx(2 * cp * cr / (cp + cr), abs=1e-12)

    @given(seeds)
    def test_of1_between_op_and_or(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((6, 4))
        labels = (rng.random((6, 4)) < 0.5).astype(np.int64)
        labels[0] = 1
        r = prf_suite(scores, labels)
        if r.overall_precision > 0 and r.overall_recall > 0:
            lo = min(r.overall_precision, r.overall_recall)
            hi = max(r.overall_precision, r.overall_recall)
            assert lo - 1e-12 <= r.overall_f1 <= hi + 1e-12

    @given(seeds)
    def test_top_k_regime_invariant_to_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((5, 4))
        labels = (rng.random((5, 4)) < 0.5).astype(np.int64)
        labels[0] = 1
        a = prf_suite(scores, labels, top_k=2)
        b = prf_suite(np.exp(scores), labels, top_k=2)
        assert a == b


class TestTopKPredictions:
    def test_marks_k_highest(self):
        preds = top_k_predictions(np.array([[0.1, 0.9, 0.5]]), 2)
        assert np.array_equal(preds, [[0, 1, 1]])

    def test_k_larger_than_classes(self):
        preds = top_k_predictions(np.array([[0.1, 0.9]]), 5)
        assert np.array_equal(preds, [[1, 1]])

    def test_tie_goes_to_lower_class_index(self):
        preds = top_k_predictions(np.array([[0.5, 0.5, 0.5]]), 1)
        assert np.array_equal(preds, [[1, 0, 0]])

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError):
            top_k_predictions(np.ones((1, 2)), 0)
