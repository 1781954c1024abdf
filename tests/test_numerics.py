import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctalign.errors import (
    AllMaskedError,
    ConfigError,
    DegenerateVectorError,
    EvaluationError,
    NumericalError,
    ShapeError,
    SimplexError,
)
from ctalign.numerics import (
    as_simplex,
    cosine_similarity_matrix,
    cosine_similarity_partials,
    grad_check,
    softmax_stable,
    top_k_mask,
)

finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=20
)


class TestSoftmaxStable:
    def test_uniform_on_equal_scores(self):
        out = softmax_stable([0.0, 0.0, 0.0])
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_two_entry_value(self):
        out = softmax_stable([1.0, 0.0])
        assert abs(out[0] - 0.731059) < 1e-6
        assert abs(out[1] - 0.268941) < 1e-6

    def test_masked_entries_are_exact_zeros(self):
        out = softmax_stable([5.0, -np.inf])
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_all_masked_raises(self):
        with pytest.raises(AllMaskedError):
            softmax_stable([-np.inf, -np.inf])

    def test_empty_raises(self):
        with pytest.raises(AllMaskedError):
            softmax_stable([])

    def test_nan_and_posinf_rejected(self):
        with pytest.raises(NumericalError):
            softmax_stable([0.0, np.nan])
        with pytest.raises(NumericalError):
            softmax_stable([0.0, np.inf])

    @given(finite_scores)
    def test_sums_to_one(self, scores):
        assert abs(softmax_stable(scores).sum() - 1.0) <= 1e-12

    @given(finite_scores, st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_shift_invariance(self, scores, c):
        a = softmax_stable(scores)
        b = softmax_stable(np.asarray(scores) + c)
        assert np.abs(a - b).max() <= 1e-12

    def test_large_scores_stay_finite(self):
        out = softmax_stable([1e4, 1e4 - 1])
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) <= 1e-12


class TestTopKMask:
    def test_distinct_scores(self):
        out = top_k_mask([2.0, 1.0, 0.0, -1.0], 2)
        assert out[0] == 2.0 and out[1] == 1.0
        assert np.isneginf(out[2]) and np.isneginf(out[3])

    def test_tie_breaks_to_lower_index(self):
        out = top_k_mask([1.0, 1.0, 1.0], 2)
        assert out[0] == 1.0 and out[1] == 1.0
        assert np.isneginf(out[2])

    def test_k_at_least_length_is_identity(self):
        out = top_k_mask([3.0, 7.0], 5)
        assert np.array_equal(out, [3.0, 7.0])

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError):
            top_k_mask([1.0, 2.0], 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ConfigError):
            top_k_mask([1.0, 2.0, 3.0], k)

    def test_numpy_integer_k_accepted(self):
        assert np.array_equal(top_k_mask([1.0, 2.0], np.int64(2)), [1.0, 2.0])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(NumericalError):
            top_k_mask([1.0, np.nan], 1)

    @given(finite_scores, st.integers(min_value=1, max_value=25))
    def test_finite_count_is_min_k_n(self, scores, k):
        out = top_k_mask(scores, k)
        assert np.isfinite(out).sum() == min(k, len(scores))

    @given(finite_scores, st.integers(min_value=1, max_value=25))
    def test_survivors_kept_verbatim(self, scores, k):
        s = np.asarray(scores)
        out = top_k_mask(s, k)
        kept = np.isfinite(out)
        assert np.array_equal(out[kept], s[kept])


class TestCosineSimilarityPartials:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        a0 = rng.normal(size=(5, 4))
        b0 = rng.normal(size=(5, 3))
        g = rng.normal(size=(4, 3))
        x0 = np.concatenate([a0.ravel(), b0.ravel()])

        def split(x):
            return x[: a0.size].reshape(a0.shape), x[a0.size :].reshape(b0.shape)

        def f(x):
            return float((g * cosine_similarity_matrix(*split(x))).sum())

        def grad(x):
            a, b = split(x)
            ga, gb = cosine_similarity_partials(a, b, cosine_similarity_matrix(a, b), g)
            return np.concatenate([ga.ravel(), gb.ravel()])

        assert grad_check(f, grad, x0) <= 1e-8


class TestCosineSimilarityMatrix:
    def test_self_similarity_is_one(self):
        a = np.array([[1.0], [0.0]])
        assert cosine_similarity_matrix(a, a)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        assert cosine_similarity_matrix(a, b)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[1.0], [1.0]])
        assert abs(cosine_similarity_matrix(a, b)[0, 0] - 0.707107) < 1e-6

    def test_zero_norm_column_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity_matrix(np.zeros((2, 1)), np.ones((2, 1)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cosine_similarity_matrix(np.ones((2, 3)), np.ones((3, 2)))

    def test_result_shape(self):
        rng = np.random.default_rng(0)
        out = cosine_similarity_matrix(rng.normal(size=(4, 5)), rng.normal(size=(4, 7)))
        assert out.shape == (5, 7)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
    def test_entries_in_unit_interval(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        out = cosine_similarity_matrix(rng.normal(size=(d, n)), rng.normal(size=(d, m)))
        assert out.min() >= -1.0 - 1e-12
        assert out.max() <= 1.0 + 1e-12


class TestGradCheck:
    def test_square_exact(self):
        err = grad_check(lambda x: float(x[0] ** 2), lambda x: 2 * x, [3.0])
        assert err <= 1e-9

    def test_norm_squared(self):
        err = grad_check(
            lambda x: float((x * x).sum()), lambda x: 2 * x, [1.0, 2.0]
        )
        assert err <= 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_quadratic_below_1e8(self, seed):
        # central differences are exact on quadratics up to roundoff
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=n)

        def f(x):
            return float(x @ a @ x + b @ x)

        def g(x):
            return (a + a.T) @ x + b

        assert grad_check(f, g, rng.normal(size=n)) <= 1e-8

    def test_detects_wrong_gradient(self):
        err = grad_check(lambda x: float(x[0] ** 2), lambda x: np.zeros_like(x), [3.0])
        assert err > 0.5

    def test_nonfinite_probe_raises(self):
        with pytest.raises(EvaluationError):
            grad_check(lambda x: math.nan, lambda x: np.zeros_like(x), [1.0])

    def test_gradient_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            grad_check(lambda x: 0.0, lambda x: np.zeros(3), [1.0])

    @pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
    def test_step_not_finite_and_positive_rejected(self, step):
        with pytest.raises(ConfigError):
            grad_check(lambda x: float(x[0] ** 2), lambda x: 2 * x, [3.0], step=step)


class TestSimplexValidation:
    def test_valid_simplex_passes(self):
        out = as_simplex([0.25, 0.75])
        assert np.array_equal(out, [0.25, 0.75])

    def test_negative_entry_rejected(self):
        with pytest.raises(SimplexError):
            as_simplex([1.5, -0.5])

    def test_wrong_sum_rejected(self):
        with pytest.raises(SimplexError):
            as_simplex([0.6, 0.5])
