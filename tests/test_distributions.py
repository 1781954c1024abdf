import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctalign.distributions import (
    as_label_vector,
    build_beta,
    build_theta,
    default_top_k,
    make_point_set,
    normalized_labels,
    theta_with_partial,
)
from ctalign.errors import (
    ConfigError,
    EmptyLabelSetError,
    ShapeError,
    SimplexError,
)
from ctalign.numerics import grad_check


class TestBuildTheta:
    def test_equal_scores_give_uniform(self):
        # four identical patch columns score identically against any query
        patch = np.tile(np.array([[1.0], [2.0]]), (1, 4))
        labels = np.array([[0.5], [1.0]])
        theta = build_theta(patch, labels, [1], k=4)
        assert np.allclose(theta, 0.25, atol=1e-12)

    def test_top2_softmax_values(self):
        # 1-d embeddings make the scores explicit: E^T (L yhat) = [2,1,0,-1]
        patch = np.array([[2.0, 1.0, 0.0, -1.0]])
        labels = np.array([[1.0]])
        theta = build_theta(patch, labels, [1], k=2)
        assert abs(theta[0] - 0.731059) < 1e-6
        assert abs(theta[1] - 0.268941) < 1e-6
        assert theta[2] == 0.0 and theta[3] == 0.0

    def test_single_patch(self):
        theta = build_theta(np.array([[3.0]]), np.array([[1.0]]), [1], k=7)
        assert np.array_equal(theta, [1.0])

    def test_binary_mode_is_dense_two_level(self):
        patch = np.array([[2.0, 1.0, 0.0, -1.0]])
        labels = np.array([[1.0]])
        theta = build_theta(patch, labels, [1], k=2, topk_mode="binary")
        # survivors share e/(2e+2), the masked pair shares 1/(2e+2)
        assert abs(theta[0] - 0.365529) < 1e-6
        assert abs(theta[1] - 0.365529) < 1e-6
        assert abs(theta[2] - 0.134471) < 1e-6
        assert (theta > 0).all()

    def test_all_zero_labels_rejected(self):
        with pytest.raises(EmptyLabelSetError):
            build_theta(np.ones((2, 3)), np.ones((2, 2)), [0, 0], k=2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_theta(np.ones((2, 3)), np.ones((3, 2)), [1, 0], k=2)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_theta(np.ones((2, 3)), np.ones((2, 2)), [1, 0, 1], k=2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            build_theta(np.ones((2, 3)), np.ones((2, 2)), [1, 0], k=2, topk_mode="soft")

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_support_size_and_sum(self, n, k, seed):
        rng = np.random.default_rng(seed)
        d, m = 3, 2
        patch = rng.normal(size=(d, n))
        labels = rng.normal(size=(d, m))
        theta = build_theta(patch, labels, [1, 1], k=k)
        assert (theta > 0).sum() == min(k, n)
        assert abs(theta.sum() - 1.0) <= 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_support_invariant_to_positive_query_rescale(self, seed):
        rng = np.random.default_rng(seed)
        patch = rng.normal(size=(3, 8))
        labels = rng.normal(size=(3, 2))
        scale = float(rng.random() * 9 + 0.1)
        a = build_theta(patch, labels, [1, 0], k=3)
        b = build_theta(patch, labels * scale, [1, 0], k=3)
        assert np.array_equal(a > 0, b > 0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        patch = rng.normal(size=(3, 7))
        labels = rng.normal(size=(3, 2))
        perm = rng.permutation(7)
        base = build_theta(patch, labels, [0, 1], k=4)
        permuted = build_theta(patch[:, perm], labels, [0, 1], k=4)
        assert np.allclose(permuted, base[perm], atol=1e-15)


class TestThetaWithPartial:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_sparse_partials_match_central_differences(self, k):
        rng = np.random.default_rng(k)
        patch, labels, yhat = rng.normal(size=(3, 6)), rng.normal(size=(3, 2)), np.array([0.5, 0.5])
        logits, theta, partial = theta_with_partial(patch, labels, yhat, k)
        kept = np.isfinite(logits)
        # no tie at rank k, so the top-k set holds for every probe point
        ranked = np.sort(patch.T @ (labels @ yhat))[::-1]
        assert k == 6 or ranked[k - 1] - ranked[k] > 1e-3
        g_theta, g_logits = rng.normal(size=6), np.where(kept, rng.normal(size=6), 0.0)
        g_patch, g_labels = partial(g_theta, g_logits)

        def f(e, l):
            lg, th, _ = theta_with_partial(e, l, yhat, k)
            return float(g_theta @ th + g_logits[kept] @ lg[kept])

        def probe_patch(v):
            return f(v.reshape(patch.shape), labels)

        def probe_labels(v):
            return f(patch, v.reshape(labels.shape))

        assert grad_check(probe_patch, lambda _x: g_patch.ravel(), patch.ravel()) <= 1e-7
        assert grad_check(probe_labels, lambda _x: g_labels.ravel(), labels.ravel()) <= 1e-7

    def test_binary_partials_are_exactly_zero(self):
        rng = np.random.default_rng(4)
        patch, labels = rng.normal(size=(3, 6)), rng.normal(size=(3, 2))
        logits, theta, partial = theta_with_partial(patch, labels, np.array([1.0, 0.0]), 2, "binary")
        assert np.array_equal(logits, np.log(theta))
        g_patch, g_labels = partial(rng.normal(size=6), rng.normal(size=6))
        assert not g_patch.any() and not g_labels.any()


class TestBuildBeta:
    def test_single_positive(self):
        assert np.array_equal(build_beta([1, 0, 0]), [1.0, 0.0, 0.0])

    def test_two_positives_masked(self):
        assert np.array_equal(build_beta([1, 1, 0, 0]), [0.5, 0.5, 0.0, 0.0])

    def test_literal_softmax(self):
        beta = build_beta([1, 1, 0, 0], mode="literal")
        assert abs(beta[0] - 0.365529) < 1e-6
        assert abs(beta[2] - 0.134471) < 1e-6
        assert abs(beta.sum() - 1.0) <= 1e-12

    def test_masked_equals_normalized_labels(self):
        y = [1, 0, 1, 1, 0]
        assert np.array_equal(build_beta(y), normalized_labels(y))

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyLabelSetError):
            build_beta([0, 0, 0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            build_beta([1, 0], mode="uniform")

    def test_non_binary_rejected(self):
        with pytest.raises(ShapeError):
            build_beta([0.5, 0.5])


class TestMakePointSet:
    def test_single_point(self):
        ps = make_point_set(np.array([[1.0], [2.0]]), [1.0])
        assert ps.dim == 2 and ps.size == 1

    def test_sum_above_one_rejected(self):
        with pytest.raises(SimplexError):
            make_point_set(np.ones((2, 2)), [0.6, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            make_point_set(np.ones((2, 3)), [0.3, 0.7])

    def test_negative_weight_rejected(self):
        with pytest.raises(SimplexError):
            make_point_set(np.ones((2, 2)), [1.5, -0.5])

    def test_frozen_fields(self):
        ps = make_point_set(np.ones((2, 1)), [1.0])
        with pytest.raises(AttributeError):
            ps.weights = np.array([0.5])


class TestLabelVectorHelpers:
    def test_default_top_k_clamps_to_count(self):
        assert default_top_k(16) == 16
        assert default_top_k(500) == 200

    def test_as_label_vector_accepts_bool_ints(self):
        assert np.array_equal(as_label_vector([1, 0, 1]), [1, 0, 1])

    def test_as_label_vector_rejects_other_values(self):
        with pytest.raises(ShapeError):
            as_label_vector([2, 0])

    def test_normalized_labels(self):
        assert np.allclose(normalized_labels([1, 1, 0, 1]), [1 / 3, 1 / 3, 0, 1 / 3])
