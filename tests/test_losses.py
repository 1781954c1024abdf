import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctalign import autodiff
from ctalign import model as model_mod
from ctalign.errors import ConfigError, NumericalError, ShapeError
from ctalign.losses import (
    GradientBundle,
    LossConfig,
    asl_loss,
    asl_with_partial,
    loss_gradients,
    warmup_gradients,
)
from ctalign.numerics import grad_check

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def tiny_instance(seed: int, n_labels=3, dim=6, n_patches=6, depth=2, batch=1):
    samples = model_mod.generate_dataset(
        n_labels=n_labels,
        feature_dim=dim,
        n_patches=n_patches,
        n_samples=max(12, 4 * batch),
        noise_sigma=0.3,
        seed=seed,
    )
    params = model_mod.init_params(
        n_labels=n_labels, dim=dim, depth=depth, seed=seed + 1
    )
    return params, samples[:batch]


def flat_gradient(params, bundle) -> np.ndarray:
    order = model_mod.parameter_arrays(params)
    return np.concatenate([bundle.partials[name].ravel() for name in order])


class TestAslLoss:
    def test_perfect_positive_near_zero(self):
        assert asl_loss([1.0 - 1e-7], [1]) < 1e-6

    def test_positive_example(self):
        assert abs(asl_loss([0.9], [1]) - 0.105361) < 1e-6

    def test_negative_example_with_focus(self):
        # (0.5)^2 * ln(0.5) weighted term
        assert abs(asl_loss([0.5], [0]) - 0.173287) < 1e-6

    def test_reduces_to_bce_when_gammas_zero(self):
        rng = np.random.default_rng(0)
        cfg = LossConfig(gamma_plus=0.0, gamma_minus=0.0)
        for _ in range(25):
            m = int(rng.integers(1, 8))
            p = rng.random(m) * 0.98 + 0.01
            y = (rng.random(m) < 0.5).astype(np.int64)
            bce = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
            assert abs(asl_loss(p, y, cfg) - bce) <= 1e-12

    @given(seeds, st.floats(min_value=0, max_value=4), st.floats(min_value=0, max_value=4))
    def test_nonnegative(self, seed, gp, gm):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        p = rng.random(m)
        y = (rng.random(m) < 0.5).astype(np.int64)
        assert asl_loss(p, y, LossConfig(gamma_plus=gp, gamma_minus=gm)) >= 0.0

    def test_extreme_probabilities_stay_finite(self):
        assert math.isfinite(asl_loss([0.0, 1.0], [1, 0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            asl_loss([0.5, 0.5], [1])

    def test_nan_rejected(self):
        with pytest.raises(NumericalError):
            asl_loss([np.nan], [1])

    @pytest.mark.parametrize("gammas", [(0.0, 0.0), (0.0, 2.0), (1.0, 2.0), (0.5, 1.5)])
    def test_partial_matches_finite_differences(self, gammas):
        cfg = LossConfig(gamma_plus=gammas[0], gamma_minus=gammas[1])
        rng = np.random.default_rng(13)
        p0 = rng.random(6) * 0.9 + 0.05
        y = np.array([1, 0, 1, 0, 0, 1])
        _, partial = asl_with_partial(p0, y, cfg)
        assert grad_check(lambda p: asl_loss(p, y, cfg), lambda _p: partial(1.0), p0) <= 1e-8

    def test_partial_zero_where_clamped(self):
        _, partial = asl_with_partial([0.0, 1.0, 0.5], [1, 0, 1])
        g = partial(1.0)
        assert g[0] == 0.0 and g[1] == 0.0 and g[2] != 0.0


def objective_parts(params, batch, cfg):
    """(total, lct, asl) of the batch objective as floats."""
    root, lct, asl = model_mod.batch_objective(
        model_mod.parameter_tensors(params), params, batch, cfg
    )
    return float(root.value), float(lct.value), float(asl.value)


class TestCombinedLoss:
    """The objective alpha * lct + asl, through model.batch_objective."""

    def test_alpha_zero_equals_asl_exactly(self):
        params, batch = tiny_instance(2)
        total, lct, asl = objective_parts(params, batch, LossConfig(alpha=0.0))
        assert total == asl
        assert lct > 0.0
        assert model_mod.batch_loss_value(params, batch, LossConfig(alpha=0.0)) == asl

    def test_identical_single_points_and_perfect_prediction(self):
        # one patch on its label's ray: both transport costs vanish, and at
        # radius^2 = 18 the class logit puts the probability in the clamp
        dim = 18
        params = model_mod.init_params(n_labels=1, dim=dim, depth=1, seed=0)
        params.encoder_layers[0].weight[...] = 0.0
        params.label_table[...] = np.eye(dim)[:, :1]
        sample = model_mod.SyntheticSample(np.eye(dim)[:, :1], np.array([1]), np.array([0]))
        total, lct, _ = objective_parts(params, [sample], LossConfig())
        assert total < 1e-6
        assert lct == pytest.approx(0.0, abs=1e-12)

    def test_start_layer_reflected(self):
        params, batch = tiny_instance(4)
        _, lct_all, _ = objective_parts(params, batch, LossConfig(start_layer=1))
        _, lct_last, _ = objective_parts(params, batch, LossConfig(start_layer=2))
        assert lct_all > lct_last > 0.0


def assert_matches_finite_differences(cfg):
    # two samples, so the shared label frames sum gradients from both graphs
    params, batch = tiny_instance(6, n_labels=3, dim=6, n_patches=4, depth=2, batch=2)
    flat = flat_gradient(params, loss_gradients(params, batch, cfg))
    x0 = model_mod.flatten_parameters(params).copy()

    def f(vec):
        model_mod.assign_parameters(params, vec)
        value = model_mod.batch_loss_value(params, batch, cfg)
        model_mod.assign_parameters(params, x0)
        return value

    assert grad_check(f, lambda _x: flat, x0) <= 1e-4


class TestLossConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            {"top_k": 0},
            {"top_k": "3"},
            {"top_k": 2.0},
            {"top_k": True},
            {"beta_mode": "uniform"},
            {"topk_mode": "soft"},
        ],
        ids=["top-k-zero", "top-k-str", "top-k-float", "top-k-bool", "beta-mode", "topk-mode"],
    )
    def test_bad_weighting_rejected(self, fields):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            LossConfig(**fields)


class TestLossGradients:
    def test_alpha_zero_navigator_gradient_exactly_zero(self):
        params, batch = tiny_instance(5)
        bundle = loss_gradients(params, batch, LossConfig(alpha=0.0))
        assert np.array_equal(
            bundle.partials["navigator.log_temperature"], np.zeros(1)
        )

    def test_matches_finite_differences(self):
        assert_matches_finite_differences(LossConfig(alpha=1.0))

    @pytest.mark.parametrize(
        "loss_fields",
        [
            {"topk_mode": "binary"},
            {"beta_mode": "literal"},
            {"start_layer": 2},
            {"gamma_plus": 1.0},
            {"top_k": 2},
        ],
        ids=["binary-topk", "literal-beta", "start-layer-2", "gamma-plus-1", "top-k-2"],
    )
    def test_matches_finite_differences_off_defaults(self, loss_fields):
        assert_matches_finite_differences(LossConfig(alpha=1.0, **loss_fields))

    def test_duplicated_sample_equals_single(self):
        # both copies share one set of label frames, so a joint step sums the
        # frames' gradient from their transport and head nodes in another
        # order: the label groups may move by a few ulps of their largest
        # entry (at most 7 over seeds 0-59). Every other group, and every
        # group in warmup, where transport reaches only the navigator, is
        # bit-identical.
        for seed in range(7, 15):
            params, batch = tiny_instance(seed)
            for grad_fn in (loss_gradients, warmup_gradients):
                one = grad_fn(params, batch, LossConfig())
                two = grad_fn(params, batch * 2, LossConfig())
                for name, g in one.partials.items():
                    if grad_fn is loss_gradients and name.startswith("label."):
                        ulp = np.spacing(np.abs(g).max())
                        assert np.abs(two.partials[name] - g).max() <= 16 * ulp
                    else:
                        assert np.array_equal(two.partials[name], g)

    def test_one_label_branch_per_objective(self, monkeypatch):
        calls = []
        original = model_mod._orthonormal_columns

        def counting(t, radius):
            calls.append(t)
            return original(t, radius)

        monkeypatch.setattr(model_mod, "_orthonormal_columns", counting)
        params, batch = tiny_instance(14, batch=3)
        cfg = LossConfig()
        for objective in (loss_gradients, warmup_gradients, model_mod.batch_loss_value):
            calls.clear()
            objective(params, batch, cfg)
            assert len(calls) == params.depth

    def test_bundle_components_additive(self):
        params, batch = tiny_instance(8, batch=2)
        cfg = LossConfig(alpha=0.4)
        bundle = loss_gradients(params, batch, cfg)
        assert bundle.total == pytest.approx(
            cfg.alpha * bundle.lct + bundle.asl, abs=1e-12
        )
        assert bundle.total == pytest.approx(
            model_mod.batch_loss_value(params, batch, cfg), abs=0
        )

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NumericalError):
            GradientBundle(
                partials={"x": np.array([np.nan])}, total=0.0, lct=0.0, asl=0.0
            )


OFF_DEFAULT_CASES = pytest.mark.parametrize(
    "loss_fields",
    [
        {"topk_mode": "binary"},
        {"beta_mode": "literal"},
        {"start_layer": 2},
        {"top_k": 2},
    ],
    ids=["binary-topk", "literal-beta", "start-layer-2", "top-k-2"],
)


def assert_model_groups_follow_classification_only(loss_fields=None):
    params, batch = tiny_instance(9, batch=2)
    loss_fields = loss_fields or {}
    warm = warmup_gradients(params, batch, LossConfig(alpha=1.0, **loss_fields))
    asl_only = loss_gradients(params, batch, LossConfig(alpha=0.0, **loss_fields))
    for name in warm.partials:
        if name.startswith("navigator."):
            continue
        assert np.array_equal(warm.partials[name], asl_only.partials[name])


def assert_navigator_follows_raw_transport(loss_fields=None):
    params, batch = tiny_instance(10, batch=2)
    cfg = LossConfig(alpha=1.0, **(loss_fields or {}))
    warm = warmup_gradients(params, batch, cfg)
    joint = loss_gradients(params, batch, cfg)
    # the classification term never touches the temperature, so the full
    # objective's navigator gradient is the raw transport gradient
    assert np.array_equal(
        warm.partials["navigator.log_temperature"],
        joint.partials["navigator.log_temperature"],
    )


class TestWarmupGradients:
    def test_model_groups_follow_classification_only(self):
        assert_model_groups_follow_classification_only()

    @OFF_DEFAULT_CASES
    def test_model_groups_follow_classification_only_off_defaults(self, loss_fields):
        assert_model_groups_follow_classification_only(loss_fields)

    def test_navigator_follows_raw_transport(self):
        assert_navigator_follows_raw_transport()

    @OFF_DEFAULT_CASES
    def test_navigator_follows_raw_transport_off_defaults(self, loss_fields):
        assert_navigator_follows_raw_transport(loss_fields)

    def test_one_backward_pass(self, monkeypatch):
        roots = []
        original = autodiff.backward

        def counting(root):
            roots.append(root)
            original(root)

        monkeypatch.setattr(autodiff, "backward", counting)
        params, batch = tiny_instance(13)
        warmup_gradients(params, batch, LossConfig(alpha=1.0))
        assert len(roots) == 1

    def test_alpha_zero_leaves_navigator_untouched(self):
        params, batch = tiny_instance(11)
        warm = warmup_gradients(params, batch, LossConfig(alpha=0.0))
        assert np.array_equal(
            warm.partials["navigator.log_temperature"], np.zeros(1)
        )

    def test_reported_total_is_classification_loss(self):
        params, batch = tiny_instance(12)
        warm = warmup_gradients(params, batch, LossConfig(alpha=1.0))
        assert warm.total == warm.asl
