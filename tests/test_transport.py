import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_point_sets, random_simplex
from ctalign import model as model_mod
from ctalign.distributions import make_point_set
from ctalign.errors import (
    ConfigError,
    GridError,
    NumericalError,
    ShapeError,
)
from ctalign.losses import LossConfig
from ctalign.numerics import grad_check, softmax_stable, top_k_mask
from ctalign.transport import (
    NavigatorParams,
    backward_plan,
    cost_matrix,
    ct_distance,
    ct_kernel,
    export_plan_grid,
    forward_plan,
    sinkhorn_ot,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def symmetric_2x2():
    """Orthonormal supports on both sides: c = d = [[0,1],[1,0]] at tau 1."""
    support = np.eye(2)
    p = make_point_set(support, [0.5, 0.5])
    q = make_point_set(support, [0.5, 0.5])
    return p, q


def nav_with_tau(tau: float) -> NavigatorParams:
    return NavigatorParams(log_temperature=np.array([math.log(tau)]))


class TestCostMatrix:
    def test_identical_unit_columns(self):
        a = np.array([[1.0], [0.0]])
        assert cost_matrix(a, a)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_columns(self):
        assert cost_matrix(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))[
            0, 0
        ] == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_columns(self):
        assert cost_matrix(np.array([[1.0]]), np.array([[-1.0]]))[0, 0] == pytest.approx(
            2.0, abs=1e-12
        )

    @given(seeds)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        c = cost_matrix(rng.normal(size=(3, 5)), rng.normal(size=(3, 4)))
        assert c.min() >= 0.0
        assert c.max() <= 2.0 + 1e-12


class TestNavigatorDistance:
    def test_tau_one_identical(self):
        from ctalign.transport import navigator_distance

        a = np.array([[2.0], [1.0]])
        assert navigator_distance(a, a)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_tau_two_orthogonal(self):
        from ctalign.transport import navigator_distance

        d = navigator_distance(
            np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), nav_with_tau(2.0)
        )
        assert d[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_tau_half_antipodal(self):
        from ctalign.transport import navigator_distance

        d = navigator_distance(
            np.array([[1.0]]), np.array([[-1.0]]), nav_with_tau(0.5)
        )
        assert d[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_vector_temperature_rejected(self):
        with pytest.raises(ConfigError):
            NavigatorParams(log_temperature=np.array([0.0, 1.0]))

    def test_tau_property(self):
        assert nav_with_tau(2.5).tau == pytest.approx(2.5, rel=1e-12)


class TestPlans:
    def test_one_by_one(self):
        p = make_point_set(np.array([[1.0]]), [1.0])
        q = make_point_set(np.array([[2.0]]), [1.0])
        assert np.allclose(forward_plan(p, q).coupling, [[1.0]])
        assert np.allclose(backward_plan(p, q).coupling, [[1.0]])

    def test_equal_distances_factorize(self):
        # identical target columns: every distance ties, exponents cancel
        p = make_point_set(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.3, 0.7])
        q = make_point_set(np.tile([[1.0], [1.0]], (1, 3)), [0.2, 0.5, 0.3])
        f = forward_plan(p, q)
        b = backward_plan(p, q)
        outer = np.outer(p.weights, q.weights)
        assert np.allclose(f.coupling, outer, atol=1e-12)
        assert np.allclose(b.coupling, outer, atol=1e-12)

    def test_worked_2x2_forward(self):
        p, q = symmetric_2x2()
        f = forward_plan(p, q)
        expected = [[0.365529, 0.134471], [0.134471, 0.365529]]
        assert np.abs(f.coupling - expected).max() < 1e-6

    def test_worked_2x2_backward_matches_forward(self):
        p, q = symmetric_2x2()
        f = forward_plan(p, q)
        b = backward_plan(p, q)
        assert np.allclose(f.coupling, b.coupling, atol=1e-12)

    def test_direction_tags(self):
        p, q = symmetric_2x2()
        assert forward_plan(p, q).direction == "forward"
        assert backward_plan(p, q).direction == "backward"

    def test_dimension_mismatch_rejected(self):
        p = make_point_set(np.ones((2, 1)), [1.0])
        q = make_point_set(np.ones((3, 1)), [1.0])
        with pytest.raises(ShapeError):
            forward_plan(p, q)

    @given(seeds)
    def test_marginals(self, seed):
        rng = np.random.default_rng(seed)
        n, m, d = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
        p, q = random_point_sets(rng, n, m, d)
        nav = NavigatorParams(log_temperature=rng.normal(size=1) * 0.5)
        f = forward_plan(p, q, nav)
        b = backward_plan(p, q, nav)
        assert np.abs(f.coupling.sum(axis=1) - p.weights).max() <= 1e-12
        assert np.abs(b.coupling.sum(axis=0) - q.weights).max() <= 1e-12

    @given(seeds)
    def test_joint_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_point_sets(rng, 5, 4, 3)
        perm_n, perm_m = rng.permutation(5), rng.permutation(4)
        pp = make_point_set(p.support[:, perm_n], p.weights[perm_n])
        qq = make_point_set(q.support[:, perm_m], q.weights[perm_m])
        base = ct_distance(p, q)
        permuted = ct_distance(pp, qq)
        assert abs(base.total - permuted.total) <= 1e-12
        assert np.allclose(
            permuted.forward.coupling,
            base.forward.coupling[np.ix_(perm_n, perm_m)],
            atol=1e-12,
        )


def nested_loop_ct(p, q, nav) -> float:
    """Literal per-pair evaluation of both navigator sums."""
    n, m = p.size, q.size
    tau = nav.tau
    c = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            a, b = p.support[:, i], q.support[:, j]
            c[i, j] = 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    c = np.maximum(c, 0.0)
    d = c / tau
    total = 0.0
    for i in range(n):
        denom = sum(q.weights[jp] * math.exp(-d[i, jp]) for jp in range(m))
        for j in range(m):
            total += p.weights[i] * q.weights[j] * math.exp(-d[i, j]) / denom * c[i, j]
    for j in range(m):
        denom = sum(p.weights[ip] * math.exp(-d[ip, j]) for ip in range(n))
        for i in range(n):
            total += q.weights[j] * p.weights[i] * math.exp(-d[i, j]) / denom * c[i, j]
    return total


class TestCTDistance:
    def test_shared_single_point_is_zero(self):
        p = make_point_set(np.array([[1.0], [1.0]]), [1.0])
        assert ct_distance(p, p).total == pytest.approx(0.0, abs=1e-12)

    def test_worked_2x2_components(self):
        p, q = symmetric_2x2()
        result = ct_distance(p, q)
        assert abs(result.forward_cost - 0.268941) < 1e-6
        assert abs(result.backward_cost - 0.268941) < 1e-6
        assert abs(result.total - 0.537883) < 1e-6

    def test_worked_2x2_against_oracle(self):
        p, q = symmetric_2x2()
        assert ct_distance(p, q).total == pytest.approx(
            nested_loop_ct(p, q, NavigatorParams()), abs=1e-12
        )

    def test_high_tau_reaches_independent_coupling_cost(self):
        # exponents flatten, both plans tend to the outer product, so the
        # worked instance's total tends to 2 * sum(theta_i beta_j c_ij) = 1
        p, q = symmetric_2x2()
        assert abs(ct_distance(p, q, nav_with_tau(1e6)).total - 1.0) < 1e-5

    @given(seeds)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_point_sets(rng, 4, 3, 3)
        assert ct_distance(p, q).total >= 0.0

    @given(seeds)
    def test_matches_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        p, q = random_point_sets(rng, n, m, d)
        nav = NavigatorParams(log_temperature=rng.normal(size=1) * 0.5)
        assert abs(ct_distance(p, q, nav).total - nested_loop_ct(p, q, nav)) <= 1e-12


def kernel_instance(rng: np.random.Generator):
    """Random kernel inputs: a sparse top-k theta (exact zeros, -inf logits),
    a label weight vector with exact zeros, and tau in [e^-2, e^2]."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
    cos = rng.uniform(-0.95, 0.95, size=(n, m))
    logits = top_k_mask(rng.normal(size=n), int(rng.integers(1, n + 1)))
    theta = softmax_stable(logits)
    beta = rng.random(m) * (rng.random(m) < 0.7)
    beta[rng.integers(m)] += 0.5
    return cos, theta, logits, beta / beta.sum(), rng.uniform(-2.0, 2.0)


class TestCTKernel:
    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        sparse_seen = 0
        for _ in range(60):
            cos, theta, logits, beta, log_tau = kernel_instance(rng)
            sparse_seen += bool(np.isneginf(logits).any())
            n, m = cos.shape
            x0 = np.concatenate([cos.ravel(), theta, logits, [log_tau]])

            def split(x):
                return x[: n * m].reshape(n, m), x[n * m : n * m + n], x[n * m + n : -1], x[-1]

            def f(x):
                c, th, lg, lt = split(x)
                k = ct_kernel(c, th, lg, beta, lt)
                return k.forward_cost + k.backward_cost

            g_cos, g_theta, g_logits, g_log_tau = ct_kernel(cos, theta, logits, beta, log_tau).partials(1.0)
            analytic = np.concatenate([g_cos.ravel(), g_theta, g_logits, [g_log_tau]])
            worst = max(worst, grad_check(f, lambda _x: analytic, x0, step=1e-6))
        assert sparse_seen >= 10
        assert worst <= 1e-6


class TestTemperatureLimits:
    @given(seeds)
    def test_high_tau_gives_outer_product(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_point_sets(rng, 5, 4, 3)
        result = ct_distance(p, q, nav_with_tau(1e6))
        outer = np.outer(p.weights, q.weights)
        assert np.abs(result.forward.coupling - outer).max() < 1e-5
        assert np.abs(result.backward.coupling - outer).max() < 1e-5

    @given(seeds)
    def test_low_tau_concentrates_rows_on_nearest_target(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            # resample until every row has a clear nearest target; ties would
            # split the concentrated mass
            p, q = random_point_sets(rng, 4, 5, 3)
            d = cost_matrix(p.support, q.support)
            gaps = np.sort(d, axis=1)
            if (gaps[:, 1] - gaps[:, 0]).min() > 0.05:
                break
        f = forward_plan(p, q, nav_with_tau(1e-3))
        nearest = d.argmin(axis=1)
        winning = f.coupling[np.arange(4), nearest]
        assert (winning / p.weights >= 1.0 - 1e-5).all()


def model_lct(params, sample, start_layer=1) -> float:
    _, lct, _ = model_mod.batch_objective(
        model_mod.parameter_tensors(params), params, [sample], LossConfig(start_layer=start_layer)
    )
    return float(lct.value)


def layer_ct(params, sample, layer) -> float:
    enc = model_mod.encode(params, sample)
    return ct_distance(
        enc.per_layer_patches[layer], enc.per_layer_labels[layer], params.navigator
    ).total


class TestLayerwiseCT:
    """The trainer's layer-wise term is ct_distance summed over the layers
    from start_layer on, evaluated on encode's point sets."""

    @staticmethod
    def instance(depth):
        samples = model_mod.generate_dataset(3, 6, 6, 12, 0.3, seed=depth)
        params = model_mod.init_params(n_labels=3, dim=6, depth=depth, seed=depth + 1)
        params.navigator.log_temperature[...] = -0.7
        return params, samples[0]

    def test_single_layer_equals_ct(self):
        params, sample = self.instance(1)
        assert model_lct(params, sample) == pytest.approx(layer_ct(params, sample, 0), abs=1e-12)

    def test_two_identical_layers_double(self):
        # a zero second block: the second layer repeats the first
        params, sample = self.instance(2)
        params.encoder_layers[1].weight[...] = 0.0
        single = layer_ct(params, sample, 0)
        assert model_lct(params, sample) == pytest.approx(2 * single, abs=1e-12)

    def test_start_at_final_layer(self):
        params, sample = self.instance(2)
        only_last = model_lct(params, sample, start_layer=2)
        assert only_last == pytest.approx(layer_ct(params, sample, 1), abs=1e-12)
        assert model_lct(params, sample) == pytest.approx(
            layer_ct(params, sample, 0) + only_last, abs=1e-12
        )

    def test_start_layer_out_of_range(self):
        params, sample = self.instance(1)
        with pytest.raises(ConfigError):
            model_lct(params, sample, start_layer=2)
        with pytest.raises(ConfigError):
            model_lct(params, sample, start_layer=0)


class TestSinkhorn:
    def test_zero_cost_gives_outer_product(self):
        theta = np.array([0.3, 0.7])
        beta = np.array([0.4, 0.6])
        result = sinkhorn_ot(theta, beta, np.zeros((2, 2)), epsilon=0.1)
        assert result.cost == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(result.plan, np.outer(theta, beta), atol=1e-9)

    def test_permutation_cost_small_epsilon(self):
        result = sinkhorn_ot(
            [0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], epsilon=0.01
        )
        assert result.converged
        assert result.cost <= 0.02
        assert result.plan[0, 0] >= 0.49 and result.plan[1, 1] >= 0.49
        assert result.marginal_violation <= 1e-6

    def test_one_by_one(self):
        result = sinkhorn_ot([1.0], [1.0], [[0.37]], epsilon=0.05)
        assert result.cost == pytest.approx(0.37, abs=1e-12)

    def test_cost_nonincreasing_as_epsilon_shrinks(self):
        rng = np.random.default_rng(5)
        c = rng.random((4, 4))
        theta = random_simplex(rng, 4)
        beta = random_simplex(rng, 4)
        costs = [
            sinkhorn_ot(theta, beta, c, epsilon=eps, max_iter=20000).cost
            for eps in (0.5, 0.1, 0.02)
        ]
        assert costs[0] >= costs[1] - 1e-9
        assert costs[1] >= costs[2] - 1e-9

    @given(seeds)
    def test_violation_within_tol_on_convergence(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        result = sinkhorn_ot(
            random_simplex(rng, n),
            random_simplex(rng, m),
            rng.random((n, m)),
            epsilon=0.1,
            max_iter=5000,
        )
        assert result.converged
        assert result.marginal_violation < 1e-6

    def test_nonconvergence_returns_flag_not_exception(self):
        rng = np.random.default_rng(11)
        result = sinkhorn_ot(
            random_simplex(rng, 6),
            random_simplex(rng, 5),
            rng.random((6, 5)),
            epsilon=0.005,
            max_iter=1,
            tol=1e-12,
        )
        assert not result.converged
        assert result.iterations == 1
        assert np.isfinite(result.cost)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sinkhorn_ot([0.5, 0.5], [1.0], np.zeros((2, 2)))

    def test_negative_cost_rejected(self):
        with pytest.raises(NumericalError):
            sinkhorn_ot([1.0], [1.0], [[-0.1]])

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            sinkhorn_ot([1.0], [1.0], [[0.0]], epsilon=0.0)


class TestExportPlanGrid:
    def test_worked_normalization(self):
        grid = export_plan_grid([0.1, 0.4, 0.4, 0.1], 2)
        assert np.array_equal(grid, [[0.0, 1.0], [1.0, 0.0]])

    def test_constant_column_all_zeros(self):
        assert np.array_equal(export_plan_grid([0.25] * 4, 2), np.zeros((2, 2)))

    def test_non_square_length_rejected(self):
        with pytest.raises(GridError):
            export_plan_grid([0.1, 0.2, 0.7], 2)

    def test_target_below_side_rejected(self):
        with pytest.raises(GridError):
            export_plan_grid([0.1, 0.2, 0.3, 0.4], 1)

    def test_empty_rejected(self):
        with pytest.raises(GridError):
            export_plan_grid([], 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            export_plan_grid([0.1, np.nan, 0.2, 0.3], 2)

    def test_upsample_shape_and_bounds(self):
        grid = export_plan_grid([0.1, 0.4, 0.4, 0.1], 6)
        assert grid.shape == (6, 6)
        assert grid.min() >= 0.0 and grid.max() <= 1.0

    def test_upsample_preserves_input_symmetry(self):
        # the 2x2 checkerboard is symmetric under transpose and 180-degree
        # rotation; a separable resampler must keep both
        grid = export_plan_grid([0.1, 0.4, 0.4, 0.1], 8)
        assert np.allclose(grid, grid.T, atol=1e-12)
        assert np.allclose(grid, grid[::-1, ::-1], atol=1e-12)

    def test_identity_when_target_equals_side(self):
        col = [0.0, 0.5, 0.75, 1.0, 0.25, 0.1, 0.9, 0.3, 0.6]
        grid = export_plan_grid(col, 3)
        expected = (np.array(col).reshape(3, 3))
        assert np.allclose(grid, expected, atol=1e-12)
