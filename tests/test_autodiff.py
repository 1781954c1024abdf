"""Reverse-mode tape checked against central differences, op by op."""

import numpy as np
import pytest

from ctalign import autodiff as ad
from ctalign.numerics import grad_check


def check_graph(build, x0, shape, tol=1e-6):
    """Gradient-check a scalar graph: build(Tensor of given shape) -> Tensor."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()

    def f(vec):
        return float(build(ad.Tensor(vec.reshape(shape))).value)

    def g(vec):
        t = ad.Tensor(vec.reshape(shape))
        ad.backward(build(t))
        return t.grad.ravel()

    assert grad_check(f, g, x0) <= tol


RNG = np.random.default_rng(20240819)


class TestElementwiseOps:
    def test_exp(self):
        check_graph(lambda t: ad.tsum(ad.exp(t)), RNG.normal(size=6), (2, 3))

    def test_sqrt(self):
        x0 = RNG.random(6) + 0.5
        check_graph(lambda t: ad.tsum(ad.sqrt(t)), x0, (2, 3))

    def test_sigmoid(self):
        check_graph(lambda t: ad.tsum(ad.sigmoid(t)), RNG.normal(size=6), (2, 3))

    def test_gelu(self):
        check_graph(lambda t: ad.tsum(ad.gelu(t)), RNG.normal(size=6), (2, 3))

    def test_neg_and_sub(self):
        check_graph(lambda t: ad.tsum(-(t - 2.0)), RNG.normal(size=4), (4,))

    def test_div(self):
        x0 = RNG.random(4) + 1.0
        check_graph(lambda t: ad.tsum(1.0 / t + t / 3.0), x0, (4,))



class TestShapesAndBroadcasting:
    def test_matmul(self):
        a0 = RNG.normal(size=6)
        b = ad.Tensor(RNG.normal(size=(3, 2)))
        check_graph(lambda t: ad.tsum((t @ b) * (t @ b)), a0, (2, 3))

    def test_transpose(self):
        check_graph(lambda t: ad.tsum(ad.transpose(t) @ t), RNG.normal(size=6), (2, 3))

    def test_bias_broadcast_gradient_shape(self):
        # (3,1) bias added to a (3,4) matrix must come back as a (3,1) gradient
        w = ad.Tensor(RNG.normal(size=(3, 4)))
        b = ad.Tensor(RNG.normal(size=(3, 1)))
        ad.backward(ad.tsum((w + b) * (w + b)))
        assert b.grad.shape == (3, 1)
        assert np.allclose(b.grad, (2 * (w.value + b.value)).sum(axis=1, keepdims=True))

    def test_row_broadcast(self):
        r0 = RNG.normal(size=4)
        m = ad.Tensor(RNG.normal(size=(3, 4)))
        check_graph(lambda t: ad.tsum(m * t), r0, (1, 4))

    def test_scalar_broadcast(self):
        m = ad.Tensor(RNG.normal(size=(2, 2)))
        check_graph(lambda t: ad.tsum(m * t + t), np.array([0.7]), (1,))

    def test_tsum_axis_matches_numpy(self):
        v = RNG.normal(size=(3, 4))
        t = ad.Tensor(v)
        assert np.array_equal(ad.tsum(t, axis=0, keepdims=True).value, v.sum(axis=0, keepdims=True))
        assert np.array_equal(ad.tsum(t, axis=1).value, v.sum(axis=1))
        assert float(ad.tsum(t).value) == pytest.approx(v.sum())

    def test_tsum_keepdims_gradient(self):
        x0 = RNG.normal(size=8)
        check_graph(
            lambda t: ad.tsum(t / ad.tsum(t * t, axis=0, keepdims=True)), x0, (2, 4)
        )


class TestGraphMechanics:
    def test_diamond_accumulates(self):
        x = ad.Tensor(np.array([3.0]))
        y = x * x + x  # x feeds two paths
        ad.backward(ad.tsum(y))
        assert np.allclose(x.grad, [7.0])

    def test_backward_resets_previous_grads(self):
        # two roots over one shared graph: second backward must not mix in
        # gradients left over from the first
        a = ad.Tensor(np.array([2.0]))
        b = ad.Tensor(np.array([5.0]))
        prod = ad.tsum(a * b)
        total = ad.tsum(a + b)
        ad.backward(prod)
        assert np.allclose(a.grad, [5.0]) and np.allclose(b.grad, [2.0])
        ad.backward(total)
        assert np.allclose(a.grad, [1.0]) and np.allclose(b.grad, [1.0])

    def test_deep_chain_no_recursion_limit(self):
        x = ad.Tensor(np.array([1.0]))
        node = x
        for _ in range(5000):
            node = node + 1.0
        ad.backward(ad.tsum(node))
        assert np.allclose(x.grad, [1.0])

    def test_seed_gradient_of_root_is_one(self):
        x = ad.Tensor(np.array([4.0]))
        root = ad.tsum(x * 2.0)
        ad.backward(root)
        assert np.allclose(root.grad, 1.0)

    def test_constants_get_no_tracking(self):
        x = ad.Tensor(np.array([1.0]))
        y = x + np.array([2.0])
        ad.backward(ad.tsum(y))
        assert np.allclose(x.grad, [1.0])

    def test_ndarray_left_operand_returns_tensor(self):
        # __array_ufunc__ = None forces numpy to defer to the reflected ops
        x = ad.Tensor(np.array([2.0]))
        y = np.array([3.0]) * x
        assert isinstance(y, ad.Tensor)
        ad.backward(ad.tsum(y))
        assert np.allclose(x.grad, [3.0])

    def test_composite_expression(self):
        x0 = RNG.normal(size=5) * 0.5
        check_graph(
            lambda t: ad.tsum(ad.sigmoid(t) * ad.gelu(t) + ad.exp(t * 0.3)), x0, (5,)
        )
