"""Reverse-mode tape checked against central differences, op by op.

An array root is seeded with ones, so backward(root) differentiates the sum
of its entries.
"""

import numpy as np
import pytest

from ctalign import autodiff as ad
from ctalign.numerics import grad_check


def check_graph(build, x0, shape, tol=1e-6):
    """Gradient-check the entry sum of build(Tensor of given shape)."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()

    def f(vec):
        return float(build(ad.Tensor(vec.reshape(shape))).value.sum())

    def g(vec):
        t = ad.Tensor(vec.reshape(shape))
        ad.backward(build(t))
        return t.grad.ravel()

    assert grad_check(f, g, x0) <= tol


RNG = np.random.default_rng(20240819)


class TestShapesAndBroadcasting:
    def test_matmul(self):
        a0 = RNG.normal(size=6)
        b = ad.Tensor(RNG.normal(size=(3, 2)))
        check_graph(lambda t: (t @ b) * (t @ b), a0, (2, 3))

    def test_transpose(self):
        check_graph(lambda t: ad.transpose(t) @ t, RNG.normal(size=6), (2, 3))

    def test_bias_broadcast_gradient_shape(self):
        # (3,1) bias added to a (3,4) matrix must come back as a (3,1) gradient
        w = ad.Tensor(RNG.normal(size=(3, 4)))
        b = ad.Tensor(RNG.normal(size=(3, 1)))
        ad.backward((w + b) * (w + b))
        assert b.grad.shape == (3, 1)
        assert np.allclose(b.grad, (2 * (w.value + b.value)).sum(axis=1, keepdims=True))

    def test_row_broadcast(self):
        r0 = RNG.normal(size=4)
        m = ad.Tensor(RNG.normal(size=(3, 4)))
        check_graph(lambda t: m * t, r0, (1, 4))

    def test_scalar_broadcast(self):
        m = ad.Tensor(RNG.normal(size=(2, 2)))
        check_graph(lambda t: m * t + t, np.array([0.7]), (1,))


class TestGraphMechanics:
    def test_diamond_accumulates(self):
        x = ad.Tensor(np.array([3.0]))
        y = x * x + x  # x feeds two paths
        ad.backward(y)
        assert np.allclose(x.grad, [7.0])

    def test_backward_resets_previous_grads(self):
        # two roots over one shared graph: second backward must not mix in
        # gradients left over from the first
        a = ad.Tensor(np.array([2.0]))
        b = ad.Tensor(np.array([5.0]))
        prod = a * b
        total = a + b
        ad.backward(prod)
        assert np.allclose(a.grad, [5.0]) and np.allclose(b.grad, [2.0])
        ad.backward(total)
        assert np.allclose(a.grad, [1.0]) and np.allclose(b.grad, [1.0])

    def test_deep_chain_no_recursion_limit(self):
        x = ad.Tensor(np.array([1.0]))
        node = x
        for _ in range(5000):
            node = node + 1.0
        ad.backward(node)
        assert np.allclose(x.grad, [1.0])

    def test_seed_gradient_of_root_is_one(self):
        x = ad.Tensor(np.array([4.0]))
        root = x * 2.0
        ad.backward(root)
        assert np.allclose(root.grad, 1.0)

    def test_constants_get_no_tracking(self):
        x = ad.Tensor(np.array([1.0]))
        y = x + np.array([2.0])
        ad.backward(y)
        assert np.allclose(x.grad, [1.0])

    def test_ndarray_left_operand_returns_tensor(self):
        # __array_ufunc__ = None forces numpy to defer to the reflected ops
        x = ad.Tensor(np.array([2.0]))
        y = np.array([3.0]) * x
        assert isinstance(y, ad.Tensor)
        ad.backward(y)
        assert np.allclose(x.grad, [3.0])

    def test_composite_expression(self):
        # the Gram-Schmidt step's pattern: a projection subtracted, rescaled
        x0 = RNG.normal(size=6)
        u = ad.Tensor(RNG.normal(size=(3, 1)))

        def build(t):
            v = t - u @ (u.T @ t)
            return (v * v) @ (ad.transpose(t) * 0.5) - 2.0 * v @ t.T

        check_graph(build, x0, (3, 2))
