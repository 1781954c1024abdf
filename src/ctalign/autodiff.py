"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Covers exactly the operations the training graph needs: broadcast-aware
elementwise arithmetic, 2-D matmul, exp/sqrt, sigmoid/gelu and sum
reductions. A composite with closed-form partials becomes one node by
constructing ``Tensor(value, parents, vjp)`` directly. Values are plain
ndarrays; after ``backward(root)`` each reachable tensor holds its
accumulated gradient in ``.grad``.
"""

from __future__ import annotations

import numpy as np

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("value", "grad", "parents", "vjp")

    # make ndarray <op> Tensor defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_const(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_const(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)


def _const(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = _const(a), _const(b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor(a.value + b.value, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _const(a), _const(b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Tensor(a.value - b.value, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _const(a), _const(b)

    def vjp(g):
        return (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        )

    return Tensor(a.value * b.value, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _const(a), _const(b)

    def vjp(g):
        return (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        )

    return Tensor(a.value / b.value, (a, b), vjp)


def neg(a) -> Tensor:
    a = _const(a)
    return Tensor(-a.value, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = _const(a), _const(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-D operands")

    def vjp(g):
        return g @ b.value.T, a.value.T @ g

    return Tensor(a.value @ b.value, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _const(a)
    return Tensor(a.value.T, (a,), lambda g: (g.T,))


def exp(a) -> Tensor:
    a = _const(a)
    out = np.exp(a.value)
    return Tensor(out, (a,), lambda g: (g * out,))


def sqrt(a) -> Tensor:
    a = _const(a)
    out = np.sqrt(a.value)
    return Tensor(out, (a,), lambda g: (g * (0.5 / out),))


def sigmoid(a) -> Tensor:
    a = _const(a)
    v = a.value
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


def gelu(a) -> Tensor:
    """Tanh-form gelu with a closed-form local derivative."""
    a = _const(a)
    v = a.value
    u = _GELU_C * (v + _GELU_A * v**3)
    t = np.tanh(u)
    out = 0.5 * v * (1.0 + t)

    def vjp(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * v * v)
        local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du
        return (g * local,)

    return Tensor(out, (a,), vjp)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _const(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.value.shape),)

    return Tensor(out, (a,), vjp)


def backward(root: Tensor) -> None:
    """Accumulate gradients of ``root`` (scalar or array, seeded with ones)
    into every tensor reachable through its parents.

    Grads of reachable tensors are reset first, so calling backward on two
    roots of a shared graph yields each root's own gradients, not a mix.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
