"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The generic ops are the few the model builds on the tape: broadcast-aware
add, sub and mul, 2-D matmul and transpose (the Gram-Schmidt loop, the
label-guided patch scores, sums of loss terms). Every other formula is one
node with closed-form partials, built by constructing
``Tensor(value, parents, vjp)`` directly. Values are plain ndarrays; after
``backward(root)`` each reachable tensor holds its accumulated gradient in
``.grad``.
"""

from __future__ import annotations

import numpy as np


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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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
