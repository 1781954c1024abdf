"""Shared float64 primitives: stable softmax, top-k masking, cosine
similarity and its partials, simplex validation, and a central-difference
gradient checker.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import (
    AllMaskedError,
    ConfigError,
    DegenerateVectorError,
    EvaluationError,
    NumericalError,
    ShapeError,
    SimplexError,
)

NEG_INF = float("-inf")
SIMPLEX_ATOL = 1e-9


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name} contains NaN or Inf entries")
    return arr


def as_vector(values, name: str = "vector") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got {arr.ndim}-D")
    return arr


def as_simplex(weights, name: str = "weights") -> np.ndarray:
    """Validate a nonnegative float64 vector that sums to one."""
    arr = as_vector(weights, name)
    if arr.size == 0:
        raise ShapeError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name} contains NaN or Inf entries")
    if (arr < 0).any():
        raise SimplexError(f"{name} has negative entries")
    total = arr.sum()
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise SimplexError(f"{name} sums to {total!r}, expected 1")
    return arr


def softmax_stable(scores) -> np.ndarray:
    """Max-shifted softmax over a 1-D score vector.

    Entries may be -inf sentinels; they come out as exact zeros. Raises
    AllMaskedError when no unmasked entry remains.
    """
    s = as_vector(scores, "scores")
    if s.size == 0 or np.isneginf(s).all():
        raise AllMaskedError("softmax has no unmasked entries")
    if np.isnan(s).any() or np.isposinf(s).any():
        raise NumericalError("scores must be finite or -inf")
    e = np.exp(s - s.max())
    return e / e.sum()


def top_k_mask(scores, k: int) -> np.ndarray:
    """Keep the k largest scores verbatim, set the rest to -inf.

    Ties at the k-th rank go to the lower original index. k >= len(scores)
    returns a copy of the input unchanged.
    """
    s = as_vector(scores, "scores")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not np.isfinite(s).all():
        raise NumericalError("scores must be finite")
    if k >= s.size:
        return s.copy()
    order = np.argsort(-s, kind="stable")
    out = np.full(s.shape, NEG_INF)
    keep = order[:k]
    out[keep] = s[keep]
    return out


def cosine_similarity_matrix(a, b) -> np.ndarray:
    """Pairwise cosine similarity between the columns of a and b.

    a is (d, n), b is (d, m); the result is (n, m). A zero-norm column on
    either side raises DegenerateVectorError.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"column dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = np.sqrt((a * a).sum(axis=0))
    nb = np.sqrt((b * b).sum(axis=0))
    if (na == 0.0).any() or (nb == 0.0).any():
        raise DegenerateVectorError("zero-norm column in cosine similarity")
    return (a.T @ b) / np.outer(na, nb)


def cosine_similarity_partials(a, b, cos, g) -> tuple[np.ndarray, np.ndarray]:
    """Partials of sum(g * cos) with respect to a and b, where cos is
    cosine_similarity_matrix(a, b) and g has its (n, m) shape."""
    na = np.sqrt((a * a).sum(axis=0))
    nb = np.sqrt((b * b).sum(axis=0))
    gc = g * cos
    ga = ((b / nb) @ g.T) / na - a * (gc.sum(axis=1) / (na * na))
    gb = ((a / na) @ g) / nb - b * (gc.sum(axis=0) / (nb * nb))
    return ga, gb


def grad_check(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    point,
    step: float = 1e-5,
) -> float:
    """Compare an analytic gradient against central differences.

    Returns max over coordinates of |g_analytic - g_central| / max(1, |g_central|).
    Raises EvaluationError when f is non-finite at any probe point.
    """
    x = np.asarray(point, dtype=np.float64).copy()
    g = np.asarray(grad(x.copy()), dtype=np.float64)
    if g.shape != x.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match point shape {x.shape}")
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += step
        xm = x.copy()
        xm.flat[i] -= step
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"f is non-finite near coordinate {i}")
        central = (fp - fm) / (2.0 * step)
        err = abs(g.flat[i] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst
