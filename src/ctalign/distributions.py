"""Weighted point sets over embeddings, plus the label-guided weight builders.

A point set pairs a (d, n) support matrix (one column per point) with a
simplex weight vector. Patch-side weights come from a sparse top-k softmax
over label-guided similarity scores; label-side weights come straight from
the ground-truth multi-hot vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyLabelSetError, ShapeError
from .numerics import as_matrix, as_simplex, softmax_stable, top_k_mask

TOPK_MODES = ("sparse", "binary")
BETA_MODES = ("masked", "literal")


@dataclass(frozen=True)
class DiscretePointSet:
    """Discrete distribution: one support column per point, simplex weights."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = as_matrix(self.support, "support")
        weights = as_simplex(self.weights, "weights")
        if weights.size != support.shape[1]:
            raise ShapeError(
                f"{support.shape[1]} support columns but {weights.size} weights"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.support.shape[0]

    @property
    def size(self) -> int:
        return self.support.shape[1]


def make_point_set(support, weights) -> DiscretePointSet:
    """Validated constructor for DiscretePointSet."""
    return DiscretePointSet(support, weights)


def as_label_vector(y) -> np.ndarray:
    """Coerce a multi-hot label vector to int64, enforcing {0, 1} entries."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ShapeError(f"label vector must be 1-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise ShapeError("label vector must be nonempty")
    out = arr.astype(np.int64, copy=True)
    # elementwise compares: np.isin costs more than the rest of this check
    if not np.array_equal(out, arr) or not ((out == 0) | (out == 1)).all():
        raise ShapeError("label vector entries must be 0 or 1")
    return out


def normalized_labels(y) -> np.ndarray:
    """y / sum(y). Raises EmptyLabelSetError on an all-zero vector."""
    yv = as_label_vector(y)
    total = yv.sum()
    if total == 0:
        raise EmptyLabelSetError("label vector has no positive entries")
    return yv / total


def default_top_k(n_points: int) -> int:
    """Default patch budget of 200, clamped to the available point count."""
    return min(200, n_points)


def theta_with_partial(patch_emb, label_emb, yhat, k: int, topk_mode: str = "sparse"):
    """Label-guided patch weights theta and the source logits they come from.

    Each (d, n) patch column is scored against the label-aware query
    o = label_emb @ yhat, and the k largest scores are kept. "sparse" takes
    theta as the softmax of those scores (exact zeros off the top k); "binary"
    takes it as the softmax of a 1/0 top-k indicator, a dense two-level
    vector. The logits are the kept scores verbatim with -inf elsewhere
    ("sparse"), or log theta ("binary"). Also returns a closure mapping
    (g_theta, g_logits) to the partials in patch_emb and label_emb; the top-k
    choice is piecewise constant, so the partials are zero off the top k and
    exactly zero everywhere in "binary".
    """
    query = label_emb @ yhat
    logits = top_k_mask(patch_emb.T @ query, k)
    if topk_mode == "sparse":
        theta = softmax_stable(logits)

        def partial(g_theta, g_logits):
            g_score = g_logits + theta * (g_theta - theta @ g_theta)
            return np.outer(query, g_score), np.outer(patch_emb @ g_score, yhat)

        return logits, theta, partial
    if topk_mode == "binary":
        theta = softmax_stable(np.where(np.isneginf(logits), 0.0, 1.0))
        zeros = np.zeros_like(patch_emb), np.zeros_like(label_emb)
        return np.log(theta), theta, lambda g_theta, g_logits: zeros
    raise ConfigError(f"unknown topk_mode {topk_mode!r}, expected one of {TOPK_MODES}")


def build_theta(patch_emb, label_emb, y, k: int, topk_mode: str = "sparse") -> np.ndarray:
    """Label-guided patch weights: theta_with_partial's theta after checking
    the shapes and normalizing the labels."""
    E = as_matrix(patch_emb, "patch embeddings")
    L = as_matrix(label_emb, "label embeddings")
    if E.shape[0] != L.shape[0]:
        raise ShapeError(
            f"embedding dimension mismatch: {E.shape[0]} vs {L.shape[0]}"
        )
    yhat = normalized_labels(y)
    if yhat.size != L.shape[1]:
        raise ShapeError(f"{L.shape[1]} label columns but {yhat.size} labels")
    return theta_with_partial(E, L, yhat, k, topk_mode)[1]


def build_beta(y, mode: str = "masked") -> np.ndarray:
    """Label weights from a multi-hot vector.

    "masked" gives uniform mass over the positive labels and exact zeros on
    negatives; "literal" is a plain softmax of the 0/1 entries, so negatives
    keep nonzero mass.
    """
    yv = as_label_vector(y)
    if yv.sum() == 0:
        raise EmptyLabelSetError("label vector has no positive entries")
    if mode == "masked":
        return yv / yv.sum()
    if mode == "literal":
        return softmax_stable(yv.astype(np.float64))
    raise ConfigError(f"unknown beta mode {mode!r}, expected one of {BETA_MODES}")
