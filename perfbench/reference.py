"""Reference computations the benchmark checks the package against.

Nothing here imports ctalign: each function restates the documented math in
plain NumPy (and SciPy for the transport oracle) by a different route than
the package takes, so an agreement is evidence and not a tautology.
"""

from __future__ import annotations

import json
import math

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


def gelu(v: np.ndarray) -> np.ndarray:
    return 0.5 * v * (1.0 + np.tanh(GELU_C * (v + GELU_A * v**3)))


def sigmoid(v: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def unit_columns(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def orthonormal_frame(t: np.ndarray) -> np.ndarray:
    """Unit columns spanning the same nested subspaces as modified
    Gram-Schmidt: the Q of a QR factorisation with R's diagonal made positive.
    With more columns than dimensions there is no such frame, and the columns
    are only normalised."""
    d, m = t.shape
    if m > d:
        return unit_columns(t)
    q, r = np.linalg.qr(t)
    return q * np.sign(np.diag(r))[None, :]


def forward_probabilities(params: dict[str, np.ndarray], patches: np.ndarray) -> np.ndarray:
    """Class probabilities of the residual toy model for one (dim, n) bag.

    ``params`` maps the checkpoint's parameter names to arrays.
    """
    table = params["label.table"]
    dim = table.shape[0]
    depth = sum(1 for name in params if name.startswith("encoder.") and name.endswith(".weight"))
    radius = math.sqrt(dim)
    x = np.asarray(patches, dtype=np.float64)
    for i in range(depth):
        w, b = params[f"encoder.{i}.weight"], params[f"encoder.{i}.bias"]
        x = radius * unit_columns(x + gelu(w @ x + b))
    t = table
    for i in range(depth):
        w, b = params[f"label.{i}.weight"], params[f"label.{i}.bias"]
        t = radius * orthonormal_frame(t + gelu(w @ t + b))
    pooled = x.mean(axis=1, keepdims=True)
    hidden = gelu(params["head.w1"] @ pooled + params["head.b1"])
    feature = pooled + params["head.w2"] @ hidden + params["head.b2"]
    return sigmoid(t.T @ feature).ravel()


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parameter arrays from a checkpoint file, parsed without the package."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {
        name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }


def read_dataset(path) -> tuple[dict, list[np.ndarray], np.ndarray]:
    """(meta, patch bags, label matrix) from a dataset file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    meta = payload["meta"]
    shape = (int(meta["feature_dim"]), int(meta["n_patches"]))
    bags = [np.asarray(s["patches"], dtype=np.float64).reshape(shape) for s in payload["samples"]]
    labels = np.asarray([s["y"] for s in payload["samples"]], dtype=np.int64)
    return meta, bags, labels


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """All-points AP from pairwise ranks: an item's rank counts every item
    scored higher, plus equal-scored items at a lower index."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    idx = np.arange(s.size)
    ahead = (s[None, :] > s[:, None]) | ((s[None, :] == s[:, None]) & (idx[None, :] < idx[:, None]))
    rank = ahead.sum(axis=1) + 1
    pos_rank = rank[y]
    hits_at = (pos_rank[None, :] <= pos_rank[:, None]).sum(axis=1)
    return float(np.mean(hits_at / pos_rank))


def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean AP over the classes (columns) with at least one positive."""
    aps = [
        average_precision(scores[:, c], labels[:, c])
        for c in range(labels.shape[1])
        if labels[:, c].any()
    ]
    return float(np.mean(aps))


def ct_oracle(support_p, weights_p, support_q, weights_q, tau: float):
    """(total, forward_cost, backward_cost, cost matrix, forward plan,
    backward plan) of the conditional-transport divergence.

    The cost is the clamped cosine distance between independently normalised
    columns; the forward plan spreads each source weight over the targets by
    a softmax of log target weight minus cost/tau, the backward plan the
    other way round.
    """
    from scipy.special import softmax

    cos = unit_columns(support_p).T @ unit_columns(support_q)
    nav = (1.0 - cos) / tau
    cost = np.maximum(1.0 - cos, 0.0)
    with np.errstate(divide="ignore"):
        log_p = np.log(weights_p)
        log_q = np.log(weights_q)
    fwd = weights_p[:, None] * softmax(log_q[None, :] - nav, axis=1)
    bwd = softmax(log_p[:, None] - nav, axis=0) * weights_q[None, :]
    fc = float((fwd * cost).sum())
    bc = float((bwd * cost).sum())
    return fc + bc, fc, bc, cost, fwd, bwd


def nearest_rank(values, q: float) -> float:
    """The q-th percentile by nearest rank: the smallest value with at least
    q percent of the values at or below it. For 1000 values the 99th is the
    990th smallest, so exactly ten values lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    k = max(1, math.ceil(q * len(ordered) / 100.0))
    return float(ordered[k - 1])
