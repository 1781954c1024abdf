"""Multi-label evaluation: all-points average precision plus the pooled and
per-class precision/recall/F1 family under threshold or top-k decision rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import as_label_vector
from .errors import ConfigError, ShapeError, UndefinedMetricError
from .numerics import as_matrix, as_vector


@dataclass(frozen=True)
class MetricsReport:
    regime: str
    mean_ap: float
    class_precision: float
    class_recall: float
    class_f1: float
    overall_precision: float
    overall_recall: float
    overall_f1: float

    def as_row(self) -> dict[str, float | str]:
        return {
            "regime": self.regime,
            "mAP": self.mean_ap,
            "CP": self.class_precision,
            "CR": self.class_recall,
            "CF1": self.class_f1,
            "OP": self.overall_precision,
            "OR": self.overall_recall,
            "OF1": self.overall_f1,
        }


def average_precision(scores, labels) -> float:
    """All-points average precision of one ranking.

    Ties in the scores are broken toward the lower original index. Raises
    UndefinedMetricError when there is no positive label.
    """
    s = as_vector(scores, "scores")
    y = as_label_vector(labels)
    if s.size != y.size:
        raise ShapeError(f"{s.size} scores but {y.size} labels")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    order = np.argsort(-s, kind="stable")
    rel = y[order]
    precision_at = np.cumsum(rel) / np.arange(1, s.size + 1)
    return float((precision_at * rel).sum() / n_pos)


def _check_pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = as_matrix(scores, "scores")
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise ShapeError(f"scores {s.shape} and labels {y.shape} differ in shape")
    return s, y


def map_score(scores, labels) -> float:
    """Mean AP over the classes that have at least one positive sample.

    scores and labels are (n_samples, n_classes). Raises UndefinedMetricError
    when no class has a positive.
    """
    s, y = _check_pair(scores, labels)
    aps = [
        average_precision(s[:, c], y[:, c])
        for c in range(s.shape[1])
        if y[:, c].sum() > 0
    ]
    if not aps:
        raise UndefinedMetricError("no class has a positive sample")
    return float(np.mean(aps))


def top_k_predictions(scores, k: int) -> np.ndarray:
    """Per-sample 0/1 matrix marking the k highest-scored classes.

    Ties resolve toward the lower class index.
    """
    s = as_matrix(scores, "scores")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    preds = np.zeros(s.shape, dtype=np.int64)
    kk = min(k, s.shape[1])
    for i in range(s.shape[0]):
        keep = np.argsort(-s[i], kind="stable")[:kk]
        preds[i, keep] = 1
    return preds


def prf_suite(scores, labels, top_k: int | None = None, threshold: float = 0.5) -> MetricsReport:
    """Per-class and pooled precision/recall/F1 plus mAP.

    Decisions come from ``score > threshold`` by default, or from the top-k
    classes per sample when ``top_k`` is given. Per-class averages run over
    classes with at least one positive (matching the mAP convention); a class
    with no predicted positives contributes precision 0. Pooled counts use
    every decision.
    """
    s, y = _check_pair(scores, labels)
    if top_k is None:
        preds = (s > threshold).astype(np.int64)
        regime = "all"
    else:
        preds = top_k_predictions(s, top_k)
        regime = f"top{top_k}"

    tp = ((preds == 1) & (y == 1)).sum(axis=0).astype(np.float64)
    n_pred = preds.sum(axis=0).astype(np.float64)
    n_pos = y.sum(axis=0).astype(np.float64)

    scored = n_pos > 0
    if not scored.any():
        raise UndefinedMetricError("no class has a positive sample")
    class_prec = np.where(n_pred[scored] > 0, tp[scored] / np.maximum(n_pred[scored], 1), 0.0)
    class_rec = tp[scored] / n_pos[scored]
    cp = float(class_prec.mean())
    cr = float(class_rec.mean())

    tp_all = float(tp.sum())
    pred_all = float(n_pred.sum())
    pos_all = float(n_pos.sum())
    op = tp_all / pred_all if pred_all > 0 else 0.0
    orec = tp_all / pos_all

    def f1(p: float, r: float) -> float:
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    return MetricsReport(
        regime=regime,
        mean_ap=map_score(s, y),
        class_precision=cp,
        class_recall=cr,
        class_f1=f1(cp, cr),
        overall_precision=op,
        overall_recall=orec,
        overall_f1=f1(op, orec),
    )
