"""Bidirectional conditional-transport divergence between weighted point sets.

Both transport plans are closed-form: each source point spreads its weight
over the targets through a softmax of negative navigator distances, so no
inner optimization runs; ``ct_kernel`` is the one implementation, with
closed-form partials for the trainer. A log-domain Sinkhorn solver is
included as an entropic-OT baseline on the same cost matrix, and plan
columns can be exported as bicubically resampled square grids.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .distributions import DiscretePointSet
from .errors import (
    ConfigError,
    EvaluationError,
    GridError,
    NumericalError,
    ShapeError,
)
from .numerics import as_matrix, as_simplex, cosine_similarity_matrix


@dataclass
class NavigatorParams:
    """Parameters of the point-to-point distance used inside the plans.

    The distance is temperature-scaled cosine distance, (1 - cos) / tau,
    with tau = exp(log_temperature) so the learnable scalar is
    unconstrained.
    """

    log_temperature: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        lt = np.atleast_1d(np.asarray(self.log_temperature, dtype=np.float64))
        if lt.size != 1 or not np.isfinite(lt).all():
            raise ConfigError("log_temperature must be a finite scalar")
        self.log_temperature = lt

    @property
    def tau(self) -> float:
        return float(np.exp(self.log_temperature[0]))


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative (n, m) coupling with a direction tag.

    Forward plans have rows summing to the source weights; backward plans
    have columns summing to the target weights.
    """

    coupling: np.ndarray
    direction: str

    def __post_init__(self):
        coupling = as_matrix(self.coupling, "coupling")
        if (coupling < 0).any():
            raise NumericalError("coupling has negative entries")
        if self.direction not in ("forward", "backward"):
            raise ConfigError(f"unknown plan direction {self.direction!r}")
        object.__setattr__(self, "coupling", coupling)


@dataclass(frozen=True)
class CTResult:
    total: float
    forward_cost: float
    backward_cost: float
    forward: TransportPlan
    backward: TransportPlan


def _clamped_cost(cos: np.ndarray) -> np.ndarray:
    return np.maximum(1.0 - cos, 0.0)


def _scaled_distance(cos: np.ndarray, tau: float) -> np.ndarray:
    d = (1.0 - cos) / tau
    if np.isnan(d).any():
        raise EvaluationError("navigator distance produced NaN")
    return d


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def cost_matrix(patch_emb, label_emb) -> np.ndarray:
    """Pairwise cosine distance 1 - cos, clamped into [0, 2]."""
    return _clamped_cost(cosine_similarity_matrix(patch_emb, label_emb))


def navigator_distance(patch_emb, label_emb, params: NavigatorParams | None = None) -> np.ndarray:
    """Temperature-scaled cosine distance between columns, (1 - cos) / tau.

    The distance is symmetric in its arguments by construction.
    """
    params = params or NavigatorParams()
    return _scaled_distance(cosine_similarity_matrix(patch_emb, label_emb), params.tau)


@dataclass(frozen=True)
class CTKernel:
    """Both plans and both expected costs of one closed-form CT evaluation.

    ``partials(g)`` returns g times the partials of forward_cost +
    backward_cost with respect to the cosine matrix, theta, the source
    logits and log tau, in that order.
    """

    forward: np.ndarray
    backward: np.ndarray
    forward_cost: float
    backward_cost: float
    partials: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray, float]]


def ct_kernel(cos, theta, logits, beta, log_tau) -> CTKernel:
    """Closed-form bidirectional transport from one (n, m) cosine matrix.

    Row i of the forward plan is theta_i times a softmax over targets of
    log beta_j - d_ij; column j of the backward plan is beta_j times a
    softmax over sources of logits_i - d_ij, with d = (1 - cos) / tau. The
    logits are the source log-weights up to an additive constant, which the
    column softmax cancels; -inf entries give sources of zero weight. Both
    plans price mass with the clamped cost max(1 - cos, 0); the temperature
    only shapes the plans.
    """
    tau = float(np.exp(log_tau))
    cost = _clamped_cost(cos)
    d = _scaled_distance(cos, tau)
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    rows = _softmax(log_beta[None, :] - d, axis=1)
    cols = _softmax(logits[:, None] - d, axis=0)
    forward = theta[:, None] * rows
    backward = cols * beta[None, :]

    def partials(g: float):
        # softmax Jacobian: the partial of sum_k rows_ik cost_ik in the
        # logit z_ij is rows_ij (cost_ij - row_mean_i); likewise per column
        row_mean = (rows * cost).sum(axis=1, keepdims=True)
        col_mean = (cols * cost).sum(axis=0, keepdims=True)
        gz_forward = forward * (cost - row_mean)
        gz_backward = backward * (cost - col_mean)
        gz = gz_forward + gz_backward  # equals -dL/dd
        g_cos = gz / tau - (forward + backward) * (cos < 1.0)
        g_log_tau = float((gz * d).sum())
        return (
            g * g_cos,
            g * row_mean.ravel(),
            g * gz_backward.sum(axis=1),
            g * g_log_tau,
        )

    return CTKernel(
        forward,
        backward,
        float((forward * cost).sum()),
        float((backward * cost).sum()),
        partials,
    )


def _kernel(p: DiscretePointSet, q: DiscretePointSet, params: NavigatorParams | None) -> CTKernel:
    if p.dim != q.dim:
        raise ShapeError(f"point sets live in different dimensions: {p.dim} vs {q.dim}")
    params = params or NavigatorParams()
    with np.errstate(divide="ignore"):
        log_theta = np.log(p.weights)
    return ct_kernel(
        cosine_similarity_matrix(p.support, q.support),
        p.weights,
        log_theta,
        q.weights,
        params.log_temperature[0],
    )


def forward_plan(p: DiscretePointSet, q: DiscretePointSet, params: NavigatorParams | None = None) -> TransportPlan:
    """Source-conditioned plan: row i is theta_i times a softmax over targets
    of log beta_j - d_ij. Rows sum to the source weights exactly."""
    return TransportPlan(_kernel(p, q, params).forward, "forward")


def backward_plan(p: DiscretePointSet, q: DiscretePointSet, params: NavigatorParams | None = None) -> TransportPlan:
    """Target-conditioned plan: column j is beta_j times a softmax over source
    points of log theta_i - d_ij. Columns sum to the target weights exactly."""
    return TransportPlan(_kernel(p, q, params).backward, "backward")


def ct_distance(p: DiscretePointSet, q: DiscretePointSet, params: NavigatorParams | None = None) -> CTResult:
    """Bidirectional conditional-transport divergence.

    Both plans price mass movement with the raw cosine-distance cost matrix;
    the navigator temperature only shapes the plans themselves.
    """
    k = _kernel(p, q, params)
    return CTResult(
        k.forward_cost + k.backward_cost,
        k.forward_cost,
        k.backward_cost,
        TransportPlan(k.forward, "forward"),
        TransportPlan(k.backward, "backward"),
    )


@dataclass(frozen=True)
class SinkhornResult:
    cost: float
    plan: np.ndarray
    converged: bool
    iterations: int
    marginal_violation: float


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def sinkhorn_ot(
    theta,
    beta,
    cost,
    epsilon: float = 0.05,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> SinkhornResult:
    """Entropic OT between fixed marginals, iterated in the log domain.

    Stops when the summed L1 violation of both marginals drops below tol.
    On non-convergence the best iterate is returned with converged=False
    rather than raising.
    """
    theta = as_simplex(theta, "theta")
    beta = as_simplex(beta, "beta")
    c = as_matrix(cost, "cost")
    if c.shape != (theta.size, beta.size):
        raise ShapeError(f"cost shape {c.shape} does not match marginals")
    if (c < 0).any():
        raise NumericalError("cost matrix has negative entries")
    if epsilon <= 0 or tol <= 0 or max_iter < 1:
        raise ConfigError("epsilon, tol must be positive and max_iter >= 1")

    log_k = -c / epsilon
    with np.errstate(divide="ignore"):
        log_theta = np.log(theta)
        log_beta = np.log(beta)
    log_v = np.zeros(beta.size)
    best_plan = None
    best_viol = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        log_u = log_theta - _logsumexp(log_k + log_v[None, :], axis=1)
        log_v = log_beta - _logsumexp(log_k + log_u[:, None], axis=0)
        plan = np.exp(log_u[:, None] + log_k + log_v[None, :])
        viol = float(
            np.abs(plan.sum(axis=1) - theta).sum() + np.abs(plan.sum(axis=0) - beta).sum()
        )
        if viol < best_viol:
            best_viol = viol
            best_plan = plan
        if viol < tol:
            converged = True
            break
    cost_value = float((best_plan * c).sum())
    return SinkhornResult(cost_value, best_plan, converged, iterations, best_viol)


def _catmull_rom(s: float) -> float:
    # Keys cubic kernel with a = -0.5
    s = abs(s)
    if s < 1.0:
        return 1.0 + s * s * (1.5 * s - 2.5)
    if s < 2.0:
        return 2.0 - s * (4.0 - s * (2.5 - 0.5 * s))
    return 0.0


def _resample_matrix(src: int, dst: int) -> np.ndarray:
    """Row operator for separable bicubic resampling with edge clamping."""
    w = np.zeros((dst, src))
    scale = src / dst
    for i in range(dst):
        x = (i + 0.5) * scale - 0.5
        base = math.floor(x)
        frac = x - base
        for j in range(-1, 3):
            idx = min(max(base + j, 0), src - 1)
            w[i, idx] += _catmull_rom(frac - j)
    return w


def export_plan_grid(plan_column, target_size: int) -> np.ndarray:
    """Turn one plan column into a square heat grid.

    Min-max normalizes the column to [0, 1] (an all-constant column becomes
    zeros), reshapes it row-major to sqrt(N) x sqrt(N), then bicubically
    resamples to target_size x target_size with edge clamping. The output is
    clamped back into [0, 1] since the cubic kernel can overshoot.
    """
    col = np.asarray(plan_column, dtype=np.float64).ravel()
    if col.size == 0:
        raise GridError("plan column is empty")
    if not np.isfinite(col).all():
        raise NumericalError("plan column contains NaN or Inf")
    side = math.isqrt(col.size)
    if side * side != col.size:
        raise GridError(f"column length {col.size} is not a perfect square")
    if target_size < side:
        raise GridError(f"target size {target_size} is below the grid side {side}")
    span = col.max() - col.min()
    norm = np.zeros_like(col) if span == 0.0 else (col - col.min()) / span
    grid = norm.reshape(side, side)
    if target_size == side:
        return grid.copy()
    w = _resample_matrix(side, target_size)
    return np.clip(w @ grid @ w.T, 0.0, 1.0)
