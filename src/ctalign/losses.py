"""Asymmetric multi-label classification loss and the gradients of the
training objective, alpha * layer-wise transport divergence + that loss,
which model.batch_objective builds. LossConfig carries every setting of that
objective, the patch and label weighting included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .distributions import BETA_MODES, TOPK_MODES, as_label_vector
from .errors import ConfigError, NumericalError, ShapeError

PROB_CLAMP = 1e-7


@dataclass
class LossConfig:
    """Settings of the training objective.

    gamma_plus/gamma_minus focus the positive/negative log terms; alpha
    scales the transport term; start_layer is 1-indexed. top_k is the patch
    budget (None: distributions.default_top_k of the bag), topk_mode the
    patch weighting (see distributions.theta_with_partial) and beta_mode the
    label weighting (see distributions.build_beta). Those three are checked
    here, so a bad value raises ConfigError before any sample is scored.
    """

    gamma_plus: float = 0.0
    gamma_minus: float = 2.0
    alpha: float = 1.0
    start_layer: int = 1
    top_k: int | None = None
    beta_mode: str = "masked"
    topk_mode: str = "sparse"

    def __post_init__(self):
        # a bool is an int to isinstance, so it is rejected on its own
        if self.top_k is not None and (
            isinstance(self.top_k, bool) or not isinstance(self.top_k, int) or self.top_k < 1
        ):
            raise ConfigError(f"top_k must be None or an integer >= 1, got {self.top_k!r}")
        if self.beta_mode not in BETA_MODES:
            raise ConfigError(f"beta_mode must be one of {BETA_MODES}, got {self.beta_mode!r}")
        if self.topk_mode not in TOPK_MODES:
            raise ConfigError(f"topk_mode must be one of {TOPK_MODES}, got {self.topk_mode!r}")


@dataclass
class GradientBundle:
    """Partials keyed by parameter name, plus the loss values they came from."""

    partials: dict[str, np.ndarray]
    total: float
    lct: float
    asl: float

    def __post_init__(self):
        for name, g in self.partials.items():
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient in parameter group {name!r}")


def asl_with_partial(probs, y, cfg: LossConfig | None = None):
    """Asymmetric loss value and a closure for g times its partial in probs.

    The partial is zero wherever the clamp is active; it comes back raveled.
    """
    cfg = cfg or LossConfig()
    raw = np.asarray(probs, dtype=np.float64).ravel()
    yv = as_label_vector(y)
    if raw.size != yv.size:
        raise ShapeError(f"{raw.size} probabilities but {yv.size} labels")
    if np.isnan(raw).any():
        raise NumericalError("probabilities contain NaN")
    p = np.clip(raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
    gp, gm = cfg.gamma_plus, cfg.gamma_minus
    log_p, log_q = np.log(p), np.log(1.0 - p)
    # a zero gamma gives a weight of exactly 1.0, so no branch is needed
    w_pos, w_neg = (1.0 - p) ** gp, p**gm
    value = float(-(yv * (w_pos * log_p) + (1 - yv) * (w_neg * log_q)).mean())

    def partial(g: float) -> np.ndarray:
        d_pos = w_pos / p - gp * (1.0 - p) ** (gp - 1.0) * log_p
        d_neg = gm * p ** (gm - 1.0) * log_q - w_neg / (1.0 - p)
        inside = (raw > PROB_CLAMP) & (raw < 1.0 - PROB_CLAMP)
        return (-g / yv.size) * (yv * d_pos + (1 - yv) * d_neg) * inside

    return value, partial


def asl_loss(probs, y, cfg: LossConfig | None = None) -> float:
    """Asymmetric binary loss averaged over classes.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs. The
    positive term is weighted by (1-p)^gamma_plus, the negative term by
    p^gamma_minus; both gammas at zero reduce this to mean binary
    cross-entropy.
    """
    return asl_with_partial(probs, y, cfg)[0]


def loss_gradients(model, batch, cfg: LossConfig | None = None) -> GradientBundle:
    """Gradients of the batch-mean combined loss for every parameter group.

    Built by reverse-mode differentiation of the same graph the trainer runs;
    the finite-difference checker in numerics is the independent reference.
    """
    return _step_gradients(model, batch, cfg, warmup=False)


def warmup_gradients(model, batch, cfg: LossConfig | None = None) -> GradientBundle:
    """Classification-phase gradients for the two-phase trainer.

    The classifier groups (encoder, label table and transforms, head) follow
    the classification loss alone; the navigator, which no other loss and no
    other group's gradient touches, follows the raw transport loss so its
    temperature is already calibrated to the learned geometry when the joint
    phase starts. With alpha = 0 the navigator is left untouched, keeping
    "alpha zero means transport nowhere in training" literally true. The
    reported total is the classification loss.
    """
    return _step_gradients(model, batch, cfg, warmup=True)


def _step_gradients(model, batch, cfg, warmup) -> GradientBundle:
    """One graph and one backward pass over model.batch_objective's root."""
    from . import model as model_mod  # deferred: model imports this module

    cfg = cfg or LossConfig()
    tensors = model_mod.parameter_tensors(model)
    root, lct_t, asl_t = model_mod.batch_objective(tensors, model, batch, cfg, warmup)
    autodiff.backward(root)
    partials = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.value))
        for name, t in tensors.items()
    }
    return GradientBundle(
        partials=partials,
        total=float((asl_t if warmup else root).value),
        lct=float(lct_t.value),
        asl=float(asl_t.value),
    )
