"""Synthetic multi-label bench: prototype-plus-noise dataset generator, a
residual patch encoder with a learnable label-embedding table, an adaptive
classification head, and a deterministic Adam training loop.

The forward pass is built once as a reverse-mode graph (see autodiff) whose
nodes are whole formulas with closed-form partials: each residual block,
each column normalisation, the head, each layer's transport cost and the
classification loss. A layer's transport node takes the label-guided patch
weights from distributions.theta_with_partial, the same function behind
build_theta, and adds their partials to its own. Only the Gram-Schmidt loop
of the label frame runs on generic tape ops. The label frames depend on the
parameters alone, so they are built once per objective, predict or encode
call and every sample's graph shares them. The weighting settings (top_k,
topk_mode, beta_mode) travel in losses.LossConfig. Plain-array views of the
same forward pass feed the library-level transport functions.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .distributions import (
    DiscretePointSet,
    as_label_vector,
    build_beta,
    default_top_k,
    make_point_set,
    normalized_labels,
    theta_with_partial,
)
from .errors import ConfigError, DegenerateVectorError, NumericalError, ParseError, ShapeError
from .losses import LossConfig, asl_with_partial, loss_gradients, warmup_gradients
from .metrics import map_score
from .numerics import as_matrix, cosine_similarity_matrix, cosine_similarity_partials
from .transport import NavigatorParams, backward_plan, ct_kernel

BACKGROUND = -1

DATASET_FORMAT = "ctalign.dataset.v1"
CHECKPOINT_FORMAT = "ctalign.checkpoint.v1"

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSample:
    """One bag of patch columns with its multi-hot labels.

    assignment[i] is the owning label index of patch i, or BACKGROUND (-1)
    for pure-noise patches.
    """

    patches: np.ndarray
    y: np.ndarray
    assignment: np.ndarray


def generate_dataset(
    n_labels: int,
    feature_dim: int,
    n_patches: int,
    n_samples: int,
    noise_sigma: float,
    seed: int,
    max_label_count: int = 3,
    min_patches_per_label: int = 2,
    max_patches_per_label: int = 4,
) -> list[SyntheticSample]:
    """Draw a dataset of prototype-plus-noise patch bags.

    Each sample carries 1..max_label_count distinct labels; every positive
    label owns min..max patches (prototype plus Gaussian(0, sigma^2) noise,
    capped so the bag always fits) and the remaining patches are pure noise
    at unit expected norm. The whole draw restarts until every label appears
    at least once, so coverage is a function of the seed alone.
    """
    if n_labels < 2:
        raise ConfigError(f"need at least 2 labels, got {n_labels}")
    if n_patches < n_labels:
        raise ConfigError(f"need n_patches >= n_labels, got {n_patches} < {n_labels}")
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    if noise_sigma < 0:
        raise ConfigError("noise_sigma must be nonnegative")
    max_card = min(max_label_count, n_labels)
    if n_patches < max_card:
        raise ConfigError("not enough patches for the maximum label count")
    if n_samples * max_card < n_labels:
        raise ConfigError("label coverage is impossible at this dataset size")

    rng = np.random.default_rng(seed)
    if n_labels < feature_dim:
        # random orthonormal frame: unit-norm prototypes with zero cross-talk,
        # plus a basis for the complement so background noise never aliases an
        # object signature (keeps bags identifiable at sigma ~ 0.3)
        frame, _ = np.linalg.qr(rng.normal(size=(feature_dim, feature_dim)))
        protos = frame[:, :n_labels]
        bg_basis = frame[:, n_labels:]
    else:
        protos = rng.normal(size=(feature_dim, n_labels))
        protos /= np.sqrt((protos * protos).sum(axis=0, keepdims=True))
        bg_basis = None
    bg_scale = 1.0 / math.sqrt(feature_dim)

    for _ in range(50):
        samples = []
        seen = np.zeros(n_labels, dtype=bool)
        for _ in range(n_samples):
            card = int(rng.integers(1, max_card + 1))
            labels = np.sort(rng.choice(n_labels, size=card, replace=False))
            per_label_cap = max(1, min(max_patches_per_label, n_patches // card))
            per_label_floor = min(min_patches_per_label, per_label_cap)
            counts = rng.integers(per_label_floor, per_label_cap + 1, size=card)
            positions = rng.permutation(n_patches)
            patches = np.empty((feature_dim, n_patches))
            assignment = np.full(n_patches, BACKGROUND, dtype=np.int64)
            cursor = 0
            for lab, cnt in zip(labels, counts):
                for pos in positions[cursor : cursor + cnt]:
                    assignment[pos] = lab
                    patches[:, pos] = protos[:, lab] + rng.normal(
                        0.0, noise_sigma, feature_dim
                    )
                cursor += cnt
            for pos in positions[cursor:]:
                if bg_basis is not None:
                    k_bg = bg_basis.shape[1]
                    coeffs = rng.normal(0.0, 1.0 / math.sqrt(k_bg), k_bg)
                    patches[:, pos] = bg_basis @ coeffs
                else:
                    patches[:, pos] = rng.normal(0.0, bg_scale, feature_dim)
            y = np.zeros(n_labels, dtype=np.int64)
            y[labels] = 1
            seen[labels] = True
            samples.append(SyntheticSample(patches, y, assignment))
        if seen.all():
            return samples
    raise ConfigError("label coverage not reached; dataset too small for n_labels")


# ---------------------------------------------------------------------------
# parameters


@dataclass
class LayerParams:
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class HeadParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class ToyModelParams:
    encoder_layers: list[LayerParams]
    label_table: np.ndarray
    label_layers: list[LayerParams]
    head: HeadParams
    navigator: NavigatorParams

    @property
    def dim(self) -> int:
        return self.label_table.shape[0]

    @property
    def n_labels(self) -> int:
        return self.label_table.shape[1]

    @property
    def depth(self) -> int:
        return len(self.encoder_layers)


def init_params(
    n_labels: int,
    dim: int,
    depth: int = 3,
    head_hidden: int | None = None,
    seed: int = 0,
    block_scale: float = 0.25,
) -> ToyModelParams:
    """Random init. Residual blocks start as small perturbations of identity
    and the head correction starts at the zero map, so the initial forward
    pass is close to mean pooling of the raw patches."""
    if n_labels < 1 or dim < 1 or depth < 1:
        raise ConfigError("n_labels, dim, and depth must be positive")
    rng = np.random.default_rng(seed)
    hh = head_hidden or dim
    scale = block_scale / math.sqrt(dim)

    def block() -> LayerParams:
        return LayerParams(rng.normal(0.0, scale, (dim, dim)), np.zeros((dim, 1)))

    encoder = [block() for _ in range(depth)]
    table = rng.normal(0.0, 1.0 / math.sqrt(dim), (dim, n_labels))
    # label transforms start as exact identities: the table is the embedding
    # until the trunk learns per-layer refinements
    label_layers = [
        LayerParams(np.zeros((dim, dim)), np.zeros((dim, 1))) for _ in range(depth)
    ]
    head = HeadParams(
        w1=rng.normal(0.0, 1.0 / math.sqrt(dim), (hh, dim)),
        b1=np.zeros((hh, 1)),
        w2=np.zeros((dim, hh)),
        b2=np.zeros((dim, 1)),
    )
    return ToyModelParams(encoder, table, label_layers, head, NavigatorParams())


def parameter_arrays(params: ToyModelParams) -> dict[str, np.ndarray]:
    """Live views of every learnable array, in a fixed key order."""
    out: dict[str, np.ndarray] = {}
    for i, layer in enumerate(params.encoder_layers):
        out[f"encoder.{i}.weight"] = layer.weight
        out[f"encoder.{i}.bias"] = layer.bias
    out["label.table"] = params.label_table
    for i, layer in enumerate(params.label_layers):
        out[f"label.{i}.weight"] = layer.weight
        out[f"label.{i}.bias"] = layer.bias
    out["head.w1"] = params.head.w1
    out["head.b1"] = params.head.b1
    out["head.w2"] = params.head.w2
    out["head.b2"] = params.head.b2
    out["navigator.log_temperature"] = params.navigator.log_temperature
    return out


def parameter_tensors(params: ToyModelParams) -> dict[str, ad.Tensor]:
    return {name: ad.Tensor(arr) for name, arr in parameter_arrays(params).items()}


def flatten_parameters(params: ToyModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in parameter_arrays(params).values()])


def assign_parameters(params: ToyModelParams, vector) -> None:
    """Write a flat vector back into the live parameter arrays."""
    vec = np.asarray(vector, dtype=np.float64)
    arrays = parameter_arrays(params)
    total = sum(a.size for a in arrays.values())
    if vec.size != total:
        raise ShapeError(f"expected {total} parameters, got {vec.size}")
    offset = 0
    for arr in arrays.values():
        arr[...] = vec[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size


# ---------------------------------------------------------------------------
# forward graph


@dataclass
class _Graph:
    """One sample's forward pass; thetas holds theta_with_partial's
    (logits, theta, partial) per layer, and it and beta are None without
    labels."""

    patch_layers: list[ad.Tensor]
    label_layers: list[ad.Tensor]
    thetas: list[tuple] | None
    beta: np.ndarray | None
    feature: np.ndarray
    probs: ad.Tensor


def _gelu(z: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Tanh-form gelu of z and a closure for its elementwise derivative."""
    u = _GELU_C * (z + _GELU_A * z**3)
    t = np.tanh(u)

    def derivative() -> np.ndarray:
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * z * z)
        return 0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * du

    return 0.5 * z * (1.0 + t), derivative


def _residual(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """x + gelu(w @ x + b) as one node."""
    act, derivative = _gelu(w.value @ x.value + b.value)

    def vjp(g):
        gz = g * derivative()
        return g + w.value.T @ gz, gz @ x.value.T, gz.sum(axis=1, keepdims=True)

    return ad.Tensor(x.value + act, (x, w, b), vjp)


def _normalize_columns(t: ad.Tensor, radius: float) -> ad.Tensor:
    """radius * t / |t| column by column, as one node.

    Every embedding lives on a sphere of radius sqrt(dim): without the bound
    the transport term zeroes itself by inflating one norm (a single patch,
    or the label table) until the patch weights go one-hot; with radius 1
    the inner products are too small for confident logits or sharp weights.
    """
    norms = np.sqrt((t.value * t.value).sum(axis=0, keepdims=True))
    if (norms == 0.0).any():
        raise DegenerateVectorError("zero-norm embedding column has no direction")
    scale = radius / norms

    def vjp(g):
        unit = t.value / norms
        return (scale * (g - unit * (unit * g).sum(axis=0, keepdims=True)),)

    return ad.Tensor(t.value * scale, (t,), vjp)


def _orthonormal_columns(t: ad.Tensor, radius: float) -> ad.Tensor:
    # label embeddings are kept mutually orthogonal (modified Gram-Schmidt,
    # scaled to the shared radius): a purely attractive transport cost always
    # has its global minimum at "every label on one ray", and once the label
    # frame degenerates the class logits cannot be told apart; orthogonality
    # removes that basin while leaving the frame free to rotate
    d, m = t.value.shape
    if m > d:
        return _normalize_columns(t, radius)
    units: list[ad.Tensor] = []
    out: ad.Tensor | None = None
    for j in range(m):
        pick = np.zeros((m, 1))
        pick[j, 0] = 1.0
        v = t @ pick
        for u in units:
            v = v - u @ (u.T @ v)
        v = _normalize_columns(v, 1.0)
        units.append(v)
        col = (radius * v) @ pick.T
        out = col if out is None else out + col
    return out


def _head(
    x: ad.Tensor, labels: ad.Tensor, tensors: dict[str, ad.Tensor]
) -> tuple[ad.Tensor, np.ndarray]:
    """Class probabilities from the last patch and label layers as one node,
    plus the pooled feature they score.

    The feature is the patch mean plus a gelu correction; each class logit
    is its label column's inner product with the feature.
    """
    w1, b1, w2, b2 = (tensors[f"head.{k}"] for k in ("w1", "b1", "w2", "b2"))
    pooled = x.value.sum(axis=1, keepdims=True) * (1.0 / x.value.shape[1])
    hidden, derivative = _gelu(w1.value @ pooled + b1.value)
    feature = pooled + (w2.value @ hidden + b2.value)
    logits = labels.value.T @ feature
    e = np.exp(-np.abs(logits))  # sigmoid without overflow on either side
    probs = np.where(logits >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        g_logits = g * probs * (1.0 - probs)
        g_feature = labels.value @ g_logits
        g_pre = (w2.value.T @ g_feature) * derivative()
        g_pooled = g_feature + w1.value.T @ g_pre
        g_x = np.broadcast_to(g_pooled / x.value.shape[1], x.value.shape)
        return (
            g_x,
            feature @ g_logits.T,
            g_pre @ pooled.T,
            g_pre,
            g_feature @ hidden.T,
            g_feature,
        )

    return ad.Tensor(probs, (x, labels, w1, b1, w2, b2), vjp), feature


def _label_frames(tensors: dict[str, ad.Tensor], params: ToyModelParams) -> list[ad.Tensor]:
    """The per-layer label frames. They depend on the parameters alone, so
    one set serves every sample of a call."""
    radius = math.sqrt(params.dim)
    t = tensors["label.table"]
    frames = []
    for i in range(params.depth):
        w, b = tensors[f"label.{i}.weight"], tensors[f"label.{i}.bias"]
        t = _orthonormal_columns(_residual(t, w, b), radius)
        frames.append(t)
    return frames


def _forward_graph(
    tensors: dict[str, ad.Tensor],
    params: ToyModelParams,
    label_layers: list[ad.Tensor],
    patches,
    y,
    cfg: LossConfig | None,
) -> _Graph:
    """One sample's patch branch over the shared label frames; y and cfg are
    None for an unlabeled bag."""
    patches = as_matrix(patches, "patches")
    if patches.shape[0] != params.dim:
        raise ShapeError(
            f"patches have dimension {patches.shape[0]}, model expects {params.dim}"
        )
    n = patches.shape[1]
    if n == 0:
        raise ShapeError("patch bag has no patches")

    radius = math.sqrt(params.dim)
    x = ad.Tensor(patches)
    patch_layers = []
    for i in range(params.depth):
        w, b = tensors[f"encoder.{i}.weight"], tensors[f"encoder.{i}.bias"]
        x = _normalize_columns(_residual(x, w, b), radius)
        patch_layers.append(x)

    thetas = beta = None
    if y is not None:
        yv = as_label_vector(y)
        if yv.size != params.n_labels:
            raise ShapeError(f"{yv.size} labels but model has {params.n_labels}")
        beta = build_beta(y, cfg.beta_mode)
        k = cfg.top_k if cfg.top_k is not None else default_top_k(n)
        yhat = normalized_labels(y)
        thetas = [
            theta_with_partial(e.value, l.value, yhat, k, cfg.topk_mode)
            for e, l in zip(patch_layers, label_layers)
        ]

    probs, feature = _head(patch_layers[-1], label_layers[-1], tensors)
    return _Graph(patch_layers, label_layers, thetas, beta, feature, probs)


def _ct_node(
    e: ad.Tensor,
    l: ad.Tensor,
    weights: tuple,
    beta: np.ndarray,
    log_temperature: ad.Tensor,
    detached: bool = False,
) -> ad.Tensor:
    """One layer's forward + backward transport cost as one tape node over
    transport.ct_kernel. weights is theta_with_partial's (logits, theta,
    partial) for e and l: the patch weights are a function of both, so the
    node passes their partials on to those two parents. A detached node's
    only parent is the log temperature, so its cost trains the navigator and
    nothing else."""
    logits, theta, theta_partial = weights
    cos = cosine_similarity_matrix(e.value, l.value)
    k = ct_kernel(cos, theta, logits, beta, log_temperature.value[0])
    cost = k.forward_cost + k.backward_cost
    if detached:
        return ad.Tensor(
            cost, (log_temperature,), lambda g: (np.array([k.partials(float(g))[3]]),)
        )

    def vjp(g):
        g_cos, g_theta, g_logits, g_log_tau = k.partials(float(g))
        g_e, g_l = cosine_similarity_partials(e.value, l.value, cos, g_cos)
        w_e, w_l = theta_partial(g_theta, g_logits)
        return g_e + w_e, g_l + w_l, np.array([g_log_tau])

    return ad.Tensor(cost, (e, l, log_temperature), vjp)


def _ct_graph(
    graph: _Graph,
    tensors: dict[str, ad.Tensor],
    start_layer: int,
    detached: bool = False,
) -> ad.Tensor:
    """Layer-wise bidirectional transport cost as one differentiable scalar.

    The backward plan's source weighting reuses the raw top-k score logits:
    the normalizer of theta cancels inside the column softmax, which keeps
    exact zeros out of the log.
    """
    log_temperature = tensors["navigator.log_temperature"]
    layers = zip(graph.patch_layers, graph.label_layers, graph.thetas)
    acc = None
    for e, l, weights in list(layers)[start_layer - 1 :]:
        term = _ct_node(e, l, weights, graph.beta, log_temperature, detached)
        acc = term if acc is None else acc + term
    return acc


def _asl_graph(probs: ad.Tensor, y, cfg: LossConfig) -> ad.Tensor:
    value, partial = asl_with_partial(probs.value, y, cfg)
    return ad.Tensor(
        value, (probs,), lambda g: (partial(float(g)).reshape(probs.shape),)
    )


def batch_objective(
    tensors: dict[str, ad.Tensor],
    params: ToyModelParams,
    batch,
    cfg: LossConfig,
    warmup: bool = False,
) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """The root one gradient step differentiates, plus the batch-mean
    transport and classification nodes (root, lct, asl).

    The joint root is alpha*lct + asl. The warmup root is lct + asl over
    detached transport nodes: one backward pass gives the classifier groups
    the classification gradient alone and the navigator the raw transport
    gradient. With alpha = 0 the warmup root is asl alone and the navigator
    gets no gradient.
    """
    if not batch:
        raise ConfigError("empty batch")
    if not 1 <= cfg.start_layer <= params.depth:
        raise ConfigError(f"start_layer {cfg.start_layer} outside 1..{params.depth}")
    frames = _label_frames(tensors, params)
    lct_terms = []
    asl_terms = []
    for sample in batch:
        graph = _forward_graph(tensors, params, frames, sample.patches, sample.y, cfg)
        lct_terms.append(_ct_graph(graph, tensors, cfg.start_layer, warmup))
        asl_terms.append(_asl_graph(graph.probs, sample.y, cfg))

    def mean_node(terms: list[ad.Tensor]) -> ad.Tensor:
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc * (1.0 / len(terms))

    lct = mean_node(lct_terms)
    asl = mean_node(asl_terms)
    if not warmup:
        return cfg.alpha * lct + asl, lct, asl
    return (lct + asl if cfg.alpha > 0.0 else asl), lct, asl


def batch_loss_value(params: ToyModelParams, batch, cfg: LossConfig) -> float:
    """Value of the batch objective; the probe function for gradient checks."""
    total, _lct, _asl = batch_objective(parameter_tensors(params), params, batch, cfg)
    return float(total.value)


# ---------------------------------------------------------------------------
# encode / predict


@dataclass
class EncodeResult:
    per_layer_patches: list[DiscretePointSet]
    per_layer_labels: list[DiscretePointSet]
    global_feature: np.ndarray
    probabilities: np.ndarray
    navigator: NavigatorParams


def encode(params: ToyModelParams, sample, cfg: LossConfig | None = None) -> EncodeResult:
    """Training-style forward pass on one labeled sample, weighted as cfg's
    top_k, topk_mode and beta_mode say.

    Returns per-layer patch point sets (label-guided weights) and label point
    sets (ground-truth weights) together with the pooled feature and head
    probabilities.
    """
    tensors = parameter_tensors(params)
    frames = _label_frames(tensors, params)
    graph = _forward_graph(
        tensors, params, frames, sample.patches, sample.y, cfg or LossConfig()
    )
    per_layer_patches = [
        make_point_set(e.value, theta)
        for e, (_logits, theta, _partial) in zip(graph.patch_layers, graph.thetas)
    ]
    per_layer_labels = [
        make_point_set(l.value, graph.beta) for l in graph.label_layers
    ]
    return EncodeResult(
        per_layer_patches=per_layer_patches,
        per_layer_labels=per_layer_labels,
        global_feature=graph.feature.ravel(),
        probabilities=graph.probs.value.ravel().copy(),
        navigator=params.navigator,
    )


def predict(params: ToyModelParams, patches) -> np.ndarray:
    """Class probabilities for an unlabeled patch bag."""
    tensors = parameter_tensors(params)
    frames = _label_frames(tensors, params)
    graph = _forward_graph(tensors, params, frames, patches, None, None)
    return graph.probs.value.ravel().copy()


# ---------------------------------------------------------------------------
# training

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 10
    seed: int = 42
    # transport weight is held at zero for this many leading epochs, the
    # stand-in for the pretrained encoders the alignment loss assumes: from
    # a random init its gradient is ~30x the classification gradient and
    # drags every embedding onto one ray before the classes can separate
    lct_warmup_epochs: int = 10
    loss: LossConfig = field(default_factory=LossConfig)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    total: float
    lct: float
    asl: float
    val_map: float


@dataclass
class TrainResult:
    """The trained parameters, one trace row per epoch, and the last epoch's
    validation scores (None without validation samples)."""

    params: ToyModelParams
    trace: list[EpochStats]
    val_scores: np.ndarray | None = None


def train(
    params: ToyModelParams,
    train_samples,
    cfg: TrainConfig,
    val_samples=None,
) -> TrainResult:
    """Adam on the batch-mean combined loss; updates params in place.

    Batch order is reshuffled each epoch from cfg.seed, so two runs from the
    same init and seed replay bit-for-bit. A non-finite gradient aborts with
    the offending epoch in the message. The trace records the objective each
    epoch actually minimized (warmup epochs run with transport weight zero).
    """
    if not train_samples:
        raise ConfigError("empty training set")
    if cfg.epochs < 1 or cfg.batch_size < 1:
        raise ConfigError("epochs and batch_size must be >= 1")
    if cfg.lct_warmup_epochs < 0:
        raise ConfigError("lct_warmup_epochs must be >= 0")
    arrays = parameter_arrays(params)
    m_state = {k: np.zeros_like(v) for k, v in arrays.items()}
    v_state = {k: np.zeros_like(v) for k, v in arrays.items()}
    rng = np.random.default_rng(cfg.seed)
    n = len(train_samples)
    bs = min(cfg.batch_size, n)
    step = 0
    trace: list[EpochStats] = []
    scores = None
    for epoch in range(1, cfg.epochs + 1):
        grad_fn = (
            warmup_gradients if epoch <= cfg.lct_warmup_epochs else loss_gradients
        )
        order = rng.permutation(n)
        total_sum = lct_sum = asl_sum = 0.0
        for start in range(0, n, bs):
            batch = [train_samples[i] for i in order[start : start + bs]]
            try:
                bundle = grad_fn(params, batch, cfg.loss)
            except NumericalError as err:
                raise NumericalError(f"epoch {epoch}: {err}") from err
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for name, arr in arrays.items():
                g = bundle.partials[name]
                m_state[name] = ADAM_BETA1 * m_state[name] + (1.0 - ADAM_BETA1) * g
                v_state[name] = ADAM_BETA2 * v_state[name] + (1.0 - ADAM_BETA2) * (g * g)
                arr -= cfg.learning_rate * (m_state[name] / bc1) / (
                    np.sqrt(v_state[name] / bc2) + ADAM_EPSILON
                )
            weight = len(batch)
            total_sum += bundle.total * weight
            lct_sum += bundle.lct * weight
            asl_sum += bundle.asl * weight
        val_map = math.nan
        if val_samples:
            scores = np.stack([predict(params, s.patches) for s in val_samples])
            labels = np.stack([s.y for s in val_samples])
            val_map = map_score(scores, labels)
        trace.append(
            EpochStats(epoch, total_sum / n, lct_sum / n, asl_sum / n, val_map)
        )
    return TrainResult(params=params, trace=trace, val_scores=scores)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class LocalizationReport:
    fraction: float
    n_localized: int
    n_correct: int
    n_total: int


def localization_report(
    params: ToyModelParams,
    samples,
    cfg: LossConfig | None = None,
    prob_threshold: float = 0.5,
    mass_threshold: float = 0.5,
) -> LocalizationReport:
    """How often the final-layer backward plan finds the true patches, with
    the patches weighted as in encode(params, sample, cfg).

    A sample counts as correctly classified when thresholded probabilities
    reproduce its label set exactly; it counts as localized when, for every
    true label, at least mass_threshold of that label's backward-plan column
    sits on the patches the generator assigned to it.
    """
    samples = list(samples)
    n_correct = 0
    n_localized = 0
    for sample in samples:
        # the head never reads the labels, so these are predict's probabilities
        enc = encode(params, sample, cfg)
        if not np.array_equal((enc.probabilities > prob_threshold).astype(np.int64), sample.y):
            continue
        n_correct += 1
        plan = backward_plan(
            enc.per_layer_patches[-1], enc.per_layer_labels[-1], params.navigator
        )
        localized = True
        for j in np.flatnonzero(sample.y):
            column = plan.coupling[:, j]
            total = column.sum()
            if total <= 0 or column[sample.assignment == j].sum() / total < mass_threshold:
                localized = False
                break
        n_localized += localized
    fraction = n_localized / n_correct if n_correct else 0.0
    return LocalizationReport(fraction, n_localized, n_correct, len(samples))


# ---------------------------------------------------------------------------
# serialization


def _array_payload(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}


def _array_from_payload(obj, name: str) -> np.ndarray:
    try:
        shape = obj["shape"]
        data = obj["data"]
    except (TypeError, KeyError) as err:
        raise ParseError(f"array {name!r} needs 'shape' and 'data'") from err
    arr = np.asarray(data, dtype=np.float64)
    if arr.size != int(np.prod(shape)):
        raise ParseError(f"array {name!r} has {arr.size} values for shape {shape}")
    if not np.isfinite(arr).all():
        raise ParseError(f"array {name!r} has NaN or Inf values")
    return arr.reshape(shape)


def load_json(path) -> dict:
    """A JSON object read from a file; an unreadable file, malformed JSON or
    any other top-level value raises ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}") from err
    except OSError as err:
        raise ParseError(f"{path}: {err}") from err
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return payload


def save_dataset(samples, path, meta: dict | None = None) -> None:
    if not samples:
        raise ConfigError("no samples to save")
    first = samples[0]
    payload = {
        "format": DATASET_FORMAT,
        "meta": {
            "n_labels": int(first.y.size),
            "feature_dim": int(first.patches.shape[0]),
            "n_patches": int(first.patches.shape[1]),
            "count": len(samples),
            **(meta or {}),
        },
        "samples": [
            {
                "patches": [float(v) for v in s.patches.ravel()],
                "y": [int(v) for v in s.y],
                "assignment": [int(v) for v in s.assignment],
            }
            for s in samples
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))


def load_dataset(path) -> list[SyntheticSample]:
    payload = load_json(path)
    if payload.get("format") != DATASET_FORMAT:
        raise ParseError(f"{path}: not a dataset file")
    try:
        meta = payload["meta"]
        d, n = int(meta["feature_dim"]), int(meta["n_patches"])
        n_labels = int(meta["n_labels"])
        raw = payload["samples"]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: missing dataset fields ({err})") from err
    samples = []
    for i, item in enumerate(raw):
        try:
            patches = np.asarray(item["patches"], dtype=np.float64).reshape(d, n)
            # read as floats so that a fractional entry is rejected, not truncated
            y = np.asarray(item["y"], dtype=np.float64)
            assignment = np.asarray(item["assignment"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"{path}: bad sample {i} ({err})") from err
        if y.shape != (n_labels,) or not np.isin(y, (0, 1)).all():
            raise ParseError(f"{path}: sample {i} needs {n_labels} labels, each 0 or 1")
        if assignment.shape != (n,) or not np.isin(assignment, range(BACKGROUND, n_labels)).all():
            raise ParseError(
                f"{path}: sample {i} needs {n} patch assignments in {BACKGROUND}..{n_labels - 1}"
            )
        samples.append(SyntheticSample(patches, y.astype(np.int64), assignment.astype(np.int64)))
    return samples


def save_checkpoint(params: ToyModelParams, path, extra: dict | None = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "arch": {
            "dim": params.dim,
            "n_labels": params.n_labels,
            "depth": params.depth,
            "head_hidden": int(params.head.w1.shape[0]),
        },
        "params": {
            name: _array_payload(arr) for name, arr in parameter_arrays(params).items()
        },
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))


def load_checkpoint(path) -> tuple[ToyModelParams, dict]:
    payload = load_json(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{path}: not a checkpoint file")
    try:
        arch = payload["arch"]
        params = init_params(
            n_labels=int(arch["n_labels"]),
            dim=int(arch["dim"]),
            depth=int(arch["depth"]),
            head_hidden=int(arch["head_hidden"]),
        )
        stored = payload["params"]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: missing checkpoint fields ({err})") from err
    arrays = parameter_arrays(params)
    if set(stored) != set(arrays):
        raise ParseError(f"{path}: parameter names do not match the architecture")
    for name, arr in arrays.items():
        loaded = _array_from_payload(stored[name], name)
        if loaded.shape != arr.shape:
            raise ParseError(
                f"{path}: parameter {name!r} has shape {loaded.shape}, expected {arr.shape}"
            )
        arr[...] = loaded
    extra = payload.get("extra", {})
    if not isinstance(extra, dict) or not isinstance(extra.get("config", {}), dict):
        raise ParseError(f"{path}: 'extra' and its 'config' must be JSON objects")
    return params, extra


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "total", "lct", "asl", "val_map"])
        for row in trace:
            writer.writerow(
                [
                    row.epoch,
                    f"{row.total:.6f}",
                    f"{row.lct:.6f}",
                    f"{row.asl:.6f}",
                    f"{row.val_map:.6f}",
                ]
            )
