"""Bidirectional conditional-transport alignment between weighted point sets.

Closed-form forward/backward transport plans over temperature-scaled cosine
distances, sparse label-guided source weights, a layer-wise divergence with an
asymmetric classification loss on top, a Sinkhorn baseline, and a synthetic
multi-label training bench.
"""

from .distributions import (
    DiscretePointSet,
    build_beta,
    build_theta,
    default_top_k,
    make_point_set,
)
from .errors import CTAlignError
from .losses import GradientBundle, LossConfig, asl_loss, loss_gradients
from .metrics import MetricsReport, average_precision, map_score, prf_suite
from .model import (
    EncodeResult,
    SyntheticSample,
    ToyModelParams,
    TrainConfig,
    batch_loss_value,
    encode,
    generate_dataset,
    init_params,
    predict,
    predict_batch,
    train,
)
from .numerics import (
    cosine_similarity_matrix,
    grad_check,
    softmax_stable,
    top_k_mask,
)
from .transport import (
    CTResult,
    NavigatorParams,
    SinkhornResult,
    TransportPlan,
    backward_plan,
    cost_matrix,
    ct_distance,
    export_plan_grid,
    forward_plan,
    navigator_distance,
    sinkhorn_ot,
)

__version__ = "0.1.0"

__all__ = [
    "CTAlignError",
    "CTResult",
    "DiscretePointSet",
    "EncodeResult",
    "GradientBundle",
    "LossConfig",
    "MetricsReport",
    "NavigatorParams",
    "SinkhornResult",
    "SyntheticSample",
    "ToyModelParams",
    "TrainConfig",
    "TransportPlan",
    "asl_loss",
    "average_precision",
    "backward_plan",
    "batch_loss_value",
    "build_beta",
    "build_theta",
    "cosine_similarity_matrix",
    "cost_matrix",
    "ct_distance",
    "default_top_k",
    "encode",
    "export_plan_grid",
    "forward_plan",
    "generate_dataset",
    "grad_check",
    "init_params",
    "loss_gradients",
    "make_point_set",
    "map_score",
    "navigator_distance",
    "predict",
    "predict_batch",
    "prf_suite",
    "sinkhorn_ot",
    "softmax_stable",
    "top_k_mask",
    "train",
]
