"""Command-line front end.

Subcommands: ``distance`` (divergence between two embedding files),
``train`` (synthetic end-to-end run), ``sweep`` (alpha / start-layer / top-k
ablations), ``eval`` (checkpoint against a dataset file), and ``export-plan``
(one backward-plan column as a resampled square grid). Every run writes an
effective-config JSON next to its outputs so it can be replayed exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as model_mod
from .distributions import make_point_set
from .errors import ConfigError, CTAlignError, ParseError
from .losses import LossConfig
from .metrics import MetricsReport, map_score, prf_suite
from .transport import (
    NavigatorParams,
    backward_plan,
    cost_matrix,
    ct_distance,
    export_plan_grid,
    forward_plan,
    sinkhorn_ot,
)

FLOAT_FMT = "{:.6f}"


@dataclass
class ExperimentConfig:
    """Everything a train run needs; one seed drives data, init, and batching."""

    n_labels: int = 6
    feature_dim: int = 16
    n_patches: int = 16
    train_samples: int = 500
    test_samples: int = 200
    noise_sigma: float = 0.3
    depth: int = 3
    head_hidden: int = 16
    block_scale: float = 0.25
    epochs: int = 30
    batch_size: int = 10
    learning_rate: float = 1e-3
    lct_warmup_epochs: int = 10
    seed: int = 42
    top_k: int | None = None
    alpha: float = 1.0
    gamma_plus: float = 0.0
    gamma_minus: float = 2.0
    start_layer: int = 1
    beta_mode: str = "masked"
    topk_mode: str = "sparse"
    eval_top_k: int = 3


# the value types each ExperimentConfig annotation admits; a bool is an int
# to isinstance, so it is rejected on its own
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "int | None": (int, type(None))}


def _config_from_sources(file_values: dict, overrides: dict) -> ExperimentConfig:
    fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(file_values) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**file_values, **{k: v for k, v in overrides.items() if v is not None}}
    for name, value in merged.items():
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[fields[name]]):
            raise ConfigError(f"config {name} must be {fields[name]}, got {value!r}")
        if fields[name] == "float" and not math.isfinite(value):
            raise ConfigError(f"config {name} must be finite, got {value!r}")
    cfg = ExperimentConfig(**merged)
    _loss_config(merged)  # checks the objective and its patch and label weighting
    if not 1 <= cfg.start_layer <= cfg.depth:
        raise ConfigError(f"start_layer {cfg.start_layer} outside 1..{cfg.depth}")
    for name in ("train_samples", "test_samples", "head_hidden"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if cfg.learning_rate <= 0:
        raise ConfigError(f"learning_rate must be > 0, got {cfg.learning_rate!r}")
    if cfg.eval_top_k < 1:
        raise ConfigError(f"eval_top_k must be >= 1, got {cfg.eval_top_k}")
    return cfg


def _loss_config(values: dict) -> LossConfig:
    """The LossConfig held in a flat config dict (ExperimentConfig's field
    names, as stored in a checkpoint); absent fields keep their defaults."""
    names = [f.name for f in dataclasses.fields(LossConfig)]
    return LossConfig(**{name: values[name] for name in names if name in values})


def _read_config_file(path: str | None) -> dict:
    return {} if path is None else model_mod.load_json(path)


def _parse_modes(mode_args: list[str] | None) -> dict:
    """--mode beta=literal / --mode topk=binary, repeatable."""
    out: dict[str, str] = {}
    for item in mode_args or []:
        key, sep, value = item.partition("=")
        if not sep or key not in ("beta", "topk"):
            raise ConfigError(f"--mode expects beta=... or topk=..., got {item!r}")
        out[f"{key}_mode"] = value
    return out


def _write_effective_config(out_dir: Path, command: str, payload: dict) -> None:
    doc = {"command": command, **payload}
    with open(out_dir / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"effective config -> {out_dir / 'effective_config.json'}")


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / default
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(matrix):
            writer.writerow([FLOAT_FMT.format(v) for v in row])


def _write_metrics_csv(path: Path, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["regime", "mAP", "CP", "CR", "CF1", "OP", "OR", "OF1"]
        writer.writerow(header)
        for report in reports:
            row = report.as_row()
            writer.writerow(
                [row["regime"]] + [FLOAT_FMT.format(row[k]) for k in header[1:]]
            )


# ---------------------------------------------------------------------------
# distance


def _load_embedding_file(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Embedding JSON: {dim, count, data (row-major, count x dim), weights?}."""
    payload = model_mod.load_json(path)
    try:
        dim = int(payload["dim"])
        count = int(payload["count"])
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: needs integer 'dim', 'count' and a 'data' list") from err
    if dim < 1 or count < 1:
        raise ParseError(f"{path}: 'dim' and 'count' must be >= 1, got {dim} and {count}")
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size != dim * count:
        raise ParseError(
            f"{path}: data has {arr.size} values, expected dim*count = {dim * count}"
        )
    support = arr.reshape(count, dim).T
    weights = None
    if "weights" in payload:
        weights = np.asarray(payload["weights"], dtype=np.float64).ravel()
        if weights.size != count:
            raise ParseError(f"{path}: {weights.size} weights for {count} points")
    return support, weights


def cmd_distance(args) -> int:
    out = _out_dir(args, "distance")
    support_p, weights_p = _load_embedding_file(args.source)
    support_q, weights_q = _load_embedding_file(args.target)
    notes = []
    if weights_p is None:
        weights_p = np.full(support_p.shape[1], 1.0 / support_p.shape[1])
        notes.append("source weights missing, using uniform")
    if weights_q is None:
        weights_q = np.full(support_q.shape[1], 1.0 / support_q.shape[1])
        notes.append("target weights missing, using uniform")
    for note in notes:
        print(f"note: {note}")
    p = make_point_set(support_p, weights_p)
    q = make_point_set(support_q, weights_q)
    nav = NavigatorParams(log_temperature=np.log(args.tau) * np.ones(1))
    result = ct_distance(p, q, nav)
    print(f"ct_total {FLOAT_FMT.format(result.total)}")
    print(f"ct_forward {FLOAT_FMT.format(result.forward_cost)}")
    print(f"ct_backward {FLOAT_FMT.format(result.backward_cost)}")
    report = {
        "ct_total": result.total,
        "ct_forward": result.forward_cost,
        "ct_backward": result.backward_cost,
        "notes": notes,
    }
    if args.sinkhorn:
        sk = sinkhorn_ot(
            p.weights, q.weights, cost_matrix(p.support, q.support), epsilon=args.epsilon
        )
        print(
            f"sinkhorn_cost {FLOAT_FMT.format(sk.cost)} "
            f"(epsilon={args.epsilon}, converged={sk.converged}, "
            f"iterations={sk.iterations})"
        )
        report["sinkhorn"] = {
            "cost": sk.cost,
            "epsilon": args.epsilon,
            "converged": sk.converged,
            "iterations": sk.iterations,
            "marginal_violation": sk.marginal_violation,
        }
    if args.plans:
        _write_matrix_csv(out / "forward_plan.csv", forward_plan(p, q, nav).coupling)
        _write_matrix_csv(out / "backward_plan.csv", backward_plan(p, q, nav).coupling)
        print(f"plans -> {out}")
    with open(out / "distance_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_effective_config(
        out,
        "distance",
        {
            "source": args.source,
            "target": args.target,
            "tau": args.tau,
            "epsilon": args.epsilon,
            "sinkhorn": bool(args.sinkhorn),
            "plans": bool(args.plans),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# train / sweep / eval


def run_train(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Full train run: data, fit, test metrics, artifacts. Returns a summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = model_mod.generate_dataset(
        n_labels=cfg.n_labels,
        feature_dim=cfg.feature_dim,
        n_patches=cfg.n_patches,
        n_samples=cfg.train_samples + cfg.test_samples,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
    )
    train_set = samples[: cfg.train_samples]
    test_set = samples[cfg.train_samples :]
    params = model_mod.init_params(
        n_labels=cfg.n_labels,
        dim=cfg.feature_dim,
        depth=cfg.depth,
        head_hidden=cfg.head_hidden,
        seed=cfg.seed + 1,
        block_scale=cfg.block_scale,
    )
    train_cfg = model_mod.TrainConfig(
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lct_warmup_epochs=cfg.lct_warmup_epochs,
        seed=cfg.seed + 2,
        loss=_loss_config(dataclasses.asdict(cfg)),
    )
    result = model_mod.train(params, train_set, train_cfg, val_samples=test_set)
    for row in result.trace:
        print(
            f"epoch {row.epoch:3d} total {row.total:.6f} lct {row.lct:.6f} "
            f"asl {row.asl:.6f} val_map {row.val_map:.6f}"
        )

    # the test split is the validation set, so the last epoch already scored
    # it with the final parameters
    scores = result.val_scores
    labels = np.stack([s.y for s in test_set])
    reports = [
        prf_suite(scores, labels),
        prf_suite(scores, labels, top_k=cfg.eval_top_k),
    ]
    localization = model_mod.localization_report(params, test_set, train_cfg.loss)

    model_mod.save_checkpoint(
        params, out_dir / "checkpoint.json", extra={"config": dataclasses.asdict(cfg)}
    )
    model_mod.save_dataset(
        samples,
        out_dir / "dataset.json",
        meta={"noise_sigma": cfg.noise_sigma, "seed": cfg.seed, "train_samples": cfg.train_samples},
    )
    model_mod.write_trace_csv(result.trace, out_dir / "trace.csv")
    _write_metrics_csv(out_dir / "metrics.csv", reports)

    test_map = map_score(scores, labels)
    print(f"test mAP {FLOAT_FMT.format(test_map)}")
    print(
        f"localization {FLOAT_FMT.format(localization.fraction)} "
        f"({localization.n_localized}/{localization.n_correct} correctly classified)"
    )
    print(f"artifacts -> {out_dir}")
    return {
        "test_map": test_map,
        "final_total": result.trace[-1].total,
        "localization": localization.fraction,
        "n_correct": localization.n_correct,
        "out_dir": str(out_dir),
    }


def cmd_train(args) -> int:
    overrides = {
        "seed": args.seed,
        "alpha": args.alpha,
        "start_layer": args.start_layer,
        "top_k": args.topk,
        "epochs": args.epochs,
        **_parse_modes(args.mode),
    }
    cfg = _config_from_sources(_read_config_file(args.config), overrides)
    out = _out_dir(args, "train")
    run_train(cfg, out)
    _write_effective_config(out, "train", dataclasses.asdict(cfg))
    return 0


def _sweep_values(flag: str, kind: type, text: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"{flag} expects comma-separated {kind.__name__} values, got {text!r}") from err


def cmd_sweep(args) -> int:
    file_values = _read_config_file(args.config)
    overrides = {"seed": args.seed, **_parse_modes(args.mode)}
    base = _config_from_sources(file_values, overrides)
    sweeps = (
        ("--alpha", "alpha", float, args.alpha),
        ("--start-layer", "start_layer", int, args.start_layer),
        ("--topk", "top_k", int, args.topk),
    )
    axes = {axis: _sweep_values(flag, kind, text) for flag, axis, kind, text in sweeps if text}
    if not axes:
        raise ConfigError("sweep needs at least one of --alpha, --start-layer, --topk")
    # every run's config is checked before the first run generates data
    runs = [
        (axis, value, _config_from_sources(file_values, {**overrides, axis: value}))
        for axis, values in axes.items()
        for value in values
    ]
    out = _out_dir(args, "sweep")
    rows = []
    for axis, value, cfg in runs:
        tag = f"{axis}_{value}".replace(".", "p")
        print(f"--- sweep {axis}={value}")
        summary = run_train(cfg, out / tag)
        label = "w/o CT" if axis == "alpha" and value == 0 else f"{axis}={value}"
        rows.append(
            {
                "axis": axis,
                "value": value,
                "label": label,
                "test_map": summary["test_map"],
                "localization": summary["localization"],
                "run_dir": summary["out_dir"],
            }
        )
    with open(out / "sweep_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "label", "test_map", "localization", "run_dir"])
        for row in rows:
            writer.writerow(
                [
                    row["axis"],
                    row["value"],
                    row["label"],
                    FLOAT_FMT.format(row["test_map"]),
                    FLOAT_FMT.format(row["localization"]),
                    row["run_dir"],
                ]
            )
    print(f"sweep summary -> {out / 'sweep_summary.csv'}")
    _write_effective_config(
        out,
        "sweep",
        {"base": dataclasses.asdict(base), "axes": axes},
    )
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args, "eval")
    params, extra = model_mod.load_checkpoint(args.checkpoint)
    samples = model_mod.load_dataset(args.dataset)
    loss_cfg = _loss_config(extra.get("config", {}))
    scores = model_mod.predict_batch(params, [s.patches for s in samples])
    labels = np.stack([s.y for s in samples])
    reports = [prf_suite(scores, labels), prf_suite(scores, labels, top_k=args.topk_eval)]
    for report in reports:
        row = report.as_row()
        print(
            " ".join(
                [f"regime={row['regime']}"]
                + [f"{k}={FLOAT_FMT.format(row[k])}" for k in ("mAP", "CP", "CR", "CF1", "OP", "OR", "OF1")]
            )
        )
    localization = model_mod.localization_report(params, samples, loss_cfg)
    print(
        f"localization {FLOAT_FMT.format(localization.fraction)} "
        f"({localization.n_localized}/{localization.n_correct} correctly classified)"
    )
    _write_metrics_csv(out / "metrics.csv", reports)
    _write_effective_config(
        out,
        "eval",
        {"checkpoint": args.checkpoint, "dataset": args.dataset, "topk_eval": args.topk_eval},
    )
    return 0


def cmd_export_plan(args) -> int:
    out = _out_dir(args, "export-plan")
    params, extra = model_mod.load_checkpoint(args.checkpoint)
    samples = model_mod.load_dataset(args.dataset)
    loss_cfg = _loss_config(extra.get("config", {}))
    if not 0 <= args.sample_index < len(samples):
        raise ConfigError(
            f"sample index {args.sample_index} outside 0..{len(samples) - 1}"
        )
    sample = samples[args.sample_index]
    if not 0 <= args.label_index < params.n_labels:
        raise ConfigError(
            f"label index {args.label_index} outside 0..{params.n_labels - 1}"
        )
    if sample.y[args.label_index] == 0:
        print(
            f"warning: label {args.label_index} is not in the sample's ground truth; "
            "exporting anyway"
        )
    enc = model_mod.encode(params, sample, loss_cfg)
    plan = backward_plan(
        enc.per_layer_patches[-1], enc.per_layer_labels[-1], params.navigator
    )
    grid = export_plan_grid(plan.coupling[:, args.label_index], args.target_size)
    path = out / f"plan_sample{args.sample_index}_label{args.label_index}.csv"
    _write_matrix_csv(path, grid)
    print(f"grid ({args.target_size}x{args.target_size}) -> {path}")
    _write_effective_config(
        out,
        "export-plan",
        {
            "checkpoint": args.checkpoint,
            "dataset": args.dataset,
            "sample_index": args.sample_index,
            "label_index": args.label_index,
            "target_size": args.target_size,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctalign",
        description="Bidirectional conditional-transport alignment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output directory (default: runs/<command>)")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--config", help="JSON config file; unknown keys are rejected")
        p.add_argument(
            "--mode",
            action="append",
            metavar="KEY=VALUE",
            help="beta=masked|literal or topk=sparse|binary (repeatable)",
        )

    p = sub.add_parser("distance", help="divergence between two embedding files")
    p.add_argument("source", help="source embedding JSON (patches)")
    p.add_argument("target", help="target embedding JSON (labels)")
    p.add_argument("--tau", type=float, default=1.0, help="navigator temperature")
    p.add_argument("--epsilon", type=float, default=0.05, help="Sinkhorn regularizer")
    p.add_argument("--sinkhorn", action="store_true", help="also run the OT baseline")
    p.add_argument("--plans", action="store_true", help="write both plans as CSV")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("train", help="train on the synthetic bench")
    add_common(p)
    p.add_argument("--alpha", type=float, default=None, help="transport-term weight")
    p.add_argument("--start-layer", type=int, default=None, help="first aligned layer")
    p.add_argument("--topk", type=int, default=None, help="patch budget per sample")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="axis sweeps over alpha, start layer, or top-k")
    add_common(p)
    p.add_argument("--alpha", help="comma-separated alpha values")
    p.add_argument("--start-layer", help="comma-separated start layers")
    p.add_argument("--topk", help="comma-separated patch budgets")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--topk-eval", type=int, default=3, help="top-k decision rule")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-plan", help="export one backward-plan column as a grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sample-index", type=int, required=True)
    p.add_argument("--label-index", type=int, required=True)
    p.add_argument("--target-size", type=int, default=8)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_export_plan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CTAlignError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
