"""The three workloads: inputs from a seed, one closed-loop round of
operations, and the output checks that run after the timed window.

Each workload drives ctalign only through module attributes (``model.predict``,
``transport.ct_distance``, ...), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from pathlib import Path

import numpy as np

import reference
from ctalign import cli, distributions, losses, model, transport
from ctalign.errors import CTAlignError


class Train:
    """One ``cli.run_train`` call per round at the stock configuration, with
    epochs cut to one warmup epoch and one joint epoch."""

    name = "train"
    min_items = 0
    batch_checked = 10

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.cfg = cli.ExperimentConfig(seed=seed, epochs=2, lct_warmup_epochs=1)
        self.items_per_call = self.cfg.train_samples * self.cfg.epochs
        self.out_root = out_root
        self.runs: list[tuple[Path, dict]] = []

    def round(self, latencies: list[float], begin_request) -> tuple[int, int, int]:
        """One round of requests; ``begin_request`` is called as each starts.
        Returns (attempted, failed, items)."""
        begin_request()
        out_dir = self.out_root / f"call{len(self.runs)}"
        start = time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                summary = cli.run_train(self.cfg, out_dir)
        except CTAlignError:
            return 1, 1, 0
        latencies.append(time.process_time() - start)
        self.runs.append((out_dir, summary))
        return 1, 0, self.items_per_call

    def check(self) -> list[str]:
        problems = []
        for out_dir, summary in self.runs:
            problems += self._check_run(out_dir, summary)
        if self.runs:
            problems += self._check_gradient(self.runs[0][0])
        return problems

    def _check_run(self, out_dir: Path, summary: dict) -> list[str]:
        params = reference.read_checkpoint(out_dir / "checkpoint.json")
        meta, bags, labels = reference.read_dataset(out_dir / "dataset.json")
        split = int(meta["train_samples"])
        scores = np.stack([reference.forward_probabilities(params, bag) for bag in bags[split:]])
        test_labels = labels[split:]
        test_map = reference.mean_average_precision(scores, test_labels)
        prevalence = float(test_labels.mean())
        print(f"train: test mAP {test_map:.6f} by the reference, label prevalence {prevalence:.4f}")
        problems = []
        if abs(test_map - summary["test_map"]) > 1e-9:
            problems.append(f"train: reference mAP {test_map!r} != reported {summary['test_map']!r}")
        # chance-level mAP is about the prevalence; the stock model after two
        # epochs sits far above it, so this catches a broken fit, not a weak one
        if test_map < prevalence + 0.3:
            problems.append(f"train: mAP {test_map:.4f} not well above prevalence {prevalence:.4f}")
        with open(out_dir / "trace.csv", newline="", encoding="utf-8") as fh:
            asl = [float(row["asl"]) for row in csv.DictReader(fh)]
        if not asl[-1] < asl[0]:
            problems.append(f"train: asl did not fall ({asl[0]} -> {asl[-1]})")
        return problems

    def _check_gradient(self, out_dir: Path) -> list[str]:
        """Directional derivative of loss_gradients against central
        differences of batch_loss_value, on the first training batch."""
        params, _ = model.load_checkpoint(out_dir / "checkpoint.json")
        batch = model.load_dataset(out_dir / "dataset.json")[: self.batch_checked]
        cfg = losses.LossConfig(
            gamma_plus=self.cfg.gamma_plus,
            gamma_minus=self.cfg.gamma_minus,
            alpha=self.cfg.alpha,
            start_layer=self.cfg.start_layer,
        )
        bundle = losses.loss_gradients(params, batch, cfg)
        flat_grad = np.concatenate([bundle.partials[name].ravel() for name in model.parameter_arrays(params)])
        point = model.flatten_parameters(params)
        direction = np.random.default_rng(self.seed).normal(size=point.size)
        direction /= np.linalg.norm(direction)
        step = 1e-5
        values = []
        for sign in (1.0, -1.0):
            model.assign_parameters(params, point + sign * step * direction)
            values.append(model.batch_loss_value(params, batch, cfg))
        model.assign_parameters(params, point)
        analytic = float(flat_grad @ direction)
        central = (values[0] - values[1]) / (2.0 * step)
        if abs(analytic - central) > 1e-6 * max(1.0, abs(central)):
            return [f"train: directional derivative {analytic!r} vs central difference {central!r}"]
        return []


def _label_vectors(rng: np.random.Generator, count: int, n_labels: int, max_positive: int) -> np.ndarray:
    ys = np.zeros((count, n_labels), dtype=np.int64)
    for y in ys:
        y[rng.choice(n_labels, size=int(rng.integers(1, max_positive + 1)), replace=False)] = 1
    return ys


class Serve:
    """Closed-loop client, one request at a time: three ``predict`` requests
    then one explain request per round, on a pool of distinct 7x7 bags."""

    name = "serve"
    min_items = 1000
    n_labels, dim, depth, side = 20, 64, 3, 7
    pool = 1024
    grid = 14
    permuted_bags = 8

    def __init__(self, seed: int, out_root: Path):
        rng = np.random.default_rng(seed)
        n = self.side * self.side
        self.params = model.init_params(self.n_labels, self.dim, self.depth, seed=seed)
        protos = reference.unit_columns(rng.normal(size=(self.dim, self.n_labels)))
        self.labels = _label_vectors(rng, self.pool, self.n_labels, 3)
        self.bags = []
        self.explain_label = []
        for y in self.labels:
            bag = rng.normal(0.0, 1.0 / math.sqrt(self.dim), size=(self.dim, n))
            slots = rng.permutation(n)
            cursor = 0
            for lab in np.flatnonzero(y):
                owned = slots[cursor : cursor + int(rng.integers(2, 5))]
                bag[:, owned] = protos[:, [lab]] + rng.normal(0.0, 0.3, size=(self.dim, owned.size))
                cursor += owned.size
            self.bags.append(bag)
            self.explain_label.append(int(rng.choice(np.flatnonzero(y))))
        self.sent = 0
        self.predictions: list[tuple[int, np.ndarray]] = []
        self.explanations: list[tuple[int, np.ndarray, np.ndarray]] = []

    def round(self, latencies: list[float], begin_request) -> tuple[int, int, int]:
        failed = 0
        for slot in range(4):
            begin_request()
            i = self.sent % self.pool
            self.sent += 1
            try:
                if slot < 3:
                    start = time.process_time()
                    probs = model.predict(self.params, self.bags[i])
                    latencies.append(time.process_time() - start)
                    self.predictions.append((i, probs))
                else:
                    sample = model.SyntheticSample(self.bags[i], self.labels[i], np.full(self.bags[i].shape[1], -1))
                    start = time.process_time()
                    enc = model.encode(self.params, sample)
                    plan = transport.backward_plan(
                        enc.per_layer_patches[-1], enc.per_layer_labels[-1], self.params.navigator
                    )
                    grid = transport.export_plan_grid(plan.coupling[:, self.explain_label[i]], self.grid)
                    latencies.append(time.process_time() - start)
                    self.explanations.append((i, plan.coupling, grid))
            except CTAlignError:
                failed += 1
        return 4, failed, 4 - failed

    def check(self) -> list[str]:
        problems = []
        arrays = model.parameter_arrays(self.params)
        worst = 0.0
        for i, probs in self.predictions:
            worst = max(worst, float(np.abs(reference.forward_probabilities(arrays, self.bags[i]) - probs).max()))
            if not ((probs > 0.0) & (probs < 1.0)).all():
                problems.append(f"serve: bag {i} has a probability outside (0, 1)")
        if worst > 1e-9:
            problems.append(f"serve: predict differs from the reference forward pass by {worst:.3e}")
        perm = np.random.default_rng(0).permutation(self.side * self.side)
        for i in range(self.permuted_bags):
            drift = np.abs(model.predict(self.params, self.bags[i][:, perm]) - model.predict(self.params, self.bags[i]))
            if drift.max() > 1e-12:
                problems.append(f"serve: permuting bag {i}'s patches moved a probability by {drift.max():.3e}")
        for i, coupling, grid in self.explanations:
            beta = self.labels[i] / self.labels[i].sum()
            if np.abs(coupling.sum(axis=0) - beta).max() > 1e-12:
                problems.append(f"serve: explain plan for bag {i} has columns off beta")
            if grid.shape != (self.grid, self.grid) or grid.min() < 0.0 or grid.max() > 1.0:
                problems.append(f"serve: explain grid for bag {i} leaves [0, 1] or has shape {grid.shape}")
        return problems

class Align:
    """Closed-loop client calling the divergence directly: three items of
    196 patches (a 14x14 grid) x 512 dims, then one of 576 patches (24x24)
    x 768 dims per round, all against 80 labels."""

    name = "align"
    min_items = 1000
    n_labels = 80
    small_shape, large_shape = (512, 196), (768, 576)
    small_pool, large_pool, label_pool = 8, 4, 4096
    tau = 0.1
    # every seventh item is re-derived by the oracle; 7 is coprime to the
    # round length, so both item shapes are checked
    oracle_stride = 7

    def __init__(self, seed: int, out_root: Path):
        rng = np.random.default_rng(seed)
        self.tables = {}
        self.patches = {}
        for (dim, n), count in ((self.small_shape, self.small_pool), (self.large_shape, self.large_pool)):
            table = rng.normal(size=(dim, self.n_labels))
            sets = []
            for _ in range(count):
                emb = rng.normal(size=(dim, n))
                # a quarter of the patches show one label each, the rest are clutter
                shown = n // 4
                emb[:, :shown] += 3.0 * table[:, rng.integers(0, self.n_labels, shown)]
                sets.append(emb[:, rng.permutation(n)])
            self.tables[n] = table
            self.patches[n] = sets
        self.ys = _label_vectors(rng, self.label_pool, self.n_labels, 4)
        self.nav = transport.NavigatorParams(log_temperature=np.array([math.log(self.tau)]))
        self.sent = 0
        self.worst_marginal = 0.0
        self.worst_split = 0.0
        self.sampled: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float, float]] = []

    def _inputs(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        slot, r = k % 4, k // 4
        if slot == 3:
            n, idx = self.large_shape[1], r % self.large_pool
        else:
            n, idx = self.small_shape[1], (3 * r + slot) % self.small_pool
        return self.patches[n][idx], self.tables[n], self.ys[k % self.label_pool]

    def round(self, latencies: list[float], begin_request) -> tuple[int, int, int]:
        failed = 0
        for _ in range(4):
            begin_request()
            k = self.sent
            self.sent += 1
            emb, table, y = self._inputs(k)
            try:
                start = time.process_time()
                theta = distributions.build_theta(emb, table, y, distributions.default_top_k(emb.shape[1]))
                beta = distributions.build_beta(y)
                result = transport.ct_distance(
                    distributions.make_point_set(emb, theta), distributions.make_point_set(table, beta), self.nav
                )
                latencies.append(time.process_time() - start)
            except CTAlignError:
                failed += 1
                continue
            self.worst_marginal = max(
                self.worst_marginal,
                float(np.abs(result.forward.coupling.sum(axis=1) - theta).max()),
                float(np.abs(result.backward.coupling.sum(axis=0) - beta).max()),
            )
            self.worst_split = max(
                self.worst_split, abs(result.total - (result.forward_cost + result.backward_cost))
            )
            if k % self.oracle_stride == 0:
                self.sampled.append(
                    (emb, table, theta, beta, result.total, result.forward_cost, result.backward_cost)
                )
        return 4, failed, 4 - failed

    def check(self) -> list[str]:
        problems = []
        if self.worst_marginal > 1e-12:
            problems.append(f"align: plan marginals off the weights by {self.worst_marginal:.3e}")
        if self.worst_split > 0.0:
            problems.append(f"align: total differs from forward + backward by {self.worst_split:.3e}")
        worst_rel = 0.0
        for emb, table, theta, beta, total, fc, bc in self.sampled:
            o_total, o_fc, o_bc, cost, _, _ = reference.ct_oracle(emb, theta, table, beta, self.tau)
            for got, want in ((total, o_total), (fc, o_fc), (bc, o_bc)):
                worst_rel = max(worst_rel, abs(got - want) / abs(want))
            slack = 1e-12
            if not (theta @ cost.min(axis=1) - slack <= fc <= theta @ cost.max(axis=1) + slack):
                problems.append("align: forward cost outside its row-wise bounds")
            if not (beta @ cost.min(axis=0) - slack <= bc <= beta @ cost.max(axis=0) + slack):
                problems.append("align: backward cost outside its column-wise bounds")
        if worst_rel > 1e-9:
            problems.append(f"align: ct_distance differs from the oracle by {worst_rel:.3e} relative")
        return problems


WORKLOADS = {cls.name: cls for cls in (Train, Serve, Align)}
