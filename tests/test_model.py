import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from ctalign import autodiff as ad
from ctalign import model as model_mod
from ctalign.distributions import build_beta, build_theta, theta_with_partial
from ctalign.errors import ConfigError, DegenerateVectorError, ParseError, ShapeError
from ctalign.losses import LossConfig
from ctalign.model import (
    BACKGROUND,
    EpochStats,
    SyntheticSample,
    ToyModelParams,
    TrainConfig,
    assign_parameters,
    encode,
    flatten_parameters,
    generate_dataset,
    init_params,
    load_checkpoint,
    load_dataset,
    localization_report,
    predict,
    save_checkpoint,
    save_dataset,
    train,
    write_trace_csv,
)
from ctalign.numerics import grad_check


class TestGenerateDataset:
    def test_sigma_zero_repeats_prototypes_exactly(self):
        samples = generate_dataset(4, 8, 10, 40, 0.0, seed=3)
        by_label: dict[int, np.ndarray] = {}
        for s in samples:
            for i, lab in enumerate(s.assignment):
                if lab == BACKGROUND:
                    continue
                col = s.patches[:, i]
                if lab in by_label:
                    assert np.array_equal(col, by_label[lab])
                else:
                    by_label[lab] = col
        assert set(by_label) == {0, 1, 2, 3}
        for col in by_label.values():
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)

    def test_background_orthogonal_to_prototypes(self):
        samples = generate_dataset(4, 12, 10, 20, 0.0, seed=4)
        protos = {}
        for s in samples:
            for i, lab in enumerate(s.assignment):
                if lab != BACKGROUND:
                    protos[int(lab)] = s.patches[:, i]
        for s in samples:
            for i, lab in enumerate(s.assignment):
                if lab != BACKGROUND:
                    continue
                for proto in protos.values():
                    assert abs(s.patches[:, i] @ proto) <= 1e-12

    def test_deterministic_under_seed(self):
        a = generate_dataset(5, 10, 12, 30, 0.3, seed=9)
        b = generate_dataset(5, 10, 12, 30, 0.3, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.patches, sb.patches)
            assert np.array_equal(sa.y, sb.y)
            assert np.array_equal(sa.assignment, sb.assignment)
        c = generate_dataset(5, 10, 12, 30, 0.3, seed=10)
        assert not np.array_equal(a[0].patches, c[0].patches)

    def test_every_label_covered(self):
        samples = generate_dataset(4, 8, 10, 100, 0.3, seed=1)
        seen = np.zeros(4, dtype=bool)
        for s in samples:
            seen |= s.y.astype(bool)
        assert seen.all()

    def test_label_cardinality_and_patch_counts(self):
        samples = generate_dataset(6, 16, 16, 50, 0.3, seed=2)
        for s in samples:
            card = int(s.y.sum())
            assert 1 <= card <= 3
            for lab in np.flatnonzero(s.y):
                owned = int((s.assignment == lab).sum())
                assert 2 <= owned <= 4
            # labels outside y own nothing
            for lab in np.flatnonzero(s.y == 0):
                assert (s.assignment != lab).all()

    def test_rejects_bad_configs(self):
        with pytest.raises(ConfigError):
            generate_dataset(1, 4, 4, 10, 0.1, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(5, 4, 3, 10, 0.1, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(3, 4, 4, 10, -0.5, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(6, 4, 6, 1, 0.1, seed=0)


def aligned_toy_model(dim=6, n_labels=4) -> ToyModelParams:
    """Trunk reduced to sphere projection, label table pinned to basis axes.

    With zero residual blocks and the zero-initialized head correction, the
    forward pass is analytic: patches are rescaled to radius sqrt(dim), the
    label frame is sqrt(dim) times the first n_labels basis vectors, and the
    feature is the patch mean.
    """
    params = init_params(n_labels=n_labels, dim=dim, depth=1, seed=0)
    for layer in params.encoder_layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    params.label_table[...] = np.eye(dim)[:, :n_labels]
    return params


def axis_sample(dim=6) -> SyntheticSample:
    eye = np.eye(dim)
    patches = np.stack([eye[0], eye[1], eye[4], eye[5]], axis=1)
    return SyntheticSample(
        patches, np.array([1, 1, 0, 0]), np.array([0, 1, BACKGROUND, BACKGROUND])
    )


class TestEncode:
    def test_feature_is_mean_of_normalized_patches(self):
        params = aligned_toy_model()
        sample = axis_sample()
        enc = encode(params, sample)
        expected = (sample.patches * math.sqrt(6)).mean(axis=1)
        assert np.array_equal(enc.global_feature, expected)

    def test_probabilities_match_hand_computation(self):
        # true-label logits are sqrt(6)*sqrt(6)/4 = 1.5, false ones exactly 0
        params = aligned_toy_model()
        enc = encode(params, axis_sample())
        s = 1.0 / (1.0 + math.exp(-1.5))
        assert np.allclose(enc.probabilities, [s, s, 0.5, 0.5], atol=1e-9)

    def test_probabilities_in_open_interval(self):
        params = init_params(n_labels=3, dim=6, depth=2, seed=5)
        samples = generate_dataset(3, 6, 8, 12, 0.3, seed=5)
        enc = encode(params, samples[0])
        assert ((enc.probabilities > 0) & (enc.probabilities < 1)).all()

    def test_theta_support_respects_top_k(self):
        params = init_params(n_labels=3, dim=6, depth=2, seed=6)
        samples = generate_dataset(3, 6, 8, 12, 0.3, seed=6)
        enc = encode(params, samples[0], LossConfig(top_k=2))
        for ps in enc.per_layer_patches:
            assert (ps.weights > 0).sum() == 2
            assert abs(ps.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("topk_mode", ["sparse", "binary"])
    def test_patch_weights_are_build_theta_on_own_supports(self, topk_mode):
        params = init_params(n_labels=3, dim=6, depth=2, seed=9)
        sample = generate_dataset(3, 6, 8, 12, 0.3, seed=9)[0]
        enc = encode(params, sample, LossConfig(top_k=3, topk_mode=topk_mode))
        for patches, labels in zip(enc.per_layer_patches, enc.per_layer_labels):
            theta = build_theta(patches.support, labels.support, sample.y, 3, topk_mode)
            assert np.array_equal(patches.weights, theta)

    def test_beta_is_normalized_ground_truth(self):
        params = init_params(n_labels=4, dim=6, depth=1, seed=7)
        samples = generate_dataset(4, 6, 8, 12, 0.3, seed=7)
        sample = samples[0]
        enc = encode(params, sample)
        expected = sample.y / sample.y.sum()
        assert np.array_equal(enc.per_layer_labels[0].weights, expected)

    def test_layer_counts_match_depth(self):
        params = init_params(n_labels=3, dim=6, depth=3, seed=8)
        samples = generate_dataset(3, 6, 8, 12, 0.3, seed=8)
        enc = encode(params, samples[0])
        assert len(enc.per_layer_patches) == 3
        assert len(enc.per_layer_labels) == 3

    def test_wrong_patch_dimension_rejected(self):
        params = init_params(n_labels=3, dim=6, depth=1, seed=9)
        sample = SyntheticSample(
            np.ones((4, 5)), np.array([1, 0, 0]), np.full(5, BACKGROUND)
        )
        with pytest.raises(ShapeError):
            encode(params, sample)


class TestPredict:
    def test_deterministic_and_sized(self):
        params = init_params(n_labels=5, dim=8, depth=2, seed=10)
        patches = np.random.default_rng(0).normal(size=(8, 9))
        a = predict(params, patches)
        b = predict(params, patches)
        assert np.array_equal(a, b)
        assert a.shape == (5,)


    def test_empty_bag_rejected(self):
        params = init_params(n_labels=3, dim=4, depth=1, seed=12)
        empty = np.zeros((4, 0))
        with pytest.raises(ShapeError):
            predict(params, empty)
        with pytest.raises(ShapeError):
            encode(params, SyntheticSample(empty, np.array([1, 0, 0]), np.zeros(0, dtype=np.int64)))

    @pytest.mark.parametrize("zeroed", ["patch", "label-column"])
    def test_zero_norm_column_rejected(self, zeroed):
        params = init_params(n_labels=6, dim=16, depth=3)
        patches = np.random.default_rng(1).normal(size=(16, 16))
        if zeroed == "patch":
            patches[:, 3] = 0.0
        else:
            params.label_table[:, 2] = 0.0
        with pytest.raises(DegenerateVectorError):
            predict(params, patches)
        y = np.array([0, 0, 1, 0, 0, 0])
        with pytest.raises(DegenerateVectorError):
            encode(params, SyntheticSample(patches, y, np.full(16, BACKGROUND)))


def assert_node_partials(rng, build, inputs, tol=1e-7):
    """Check every input's partial of sum(weights * build(*tensors)) against
    central differences, for one random weighting of the node's output."""
    weights = rng.normal(size=build(*map(ad.Tensor, inputs)).shape)
    tensors = [ad.Tensor(v) for v in inputs]
    ad.backward(build(*tensors) * weights)
    for i, tensor in enumerate(tensors):

        def f(vec, i=i):
            args = [ad.Tensor(v) for v in inputs]
            args[i] = ad.Tensor(vec.reshape(inputs[i].shape))
            return float((build(*args).value * weights).sum())

        assert grad_check(f, lambda _x, t=tensor: t.grad.ravel(), inputs[i].ravel()) <= tol


SEEDS = pytest.mark.parametrize("seed", range(3))


class TestClosedFormNodes:
    """Each one-node formula of the forward pass on random shapes."""

    @SEEDS
    def test_residual(self, seed):
        rng = np.random.default_rng(seed)
        d, n = rng.integers(2, 7, size=2)
        inputs = [rng.normal(size=(d, n)), rng.normal(size=(d, d)), rng.normal(size=(d, 1))]
        assert_node_partials(rng, model_mod._residual, inputs)

    @SEEDS
    def test_normalize_columns(self, seed):
        rng = np.random.default_rng(seed)
        d, n = rng.integers(2, 7, size=2)
        radius = rng.uniform(0.5, 3.0)
        assert_node_partials(
            rng, lambda t: model_mod._normalize_columns(t, radius), [rng.normal(size=(d, n))]
        )

    @pytest.mark.parametrize("m", [3, 6], ids=["gram-schmidt", "m-above-d"])
    def test_label_frame(self, m):
        rng = np.random.default_rng(m)
        assert_node_partials(
            rng, lambda t: model_mod._orthonormal_columns(t, 2.0), [rng.normal(size=(4, m))]
        )

    @SEEDS
    def test_head(self, seed):
        rng = np.random.default_rng(seed)
        d, n, m, hh = rng.integers(2, 7, size=4)
        names = ("head.w1", "head.b1", "head.w2", "head.b2")

        def build(x, labels, *head):
            return model_mod._head(x, labels, dict(zip(names, head)))[0]

        shapes = [(d, n), (d, m), (hh, d), (hh, 1), (d, hh), (d, 1)]
        assert_node_partials(rng, build, [rng.normal(size=shape) for shape in shapes])

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_sparse_theta(self, k):
        # the top-k softmax weights live inside the transport node, which
        # passes their partials on to the patch and label embeddings
        rng = np.random.default_rng(k)
        y = np.array([1, 0, 1])
        yhat, beta = y / y.sum(), build_beta(y)
        e, l = rng.normal(size=(4, 8)), rng.normal(size=(4, 3))
        logits, theta, _ = theta_with_partial(e, l, yhat, k)
        assert np.isneginf(logits).sum() == 8 - k
        assert np.array_equal(theta, build_theta(e, l, y, k))

        def build(e, l, log_tau):
            weights = theta_with_partial(e.value, l.value, yhat, k)
            return model_mod._ct_node(e, l, weights, beta, log_tau)

        assert_node_partials(rng, build, [e, l, np.array([0.3])])


class TestLocalizationReport:
    def test_hand_constructed_counts(self):
        params = aligned_toy_model()
        good = axis_sample()
        # same bag, but ground truth claims label 0 sits on a background-axis
        # patch; the plan mass stays on patch 0, so this one must fail
        bad = SyntheticSample(
            good.patches, good.y, np.array([BACKGROUND, 1, BACKGROUND, 0])
        )
        report = localization_report(params, [good, bad])
        assert report.n_total == 2
        assert report.n_correct == 2
        assert report.n_localized == 1
        assert report.fraction == 0.5

    def test_mass_threshold_knob(self):
        params = aligned_toy_model()
        good = axis_sample()
        bad = SyntheticSample(
            good.patches, good.y, np.array([BACKGROUND, 1, BACKGROUND, 0])
        )
        loose = localization_report(params, [good, bad], mass_threshold=0.01)
        assert loose.fraction == 1.0

    def test_prob_threshold_knob(self):
        params = aligned_toy_model()
        strict = localization_report(params, [axis_sample()], prob_threshold=0.9)
        assert strict.n_correct == 0
        assert strict.fraction == 0.0


class TestTrain:
    @staticmethod
    def tiny_setup(seed=20, **cfg_kwargs):
        samples = generate_dataset(3, 6, 6, 12, 0.3, seed=seed)
        params = init_params(n_labels=3, dim=6, depth=2, seed=seed + 1)
        defaults = dict(epochs=3, batch_size=4, lct_warmup_epochs=1, seed=seed + 2)
        defaults.update(cfg_kwargs)
        return params, samples, TrainConfig(**defaults)

    def test_zero_learning_rate_is_bitwise_noop(self):
        params, samples, cfg = self.tiny_setup(learning_rate=0.0)
        before = flatten_parameters(params).copy()
        train(params, samples, cfg)
        assert np.array_equal(flatten_parameters(params), before)

    def test_same_seed_replays_bitwise(self):
        params_a, samples, cfg = self.tiny_setup()
        result_a = train(params_a, samples, cfg)
        params_b, _, _ = self.tiny_setup()
        result_b = train(params_b, samples, cfg)
        assert result_a.trace == result_b.trace
        assert np.array_equal(flatten_parameters(params_a), flatten_parameters(params_b))

    def test_trace_shape_and_val_map(self):
        params, samples, cfg = self.tiny_setup()
        result = train(params, samples, cfg, val_samples=samples[:4])
        assert [row.epoch for row in result.trace] == [1, 2, 3]
        assert all(0.0 <= row.val_map <= 1.0 for row in result.trace)
        params2, _, _ = self.tiny_setup()
        no_val = train(params2, samples, cfg)
        assert all(math.isnan(row.val_map) for row in no_val.trace)

    def test_val_scores_are_final_predictions(self):
        params, samples, cfg = self.tiny_setup()
        result = train(params, samples, cfg, val_samples=samples[:4])
        fresh = np.stack([predict(params, s.patches) for s in samples[:4]])
        assert np.array_equal(result.val_scores, fresh)
        assert train(params, samples, cfg).val_scores is None

    def test_updates_params_in_place(self):
        params, samples, cfg = self.tiny_setup()
        before = flatten_parameters(params).copy()
        result = train(params, samples, cfg)
        assert result.params is params
        assert not np.array_equal(flatten_parameters(params), before)

    def test_rejects_bad_inputs(self):
        params, samples, cfg = self.tiny_setup()
        with pytest.raises(ConfigError):
            train(params, [], cfg)
        with pytest.raises(ConfigError):
            train(params, samples, dataclasses.replace(cfg, epochs=0))
        with pytest.raises(ConfigError):
            train(params, samples, dataclasses.replace(cfg, lct_warmup_epochs=-1))


class TestReferenceRunQuality:
    def test_loss_strictly_decreases_over_first_five_epochs(self, default_run):
        with open(default_run.out_dir / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        totals = [float(r["total"]) for r in rows[:5]]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_true_labels_outrank_false_ones_on_held_out_data(self, default_run):
        params, _ = load_checkpoint(default_run.out_dir / "checkpoint.json")
        samples = load_dataset(default_run.out_dir / "dataset.json")
        test_set = samples[default_run.config.train_samples :]
        clean = 0
        for s in test_set:
            scores = predict(params, s.patches)
            worst_true = scores[s.y == 1].min()
            best_false = scores[s.y == 0].max() if (s.y == 0).any() else -np.inf
            clean += worst_true > best_false
        assert clean / len(test_set) >= 0.95

    def test_localization_property_holds_after_training(self, default_run):
        params, _ = load_checkpoint(default_run.out_dir / "checkpoint.json")
        samples = load_dataset(default_run.out_dir / "dataset.json")
        test_set = samples[default_run.config.train_samples :]
        report = localization_report(params, test_set)
        assert report.fraction == pytest.approx(default_run.summary["localization"])
        assert report.fraction >= 0.8


class TestParameterPlumbing:
    def test_flatten_assign_roundtrip(self):
        params = init_params(n_labels=3, dim=5, depth=2, seed=30)
        flat = flatten_parameters(params).copy()
        assign_parameters(params, flat * 2.0)
        assert np.array_equal(flatten_parameters(params), flat * 2.0)
        assign_parameters(params, flat)
        assert np.array_equal(flatten_parameters(params), flat)

    def test_assign_wrong_length_rejected(self):
        params = init_params(n_labels=3, dim=5, depth=2, seed=31)
        with pytest.raises(ShapeError):
            assign_parameters(params, np.zeros(3))

    def test_init_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            init_params(n_labels=0, dim=4)
        with pytest.raises(ConfigError):
            init_params(n_labels=2, dim=4, depth=0)


class TestSerialization:
    def test_dataset_roundtrip_exact(self, tmp_path):
        samples = generate_dataset(3, 6, 8, 10, 0.3, seed=40)
        path = tmp_path / "data.json"
        save_dataset(samples, path, meta={"note": "roundtrip"})
        loaded = load_dataset(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert np.array_equal(a.patches, b.patches)
            assert np.array_equal(a.y, b.y)
            assert a.y.dtype == b.y.dtype
            assert np.array_equal(a.assignment, b.assignment)

    def test_checkpoint_roundtrip_exact(self, tmp_path):
        params = init_params(n_labels=4, dim=6, depth=2, seed=41)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, extra={"alpha": 1.0})
        loaded, extra = load_checkpoint(path)
        assert extra == {"alpha": 1.0}
        assert np.array_equal(flatten_parameters(loaded), flatten_parameters(params))
        assert loaded.depth == params.depth

    def test_missing_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "nope.json")
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "nope.json")

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something.else"}')
        with pytest.raises(ParseError):
            load_checkpoint(path)
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_checkpoint(path)
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_unknown_arch_key_ignored(self, tmp_path):
        # checkpoints written before an arch field was dropped still load
        params = init_params(n_labels=3, dim=4, depth=1, seed=43)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["arch"]["retired_field"] = None
        path.write_text(json.dumps(payload))
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(flatten_parameters(loaded), flatten_parameters(params))

    def test_foreign_parameter_rejected(self, tmp_path):
        params = init_params(n_labels=3, dim=4, depth=1, seed=44)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["params"]["navigator.extra"] = {"shape": [1], "data": [0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_nonfinite_parameter_rejected(self, tmp_path):
        params = init_params(n_labels=3, dim=4, depth=1, seed=45)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["params"]["head.b1"]["data"][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="head.b1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage",
        [
            "assignment-cut",
            "assignment-out-of-range",
            "assignment-fractional",
            "labels-cut",
            "label-fractional",
        ],
    )
    def test_inconsistent_sample_rejected(self, tmp_path, damage):
        path = tmp_path / "data.json"
        save_dataset(generate_dataset(3, 6, 8, 10, 0.3, seed=46), path)
        payload = json.loads(path.read_text())
        item = payload["samples"][4]
        if damage == "assignment-cut":
            item["assignment"].pop()
        elif damage == "assignment-out-of-range":
            item["assignment"][0] = 3
        elif damage == "assignment-fractional":
            item["assignment"][0] = 0.5
        elif damage == "labels-cut":
            item["y"].pop()
        else:
            item["y"][0] = 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="sample 4"):
            load_dataset(path)

    def test_empty_dataset_save_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_dataset([], tmp_path / "data.json")

    def test_trace_csv_format(self, tmp_path):
        trace = [EpochStats(1, 0.5, 0.25, 0.25, 0.75), EpochStats(2, 0.4, 0.2, 0.2, 0.8)]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,total,lct,asl,val_map"
        assert lines[1] == "1,0.500000,0.250000,0.250000,0.750000"
        assert len(lines) == 3
