"""End-to-end command tests driven through cli.main with in-process argv."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from ctalign import model as model_mod
from ctalign.cli import ExperimentConfig, _config_from_sources, main, run_train


def write_embedding(path: Path, points, weights=None) -> None:
    """points is a list of rows, one point each; the file stores them row-major."""
    payload = {
        "dim": len(points[0]),
        "count": len(points),
        "data": [float(v) for row in points for v in row],
    }
    if weights is not None:
        payload["weights"] = [float(w) for w in weights]
    path.write_text(json.dumps(payload), encoding="utf-8")


def write_checkpoint_variant(run_dir: Path, tmp_path: Path, mutate) -> Path:
    """A copy of run_dir's checkpoint with mutate applied to its payload."""
    payload = json.loads((run_dir / "checkpoint.json").read_text())
    mutate(payload)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    return path


def unreachable(*_args, **_kwargs):
    raise AssertionError("a sample was scored")


# a checkpoint whose stored config is unreadable fails before any sample is scored
BAD_STORED_CONFIG = pytest.mark.parametrize(
    ("mutate", "code", "error"),
    [
        (lambda p: p.update(extra=[1]), 2, "ParseError"),
        (lambda p: p["extra"].update(config="x"), 2, "ParseError"),
        (lambda p: p["extra"]["config"].update(top_k="3"), 4, "ConfigError"),
    ],
    ids=["extra-not-object", "config-not-object", "top-k-as-str"],
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Small but real training run whose artifacts feed eval / export tests."""
    out = tmp_path_factory.mktemp("cli-tiny") / "run"
    cfg = ExperimentConfig(
        n_labels=4,
        feature_dim=8,
        n_patches=9,
        train_samples=40,
        test_samples=20,
        epochs=3,
        lct_warmup_epochs=2,
        seed=11,
    )
    summary = run_train(cfg, out)
    return cfg, out, summary


class TestDistance:
    def test_identical_single_points_give_zero(self, tmp_path, capsys):
        src, tgt = tmp_path / "a.json", tmp_path / "b.json"
        write_embedding(src, [[1.0, 0.0]])
        write_embedding(tgt, [[1.0, 0.0]])
        code = main(["distance", str(src), str(tgt), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ct_total 0.000000" in out
        # both files omit weights, so the command announces the uniform fill
        assert out.count("weights missing, using uniform") == 2

    def test_symmetric_orthonormal_pair(self, tmp_path, capsys):
        src, tgt = tmp_path / "a.json", tmp_path / "b.json"
        write_embedding(src, [[1.0, 0.0], [0.0, 1.0]], weights=[0.5, 0.5])
        write_embedding(tgt, [[1.0, 0.0], [0.0, 1.0]], weights=[0.5, 0.5])
        out_dir = tmp_path / "out"
        code = main(["distance", str(src), str(tgt), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ct_total 0.537883" in out
        assert "ct_forward 0.268941" in out
        assert "ct_backward 0.268941" in out
        report = json.loads((out_dir / "distance_report.json").read_text())
        assert report["ct_total"] == pytest.approx(0.537883, abs=1e-6)

    def test_sinkhorn_and_plan_flags(self, tmp_path, capsys):
        src, tgt = tmp_path / "a.json", tmp_path / "b.json"
        write_embedding(src, [[1.0, 0.0], [0.0, 1.0]], weights=[0.5, 0.5])
        write_embedding(tgt, [[1.0, 0.0], [0.0, 1.0]], weights=[0.5, 0.5])
        out_dir = tmp_path / "out"
        code = main(
            ["distance", str(src), str(tgt), "--out", str(out_dir), "--sinkhorn", "--plans"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sinkhorn_cost" in out
        forward = (out_dir / "forward_plan.csv").read_text().splitlines()
        assert forward[0] == "0.365529,0.134471"
        assert forward[1] == "0.134471,0.365529"
        assert (out_dir / "backward_plan.csv").exists()
        report = json.loads((out_dir / "distance_report.json").read_text())
        assert report["sinkhorn"]["converged"] is True

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        src.write_text("{not json", encoding="utf-8")
        tgt = tmp_path / "b.json"
        write_embedding(tgt, [[1.0, 0.0]])
        code = main(["distance", str(src), str(tgt), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        src, tgt = tmp_path / "a.json", tmp_path / "b.json"
        write_embedding(src, [[1.0, 0.0]])
        write_embedding(tgt, [[1.0, 0.0, 0.0]])
        code = main(["distance", str(src), str(tgt), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "ShapeError" in capsys.readouterr().err

    def test_data_length_mismatch_exits_2(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        src.write_text(json.dumps({"dim": 2, "count": 2, "data": [1.0, 0.0, 0.0]}))
        tgt = tmp_path / "b.json"
        write_embedding(tgt, [[1.0, 0.0]])
        code = main(["distance", str(src), str(tgt), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 2, "count": 0, "data": []},
            {"dim": 0, "count": 2, "data": []},
            {"dim": -2, "count": -1, "data": [1.0, 0.0]},
        ],
        ids=["zero-count", "zero-dim", "negative-dim-and-count"],
    )
    def test_empty_or_negative_shape_exits_2(self, tmp_path, capsys, payload):
        src, tgt = tmp_path / "a.json", tmp_path / "b.json"
        src.write_text(json.dumps(payload))
        write_embedding(tgt, [[1.0, 0.0]])
        code = main(["distance", str(src), str(tgt), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_weight_count_mismatch_exits_2(self, tmp_path):
        src, tgt = tmp_path / "a.json", tmp_path / "b.json"
        write_embedding(src, [[1.0, 0.0], [0.0, 1.0]], weights=[1.0])
        write_embedding(tgt, [[1.0, 0.0]])
        code = main(["distance", str(src), str(tgt), "--out", str(tmp_path / "out")])
        assert code == 2


class TestTrainCommand:
    def test_run_writes_all_artifacts(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "n_labels": 4,
                    "feature_dim": 8,
                    "n_patches": 9,
                    "train_samples": 30,
                    "test_samples": 10,
                    "epochs": 2,
                    "lct_warmup_epochs": 1,
                    "seed": 7,
                }
            )
        )
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_file), "--alpha", "0.5", "--out", str(out)])
        assert code == 0
        for name in (
            "checkpoint.json",
            "dataset.json",
            "trace.csv",
            "metrics.csv",
            "effective_config.json",
        ):
            assert (out / name).exists(), name
        echoed = json.loads((out / "effective_config.json").read_text())
        assert echoed["command"] == "train"
        assert echoed["alpha"] == 0.5  # CLI override wins over the file
        assert echoed["epochs"] == 2
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,total,lct,asl,val_map"
        assert len(trace) == 3
        assert "test mAP" in capsys.readouterr().out

    def test_unknown_config_key_exits_4(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "ConfigError" in capsys.readouterr().err

    def test_config_file_invalid_json_exits_2(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2,")
        code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_mode_exits_4(self, tmp_path):
        code = main(["train", "--mode", "banana", "--out", str(tmp_path / "out")])
        assert code == 4

    def test_unknown_mode_value_exits_4(self, tmp_path):
        code = main(["train", "--mode", "beta=weird", "--out", str(tmp_path / "out")])
        assert code == 4

    def test_eval_top_k_below_one_exits_4_before_fit(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"eval_top_k": 0}))
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_file), "--out", str(out)])
        assert code == 4
        assert "eval_top_k" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "values",
        [
            {"epochs": "2"},
            {"epochs": 2.0},
            {"seed": True},
            {"alpha": "1"},
            {"top_k": 2.5},
            {"beta_mode": 1},
        ],
        ids=["int-as-str", "int-as-float", "int-as-bool", "float-as-str", "top-k-float", "str-as-int"],
    )
    def test_mistyped_config_value_exits_4_before_data(self, tmp_path, capsys, values):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"train_samples": 20, "test_samples": 10, **values}))
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_file), "--out", str(out)])
        assert code == 4
        assert next(iter(values)) in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    def test_config_accepts_every_default_and_int_for_float(self):
        # the defaults hold one value of every field type, top_k's null included
        assert _config_from_sources(dataclasses.asdict(ExperimentConfig()), {}) == ExperimentConfig()
        cfg = _config_from_sources({"alpha": 1, "top_k": 3}, {})
        assert cfg.alpha == 1 and cfg.top_k == 3


class TestEvalCommand:
    def test_eval_reports_both_regimes(self, tiny_run, tmp_path, capsys):
        _, run_dir, _ = tiny_run
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--topk-eval",
                "2",
                "--out",
                str(out),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "regime=all" in printed
        assert "regime=top2" in printed
        assert "localization" in printed
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["regime"] for r in rows] == ["all", "top2"]
        for row in rows:
            assert 0.0 <= float(row["mAP"]) <= 1.0

    def test_missing_checkpoint_exits_2(self, tiny_run, tmp_path, capsys):
        _, run_dir, _ = tiny_run
        code = main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "nope.json"),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--out",
                str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_zero_patch_exits_8(self, tmp_path, capsys):
        ckpt, data = tmp_path / "ckpt.json", tmp_path / "data.json"
        model_mod.save_checkpoint(model_mod.init_params(6, 16, 3), ckpt)
        samples = model_mod.generate_dataset(6, 16, 16, 4, 0.3, seed=3)
        samples[1].patches[:, 5] = 0.0
        model_mod.save_dataset(samples, data)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(tmp_path / "eval")]
        )
        assert code == 8
        assert "DegenerateVectorError" in capsys.readouterr().err

    def test_nonfinite_checkpoint_exits_2(self, tiny_run, tmp_path, capsys):
        _, run_dir, _ = tiny_run
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        payload["params"]["head.b1"]["data"][0] = float("nan")
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(payload))
        code = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--out",
                str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "head.b1" in capsys.readouterr().err

    def eval_args(self, run_dir, tmp_path, dataset=None):
        return [
            "eval",
            "--checkpoint",
            str(run_dir / "checkpoint.json"),
            "--dataset",
            str(dataset or run_dir / "dataset.json"),
            "--out",
            str(tmp_path / "eval"),
        ]

    def test_truncated_assignment_exits_2(self, tiny_run, tmp_path, capsys):
        _, run_dir, _ = tiny_run
        payload = json.loads((run_dir / "dataset.json").read_text())
        for item in payload["samples"]:
            item["assignment"].pop()
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        assert main(self.eval_args(run_dir, tmp_path, data)) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_topk_eval_zero_exits_4(self, tiny_run, tmp_path, capsys):
        _, run_dir, _ = tiny_run
        assert main(self.eval_args(run_dir, tmp_path) + ["--topk-eval", "0"]) == 4
        assert "ConfigError" in capsys.readouterr().err

    @BAD_STORED_CONFIG
    def test_bad_stored_config_exits_before_scoring(
        self, tiny_run, tmp_path, capsys, monkeypatch, mutate, code, error
    ):
        _, run_dir, _ = tiny_run
        ckpt = write_checkpoint_variant(run_dir, tmp_path, mutate)
        monkeypatch.setattr(model_mod, "predict", unreachable)
        args = ["eval", "--checkpoint", str(ckpt), "--dataset", str(run_dir / "dataset.json")]
        assert main(args + ["--out", str(tmp_path / "eval")]) == code
        assert error in capsys.readouterr().err


class TestExportPlan:
    def test_export_writes_resampled_grid(self, tiny_run, tmp_path, capsys):
        _, run_dir, _ = tiny_run
        out = tmp_path / "plan"
        samples = model_mod.load_dataset(run_dir / "dataset.json")
        label = int(np.argmax(samples[0].y))
        code = main(
            [
                "export-plan",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--sample-index",
                "0",
                "--label-index",
                str(label),
                "--target-size",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        grid = np.loadtxt(out / f"plan_sample0_label{label}.csv", delimiter=",")
        assert grid.shape == (6, 6)
        assert (grid >= 0).all()
        assert "grid (6x6)" in capsys.readouterr().out

    def test_sample_index_out_of_range_exits_4(self, tiny_run, tmp_path):
        _, run_dir, _ = tiny_run
        code = main(
            [
                "export-plan",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--sample-index",
                "100000",
                "--label-index",
                "0",
                "--out",
                str(tmp_path / "plan"),
            ]
        )
        assert code == 4

    def test_label_index_out_of_range_exits_4(self, tiny_run, tmp_path):
        _, run_dir, _ = tiny_run
        code = main(
            [
                "export-plan",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--sample-index",
                "0",
                "--label-index",
                "99",
                "--out",
                str(tmp_path / "plan"),
            ]
        )
        assert code == 4

    @BAD_STORED_CONFIG
    def test_bad_stored_config_exits_before_scoring(
        self, tiny_run, tmp_path, capsys, monkeypatch, mutate, code, error
    ):
        _, run_dir, _ = tiny_run
        ckpt = write_checkpoint_variant(run_dir, tmp_path, mutate)
        monkeypatch.setattr(model_mod, "encode", unreachable)
        args = ["export-plan", "--checkpoint", str(ckpt), "--dataset", str(run_dir / "dataset.json")]
        args += ["--sample-index", "0", "--label-index", "0", "--out", str(tmp_path / "plan")]
        assert main(args) == code
        assert error in capsys.readouterr().err

    def test_non_square_patch_count_exits_5(self, tmp_path, capsys):
        # 8 patches cannot form a square grid; no training needed to hit this
        samples = model_mod.generate_dataset(
            n_labels=4, feature_dim=8, n_patches=8, n_samples=12, noise_sigma=0.3, seed=5
        )
        params = model_mod.init_params(n_labels=4, dim=8, depth=2, head_hidden=8, seed=5)
        ckpt, ds = tmp_path / "ckpt.json", tmp_path / "data.json"
        model_mod.save_checkpoint(params, ckpt)
        model_mod.save_dataset(samples, ds)
        code = main(
            [
                "export-plan",
                "--checkpoint",
                str(ckpt),
                "--dataset",
                str(ds),
                "--sample-index",
                "0",
                "--label-index",
                "0",
                "--target-size",
                "4",
                "--out",
                str(tmp_path / "plan"),
            ]
        )
        assert code == 5
        assert "GridError" in capsys.readouterr().err

    def test_grid_argmax_lands_on_owning_patch(self, default_run, tmp_path):
        """At target size == grid side the export is a straight reshape, so the
        heaviest cell must be a patch the exported label actually owns."""
        run_dir = default_run.out_dir
        samples = model_mod.load_dataset(run_dir / "dataset.json")
        sample = samples[500]  # first held-out sample
        label = int(np.argmax(sample.y))
        out = tmp_path / "plan"
        code = main(
            [
                "export-plan",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--dataset",
                str(run_dir / "dataset.json"),
                "--sample-index",
                "500",
                "--label-index",
                str(label),
                "--target-size",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        grid = np.loadtxt(out / f"plan_sample500_label{label}.csv", delimiter=",")
        patch = int(np.argmax(grid.ravel()))
        assert sample.assignment[patch] == label


class TestSweep:
    def test_alpha_sweep_summary(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "n_labels": 4,
                    "feature_dim": 8,
                    "n_patches": 9,
                    "train_samples": 30,
                    "test_samples": 10,
                    "epochs": 2,
                    "lct_warmup_epochs": 1,
                    "seed": 7,
                }
            )
        )
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(cfg_file), "--alpha", "0,1", "--out", str(out)]
        )
        assert code == 0
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["label"] == "w/o CT"
        assert rows[1]["label"] == "alpha=1.0"
        assert {r["axis"] for r in rows} == {"alpha"}
        for row in rows:
            assert (Path(row["run_dir"]) / "checkpoint.json").exists()
        assert "sweep summary" in capsys.readouterr().out

    def test_sweep_without_axes_exits_4(self, tmp_path):
        code = main(["sweep", "--out", str(tmp_path / "sweep")])
        assert code == 4

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "x"], ["--start-layer", "1.5"], ["--topk", "2,two"]],
        ids=["alpha", "start-layer", "topk"],
    )
    def test_unparseable_list_exits_4_naming_the_flag(self, tmp_path, capsys, flags):
        assert main(["sweep", *flags, "--out", str(tmp_path / "sweep")]) == 4
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "0", "--topk", "0"], ["--alpha", "0", "--start-layer", "0"]],
        ids=["topk-0", "start-layer-0"],
    )
    def test_bad_swept_value_exits_4_before_the_first_run(self, tmp_path, capsys, flags):
        out = tmp_path / "sweep"
        assert main(["sweep", *flags, "--out", str(out)]) == 4
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()
