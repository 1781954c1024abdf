"""Shared fixtures and point-set helpers.

The two session-scoped reference runs (stock config, and the same config
with the transport term disabled) take about half a minute each, so every test
that needs a trained model reads their artifacts instead of fitting its own.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ctalign import cli
from ctalign.distributions import DiscretePointSet, make_point_set

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def random_simplex(rng: np.random.Generator, n: int, floor: float = 1e-3) -> np.ndarray:
    v = rng.random(n) + floor
    return v / v.sum()


def random_point_sets(
    rng: np.random.Generator, n: int, m: int, d: int
) -> tuple[DiscretePointSet, DiscretePointSet]:
    p = make_point_set(rng.normal(size=(d, n)), random_simplex(rng, n))
    q = make_point_set(rng.normal(size=(d, m)), random_simplex(rng, m))
    return p, q


@dataclasses.dataclass(frozen=True)
class ReferenceRun:
    out_dir: Path
    summary: dict
    elapsed: float
    config: cli.ExperimentConfig


def _timed_run(cfg: cli.ExperimentConfig, out_dir: Path) -> ReferenceRun:
    t0 = time.perf_counter()
    summary = cli.run_train(cfg, out_dir)
    return ReferenceRun(out_dir, summary, time.perf_counter() - t0, cfg)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory) -> ReferenceRun:
    """Stock config, transport term on."""
    return _timed_run(cli.ExperimentConfig(), tmp_path_factory.mktemp("run-alpha1"))


@pytest.fixture(scope="session")
def ablation_run(tmp_path_factory) -> ReferenceRun:
    """Stock config with the transport term off."""
    cfg = dataclasses.replace(cli.ExperimentConfig(), alpha=0.0)
    return _timed_run(cfg, tmp_path_factory.mktemp("run-alpha0"))
