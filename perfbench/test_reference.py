"""Tests for the benchmark's own reference code.

    python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
from ctalign import model, transport  # noqa: E402
from ctalign.distributions import make_point_set  # noqa: E402


def test_average_precision_hand_worked():
    # positives ranked 1st and 3rd: (1/1 + 2/3) / 2
    assert reference.average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5 / 6, abs=1e-15)
    # a tie goes to the lower index, so the positive at index 1 ranks 2nd:
    # (1/2 + 2/3) / 2
    assert reference.average_precision([0.5, 0.5, 0.2], [0, 1, 1]) == pytest.approx(7 / 12, abs=1e-15)


def test_mean_average_precision_skips_classes_without_positives():
    scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.8, 0.4]])
    labels = np.array([[1, 0, 0], [0, 1, 0]])
    assert reference.mean_average_precision(scores, labels) == 1.0


@pytest.mark.parametrize("n_labels, dim", [(3, 4), (5, 3)])
def test_forward_pass_matches_predict(n_labels, dim):
    # the second case has more labels than dimensions, where the label frame
    # is only normalised
    rng = np.random.default_rng(0)
    params = model.init_params(n_labels, dim, depth=2, seed=1)
    arrays = model.parameter_arrays(params)
    for arr in arrays.values():
        arr += rng.normal(0.0, 0.3, arr.shape)
    bag = rng.normal(size=(dim, 4))
    got = reference.forward_probabilities(arrays, bag)
    np.testing.assert_allclose(got, model.predict(params, bag), rtol=0, atol=1e-12)


def test_oracle_two_point_value():
    eye = np.eye(2)
    half = np.array([0.5, 0.5])
    total, fc, bc, _, _, _ = reference.ct_oracle(eye, half, eye, half, 1.0)
    assert abs(total - 0.537883) <= 1e-6
    assert fc == pytest.approx(bc, rel=1e-15)


def test_oracle_matches_ct_distance_with_masked_weights():
    rng = np.random.default_rng(3)
    p_support, q_support = rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
    theta = np.array([0.5, 0.0, 0.25, 0.25, 0.0])
    beta = np.array([0.0, 0.5, 0.5, 0.0])
    tau = 0.3
    nav = transport.NavigatorParams(log_temperature=np.array([math.log(tau)]))
    want = transport.ct_distance(make_point_set(p_support, theta), make_point_set(q_support, beta), nav)
    total, fc, bc, _, fwd, bwd = reference.ct_oracle(p_support, theta, q_support, beta, tau)
    assert (total, fc, bc) == pytest.approx((want.total, want.forward_cost, want.backward_cost), rel=1e-12)
    np.testing.assert_allclose(fwd, want.forward.coupling, atol=1e-15)
    np.testing.assert_allclose(bwd, want.backward.coupling, atol=1e-15)


def test_nearest_rank_percentiles():
    values = list(range(1000, 0, -1))
    assert reference.nearest_rank(values, 50) == 500
    p99 = reference.nearest_rank(values, 99)
    assert p99 == 990
    assert sum(v > p99 for v in values) == 10
    assert reference.nearest_rank([7.0], 99) == 7.0
    assert reference.nearest_rank([1, 2], 50) == 1
    with pytest.raises(ValueError):
        reference.nearest_rank([], 50)
