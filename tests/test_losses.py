"""Loss values and analytic gradients against closed forms and finite
differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxpick import losses
from voxpick.distance_field import clearance_band, compute_edt
from voxpick.oracles import finite_difference_gradient, gradient_max_rel_error
from voxpick.scene import GridBounds, OccupancyGrid


def _line(n=10, step=0.5):
    P = np.zeros((n, 3))
    P[:, 0] = step * np.arange(n)
    return P


def test_length_on_uniform_line():
    value, grad = losses.loss_length(_line(10, 0.5))
    assert value == pytest.approx(9 * 0.25)
    # interior points of a straight uniform line feel no pull
    np.testing.assert_allclose(grad[1:-1], 0.0, atol=1e-12)


def test_acc_and_curv_vanish_on_straight_lines():
    P = _line(12, 0.3)
    for fn in (losses.loss_acc, lambda Q: losses.loss_curv(Q, 1e-6)):
        value, grad = fn(P)
        assert value == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_degenerate_lengths_return_zero():
    for P in (np.zeros((0, 3)), np.zeros((1, 3)), np.zeros((2, 3))):
        assert losses.loss_acc(P)[0] == 0.0
        assert losses.loss_curv(P)[0] == 0.0
    assert losses.loss_length(np.zeros((1, 3)))[0] == 0.0


paths = arrays(
    np.float64,
    (8, 3),
    elements=st.floats(-5.0, 5.0, allow_nan=False, width=64),
)


@settings(max_examples=40, deadline=None)
@given(paths, st.floats(-10.0, 10.0))
def test_losses_are_translation_invariant(P, shift):
    moved = P + shift
    assert losses.loss_length(moved)[0] == pytest.approx(
        losses.loss_length(P)[0], rel=1e-9, abs=1e-9
    )
    assert losses.loss_acc(moved)[0] == pytest.approx(
        losses.loss_acc(P)[0], rel=1e-9, abs=1e-9
    )
    assert losses.loss_curv(moved)[0] == pytest.approx(
        losses.loss_curv(P)[0], rel=1e-6, abs=1e-9
    )


@pytest.mark.parametrize(
    "fn",
    [
        losses.loss_length,
        losses.loss_acc,
        lambda P: losses.loss_curv(P, 1e-6),
    ],
    ids=["length", "acc", "curv"],
)
def test_smoothness_gradients_match_finite_differences(fn, rng):
    for _ in range(10):
        P = rng.uniform(-1.0, 1.0, size=(15, 3))
        _, grad = fn(P)
        num = finite_difference_gradient(lambda Q: fn(Q)[0], P, h=1e-6)
        assert gradient_max_rel_error(grad, num) < 1e-4


def _field(rng):
    occ = rng.random((10, 10, 10)) < 0.2
    occ[5, 5, 5] = True
    grid = OccupancyGrid((10, 10, 10), GridBounds((0.0, 0.0, 0.0), 0.1), occ)
    return grid, compute_edt(grid, clearance_band(grid, math.inf))


def test_collision_zero_when_clear(rng):
    grid, fld = _field(rng)
    far = fld.distance.max()
    # pick waypoints at lattice maxima; a tiny d_safe can't touch them
    value, grad = losses.loss_col(np.array([[0.05, 0.05, 0.05]]), fld, d_safe=0.0)
    assert value == 0.0
    np.testing.assert_array_equal(grad, 0.0)
    assert far > 0


def test_collision_hinge_value(rng):
    grid, fld = _field(rng)
    P = grid.min_corner + (np.array([[5, 5, 5]]) + 0.5) * grid.voxel_size
    d_safe = 0.3
    value, _ = losses.loss_col(P, fld, d_safe)
    assert value == pytest.approx(0.5 * d_safe**2)  # d = 0 at an occupied center


def test_collision_gradient_matches_finite_differences(rng):
    grid, fld = _field(rng)
    cells = rng.integers(0, 9, size=(20, 3))
    frac = rng.uniform(0.1, 0.9, size=(20, 3))
    P = grid.min_corner + (cells + 0.5 + frac) * grid.voxel_size
    _, grad = losses.loss_col(P, fld, d_safe=0.4)
    num = finite_difference_gradient(
        lambda Q: losses.loss_col(Q, fld, 0.4)[0], P, h=grid.voxel_size / 200.0
    )
    assert gradient_max_rel_error(grad, num) < 1e-3
