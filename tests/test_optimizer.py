"""Refinement behavior: config validation, iterate selection, endpoint
pinning."""

import numpy as np
import pytest

from voxpick.distance_field import compute_edt
from voxpick.errors import NonFiniteLoss
from voxpick.grid_planner import Stage, SubTrajectory, Trajectory
from voxpick import optimizer
from voxpick.optimizer import (
    LossTerms,
    PlannerConfig,
    _inverse_metric,
    _optimize_points,
    evaluate_losses,
    optimize_trajectory,
)
from voxpick.scene import GridBounds, OccupancyGrid


def _empty_field(dims=(16, 16, 16), voxel=0.25):
    grid = OccupancyGrid(dims, GridBounds((0.0, 0.0, 0.0), voxel), np.zeros(dims, bool))
    return compute_edt(grid)


def _occupied_field(voxel=0.25):
    occ = np.zeros((16, 16, 16), bool)
    occ[:, :, :4] = True  # floor slab
    grid = OccupancyGrid((16, 16, 16), GridBounds((0.0, 0.0, 0.0), voxel), occ)
    return compute_edt(grid)


@pytest.mark.parametrize(
    "kw",
    [
        dict(w_len=-1.0),
        dict(w_col=float("nan")),
        dict(w_len=0.0, w_acc=0.0, w_curv=0.0, w_col=0.0),
        dict(d_safe=-0.1),
        dict(iterations=0),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        PlannerConfig(**kw)


def test_two_point_paths_pass_through():
    fld = _empty_field()
    P0 = np.array([[0.5, 0.5, 0.5], [3.0, 3.0, 3.0]])
    P, before, after, trace = _optimize_points(P0, fld, PlannerConfig())
    np.testing.assert_array_equal(P, P0)
    assert before.total == after.total


def test_objective_never_increases(rng):
    fld = _occupied_field()
    cfg = PlannerConfig(iterations=50, d_safe=0.5)
    for _ in range(5):
        P0 = rng.uniform(0.5, 3.5, size=(12, 3))
        P, before, after, _ = _optimize_points(P0, fld, cfg)
        assert after.total <= before.total
        np.testing.assert_array_equal(P[0], P0[0])
        np.testing.assert_array_equal(P[-1], P0[-1])


def test_feasible_iterates_win_over_lower_objective():
    # start slightly inside the safety margin above a floor slab: the
    # returned path must be collision-free even though infeasible iterates
    # with smaller totals exist along the way
    fld = _occupied_field()
    n = 9
    z = np.full(n, 1.625)  # endpoints well clear of the slab
    z[2:-2] = 1.25  # interior dips inside the 0.5 m margin
    P0 = np.stack([np.linspace(0.5, 3.5, n), np.full(n, 2.0), z], axis=1)
    cfg = PlannerConfig(d_safe=0.5, iterations=200)
    terms0, _ = evaluate_losses(P0, fld, cfg)
    assert terms0.col > 0.0
    P, _, after, _ = _optimize_points(P0, fld, cfg)
    if after.total < terms0.total:  # optimizer found an improvement
        assert after.col == 0.0
        assert fld.sample(P[1:-1]).min() >= cfg.d_safe - 1e-9


def _kept_iterate(monkeypatch, script):
    """Index of the iterate _optimize_points keeps when the objective
    returns the scripted (col, total) pairs in order: the input, then one
    per iteration."""
    terms = [LossTerms(col=c, length=0.0, acc=0.0, curv=0.0, total=t) for c, t in script]
    calls = iter(terms)
    monkeypatch.setattr(
        optimizer, "evaluate_losses", lambda P, fld, cfg: (next(calls), np.ones_like(P))
    )
    cfg = PlannerConfig(iterations=len(script) - 1)
    _, _, after, trace = _optimize_points(np.zeros((4, 3)), None, cfg)
    assert trace == [t for _, t in script]
    return next(k for k, t in enumerate(terms) if t is after)


@pytest.mark.parametrize(
    "script, kept",
    [
        # no collision-free iterate: the lowest total, earliest of equals
        ([(1.0, 5.0), (1.0, 4.0), (1.0, 3.0), (1.0, 3.0), (1.0, 3.5)], 2),
        # collision-free iterates all worse than a colliding input: the input
        ([(1.0, 2.0), (0.0, 3.0), (1.0, 2.5), (0.0, 2.8)], 0),
        # a collision-free iterate beats a colliding one with a lower total
        ([(1.0, 5.0), (1.0, 1.0), (0.0, 3.0), (1.0, 4.0)], 2),
        # a tie on the total goes to the collision-free iterate
        ([(1.0, 5.0), (1.0, 3.0), (0.0, 3.0), (1.0, 4.0)], 2),
        # collision-free iterates tied on the total: the earliest
        ([(1.0, 5.0), (0.0, 3.0), (0.0, 3.0), (0.0, 4.0)], 1),
        # a collision-free input no iterate improves on
        ([(0.0, 2.0), (1.0, 1.0), (0.0, 2.5), (0.0, 2.0)], 0),
    ],
)
def test_iterate_choice(monkeypatch, script, kept):
    assert _kept_iterate(monkeypatch, script) == kept


@pytest.mark.parametrize("m", range(1, 41))
def test_inverse_metric_closed_form(m):
    A = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    np.testing.assert_allclose(_inverse_metric(m), np.linalg.inv(A), rtol=0, atol=1e-9)


def test_each_iterate_is_evaluated_once():
    # the trace holds the input, then one total per step; a smooth leg
    # over an empty field shortens on every step, so no two totals repeat
    fld = _empty_field()
    P0 = np.stack([np.linspace(0.5, 3.5, 8), np.full(8, 2.0), np.full(8, 2.0)], axis=1)
    P0[1:-1, 2] += np.sin(np.linspace(0.0, np.pi, 8))[1:-1]
    _, before, _, trace = _optimize_points(P0, fld, PlannerConfig(iterations=5))
    assert len(trace) == 6 and trace[0] == before.total
    assert all(a > b for a, b in zip(trace, trace[1:]))


def test_non_finite_input_raises():
    fld = _empty_field()
    P0 = np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss):
        _optimize_points(P0, fld, PlannerConfig())


def _trajectory():
    a = np.array([[0.5, 0.5, 3.0], [1.0, 1.0, 2.5], [1.5, 1.5, 2.0]])
    b = np.array([[1.5, 1.5, 2.0], [2.0, 2.0, 2.0], [2.5, 2.5, 2.0]])
    c = np.array([[2.5, 2.5, 2.0], [1.5, 1.5, 2.5], [0.5, 0.5, 3.0]])
    return Trajectory(
        subs=(
            SubTrajectory(Stage.APPROACH, a),
            SubTrajectory(Stage.MANIPULATE, b),
            SubTrajectory(Stage.BACK_IDLE, c),
        )
    )


def test_optimize_trajectory_pins_junctions():
    traj = _trajectory()
    out, report = optimize_trajectory(traj, _occupied_field(), PlannerConfig(iterations=20))
    for sub0, sub1 in zip(traj.subs, out.subs):
        assert sub1.stage is sub0.stage
        np.testing.assert_array_equal(sub0.points[0], sub1.points[0])
        np.testing.assert_array_equal(sub0.points[-1], sub1.points[-1])
    assert report.after.total <= report.before.total
    assert set(report.per_stage_after) == {"approach", "manipulate", "back_idle"}


def test_loss_report_totals_are_stage_sums():
    _, report = optimize_trajectory(_trajectory(), _occupied_field(), PlannerConfig(iterations=5))
    for phase, per_stage in (
        (report.before, report.per_stage_before),
        (report.after, report.per_stage_after),
    ):
        assert phase.total == pytest.approx(sum(t.total for t in per_stage.values()))
    assert set(report.trace) == {"approach", "manipulate", "back_idle"}
    d = report.as_dict()
    assert d["before"]["total"] == report.before.total
    assert "trace" in d


def test_weighted_objective_composition():
    fld = _occupied_field()
    cfg = PlannerConfig(w_len=2.0, w_acc=3.0, w_curv=0.5, w_col=7.0, d_safe=0.5)
    P = np.array([[0.5, 0.5, 1.2], [1.0, 0.7, 1.3], [1.5, 0.5, 1.2], [2.0, 0.9, 1.4]])
    terms, grad = evaluate_losses(P, fld, cfg)
    assert terms.total == pytest.approx(
        7.0 * terms.col + 2.0 * terms.length + 3.0 * terms.acc + 0.5 * terms.curv
    )
    assert grad.shape == P.shape
