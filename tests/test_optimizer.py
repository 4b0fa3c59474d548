"""Refinement behavior: config validation, iterate selection, endpoint
pinning, stacking of the three legs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpick.distance_field import clearance_band, compute_edt
from voxpick.errors import NonFiniteLoss
from voxpick.grid_planner import Stage, SubTrajectory, Trajectory
from voxpick import losses, optimizer
from voxpick.optimizer import (
    LossTerms,
    PlannerConfig,
    _inverse_metric,
    evaluate_losses,
    optimize_trajectory,
)
from voxpick.scene import GridBounds, OccupancyGrid


def _empty_field(dims=(16, 16, 16), voxel=0.25):
    grid = OccupancyGrid(dims, GridBounds((0.0, 0.0, 0.0), voxel), np.zeros(dims, bool))
    return compute_edt(grid, clearance_band(grid, math.inf))


def _occupied_field(voxel=0.25):
    occ = np.zeros((16, 16, 16), bool)
    occ[:, :, :4] = True  # floor slab
    grid = OccupancyGrid((16, 16, 16), GridBounds((0.0, 0.0, 0.0), voxel), occ)
    return compute_edt(grid, clearance_band(grid, math.inf))


def _refine(P0, fld, cfg):
    """optimize_trajectory on P0 as the manipulate leg, between one-point
    approach and back_idle legs; returns the manipulate leg's points, its
    terms before and after, and its trace."""
    traj = Trajectory(
        subs=(
            SubTrajectory(Stage.APPROACH, P0[:1]),
            SubTrajectory(Stage.MANIPULATE, P0),
            SubTrajectory(Stage.BACK_IDLE, P0[-1:]),
        )
    )
    out, report = optimize_trajectory(traj, fld, cfg)
    stage = "manipulate"
    before, after = report.per_stage_before[stage], report.per_stage_after[stage]
    return out.subs[1].points, before, after, report.trace[stage]


def _one_leg(P):
    return [(0, len(P))]


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
    P, before, after, trace = _refine(P0, fld, PlannerConfig())
    np.testing.assert_array_equal(P, P0)
    assert before.total == after.total


def test_objective_never_increases(rng):
    fld = _occupied_field()
    cfg = PlannerConfig(iterations=50, d_safe=0.5)
    for _ in range(5):
        P0 = rng.uniform(0.5, 3.5, size=(12, 3))
        P, before, after, _ = _refine(P0, fld, cfg)
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
    (terms0,), _ = evaluate_losses(P0, fld, cfg, _one_leg(P0))
    assert terms0.col > 0.0
    P, _, after, _ = _refine(P0, fld, cfg)
    if after.total < terms0.total:  # optimizer found an improvement
        assert after.col == 0.0
        assert fld.sample(P[1:-1]).min() >= cfg.d_safe - 1e-9


def _kept_iterate(monkeypatch, script):
    """Index of the iterate every leg keeps when the objective returns the
    scripted (col, total) pairs in order, the same for each leg: the input,
    then one per iteration."""
    terms = [LossTerms(col=c, length=0.0, acc=0.0, curv=0.0, total=t) for c, t in script]
    calls = iter(terms)
    monkeypatch.setattr(
        optimizer,
        "evaluate_losses",
        lambda P, fld, cfg, legs: ([next(calls)] * len(legs), np.ones_like(P)),
    )
    cfg = PlannerConfig(iterations=len(script) - 1)
    _, report = optimize_trajectory(_trajectory(), None, cfg)
    kept = set()
    for stage, after in report.per_stage_after.items():
        assert report.trace[stage] == [t for _, t in script]
        kept.add(next(k for k, t in enumerate(terms) if t is after))
    (index,) = kept
    return index


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


@pytest.mark.parametrize(
    "script, kept",
    [
        # two iterates with equal totals: the earlier
        ([(1.0, 5.0), (1.0, 3.0), (1.0, 3.0), (1.0, 4.0)], 1),
        # a collision-free iterate beats a colliding one with a lower total
        ([(1.0, 5.0), (1.0, 1.0), (0.0, 3.0), (1.0, 4.0)], 2),
    ],
)
def test_the_kept_iterate_returns_its_own_points(monkeypatch, script, kept):
    # every step moves the interior waypoints, so each iterate's points
    # differ; the returned legs must be the points the kept terms were
    # evaluated at, not those of a later step
    seen, calls = [], iter(script)

    def scripted(P, fld, cfg, legs):
        seen.append(P.copy())
        col, total = next(calls)
        leg = LossTerms(col=col, length=0.0, acc=0.0, curv=0.0, total=total)
        return [leg] * len(legs), np.ones_like(P)

    monkeypatch.setattr(optimizer, "evaluate_losses", scripted)
    traj = _trajectory()
    out, report = optimize_trajectory(traj, None, PlannerConfig(iterations=len(script) - 1))
    assert all(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    o = 0
    for sub, after in zip(out.subs, report.per_stage_after.values()):
        assert (after.col, after.total) == script[kept]
        np.testing.assert_array_equal(sub.points, seen[kept][o : o + len(sub.points)])
        o += len(sub.points)


def _optimize_peak(traj, fld, iterations):
    tracemalloc.start()
    try:
        optimize_trajectory(traj, fld, PlannerConfig(iterations=iterations))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_iteration_count():
    # only each leg's best iterate is held, not every iterate: ten times
    # the steps may grow only the per-leg trace of totals
    a, b = np.array([0.5, 0.5, 2.5]), np.array([3.5, 3.5, 2.5])
    legs = [np.linspace(a, b, 120), np.linspace(b, a + 1.0, 120), np.linspace(a + 1.0, a, 120)]
    for leg in legs:
        leg[1:-1, 2] += 0.3 * np.sin(np.linspace(0.0, np.pi, len(leg)))[1:-1]
    stages = (Stage.APPROACH, Stage.MANIPULATE, Stage.BACK_IDLE)
    traj = Trajectory(subs=tuple(SubTrajectory(s, leg) for s, leg in zip(stages, legs)))
    fld = _occupied_field()
    short, long = _optimize_peak(traj, fld, 200), _optimize_peak(traj, fld, 2000)
    assert long < 2 * short, (short, long)


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
    _, before, _, trace = _refine(P0, fld, PlannerConfig(iterations=5))
    assert len(trace) == 6 and trace[0] == before.total
    assert all(a > b for a, b in zip(trace, trace[1:]))


def test_non_finite_input_raises():
    fld = _empty_field()
    P0 = np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss) as info:
        _refine(P0, fld, PlannerConfig())
    assert info.value.iteration == 0
    assert str(info.value) == "manipulate: objective is non-finite at iteration 0"


def test_non_finite_iterate_names_its_leg_and_iteration():
    # a huge step overflows the back_idle leg first, on the first step
    traj = _trajectory()
    back = traj.subs[2].points.copy()
    back[1] += 1.0  # bend it so its gradient is not zero
    traj = Trajectory(subs=traj.subs[:2] + (SubTrajectory(Stage.BACK_IDLE, back),))
    cfg = PlannerConfig(learning_rate=1e300, w_col=0.0, w_curv=0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss) as info:
        optimize_trajectory(traj, _empty_field(), cfg)
    assert info.value.iteration == 1
    assert str(info.value) == "back_idle: objective is non-finite at iteration 1"


def test_objective_is_evaluated_once_per_iteration(monkeypatch):
    calls = []
    real = optimizer.evaluate_losses

    def counted(P, fld, cfg, legs):
        calls.append(len(legs))
        return real(P, fld, cfg, legs)

    monkeypatch.setattr(optimizer, "evaluate_losses", counted)
    optimize_trajectory(_trajectory(), _occupied_field(), PlannerConfig(iterations=7))
    assert calls == [3] * 8


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
    (terms,), grad = evaluate_losses(P, fld, cfg, _one_leg(P))
    assert terms.total == pytest.approx(
        7.0 * terms.col + 2.0 * terms.length + 3.0 * terms.acc + 0.5 * terms.curv
    )
    assert grad.shape == P.shape


_coords = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(-3.0, 3.0, width=64))
_leg_points = st.lists(st.tuples(_coords, _coords, _coords), min_size=1, max_size=7)


def _bits(x):
    """float64 bit patterns, so that -0.0 and +0.0 differ; NaNs compare as
    one pattern."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def _evaluate(P, legs, fld, cfg):
    """Per-leg terms, then the objective's gradient and each smoothness
    loss's own gradient."""
    terms, grad = evaluate_losses(P, fld, cfg, legs)
    return terms, [
        grad,
        losses.loss_length(P, legs)[1],
        losses.loss_acc(P, legs)[1],
        losses.loss_curv(P, cfg.eps_curv, legs)[1],
    ]


@settings(max_examples=200, deadline=None)
@given(
    legs=st.lists(_leg_points, min_size=1, max_size=4),
    shared=st.booleans(),
    eps_curv=st.sampled_from([0.0, 1e-6]),
)
def test_stacked_legs_evaluate_as_each_leg_alone(legs, shared, eps_curv):
    legs = [np.array(leg, dtype=np.float64) for leg in legs]
    if shared:  # consecutive legs meet at one point, as planned legs do
        for a, b in zip(legs[:-1], legs[1:]):
            b[0] = a[-1]
    fld = _occupied_field()
    cfg = PlannerConfig(d_safe=0.5, eps_curv=eps_curv)
    stops = np.cumsum([len(leg) for leg in legs]).tolist()
    bounds = list(zip([0] + stops[:-1], stops))
    # where no leg alone divides 0 by 0 (a zero-length segment with
    # eps_curv = 0) or overflows, the stacked evaluation must not either
    errors = "raise"
    try:
        with np.errstate(all=errors, under="ignore"):
            alone = [_evaluate(leg, _one_leg(leg), fld, cfg) for leg in legs]
    except FloatingPointError:
        errors = "ignore"
        with np.errstate(all=errors, under="ignore"):
            alone = [_evaluate(leg, _one_leg(leg), fld, cfg) for leg in legs]
    with np.errstate(all=errors, under="ignore"):
        terms, grads = _evaluate(np.concatenate(legs), bounds, fld, cfg)
    for (o, e), leg_terms, ((alone_terms,), alone_grads) in zip(bounds, terms, alone):
        np.testing.assert_array_equal(
            _bits(list(leg_terms.as_dict().values())),
            _bits(list(alone_terms.as_dict().values())),
        )
        for grad, g_alone in zip(grads, alone_grads):
            np.testing.assert_array_equal(_bits(grad[o + 1 : e - 1]), _bits(g_alone[1:-1]))
