"""Frame allocation, profile resampling, and gripper-state timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpick.errors import DegeneratePath, InsufficientFrames
from voxpick.grid_planner import Stage, SubTrajectory, Trajectory
from voxpick.time_alloc import (
    MAX_POSITION_M,
    STAGE_GRIPPER,
    GripperState,
    TimedTrajectory,
    VelocityProfile,
    allocate_counts,
    arc_length,
    reallocate,
    resample,
)


@pytest.mark.parametrize("value", [np.nextafter(MAX_POSITION_M, np.inf), -1e308, np.nan])
def test_timed_trajectory_refuses_a_position_beyond_the_bound(value):
    TimedTrajectory(np.array([[0.0, -MAX_POSITION_M, MAX_POSITION_M]]), (Stage.APPROACH,))
    with pytest.raises(DegeneratePath):
        TimedTrajectory(np.array([[0.0, value, 1.0]]), (Stage.APPROACH,))


def test_arc_length_of_polyline():
    pts = [[0, 0, 0], [3, 0, 0], [3, 4, 0]]
    assert arc_length(pts) == pytest.approx(7.0)
    assert arc_length([[1, 2, 3]]) == 0.0


def test_allocate_counts_exact_thirds():
    assert allocate_counts([1.0, 1.0, 1.0], 9) == (3, 3, 3)


def test_allocate_counts_largest_remainder_tie_by_stage_order():
    # shares 16.333..: the two leftover frames go to the earliest stages
    assert sum(allocate_counts([1.0, 1.0, 1.0], 49)) == 49
    assert allocate_counts([1.0, 1.0, 1.0], 49) == (17, 16, 16)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
    st.integers(6, 200),
)
def test_allocate_counts_properties(lengths, total):
    try:
        counts = allocate_counts(lengths, total)
    except InsufficientFrames:
        return  # legitimately rejected tiny shares
    assert sum(counts) == total
    shares = np.asarray(lengths) / sum(lengths) * total
    for c, s in zip(counts, shares):
        assert abs(c - s) < 1.0
        assert c >= 2


def test_allocate_counts_rejects_small_budgets():
    with pytest.raises(InsufficientFrames):
        allocate_counts([1.0, 1.0, 1.0], 5)
    with pytest.raises(InsufficientFrames):
        allocate_counts([100.0, 100.0, 0.001], 12)


def test_resample_preserves_endpoints_and_monotonicity():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 2, 0], [1, 2, 5]], float)
    out = resample(pts, 17, VelocityProfile.SINE)
    np.testing.assert_array_equal(out[0], pts[0])
    np.testing.assert_array_equal(out[-1], pts[-1])
    # cumulative arc position along the polyline must be non-decreasing
    chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert np.all(chords >= 0)
    assert arc_length(out) <= arc_length(pts) + 1e-9


def test_resample_uniform_profile_gives_equal_chords():
    pts = np.array([[0, 0, 0], [10, 0, 0]], float)
    out = resample(pts, 11, VelocityProfile.UNIFORM)
    chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
    np.testing.assert_allclose(chords, 1.0)


def test_resample_sine_profile_on_a_straight_line():
    pts = np.array([[0, 0, 0], [1, 0, 0]], float)
    m = 25
    out = resample(pts, m, VelocityProfile.SINE)
    chords = np.diff(out[:, 0])
    k = np.arange(m - 1)
    target = np.sin(np.pi * (k + 0.5) / (m - 1))
    np.testing.assert_allclose(chords / chords.max(), target / target.max(), atol=1e-12)


def test_resample_rejects_degenerate_input():
    with pytest.raises(DegeneratePath):
        resample(np.zeros((3, 3)), 5, VelocityProfile.SINE)
    with pytest.raises(ValueError):
        resample(np.array([[0, 0, 0], [1, 0, 0]], float), 1, VelocityProfile.SINE)


def _traj():
    a = np.array([[0, 0, 0], [0, 0, 4]], float)
    b = np.array([[0, 0, 4], [6, 0, 4]], float)
    c = np.array([[6, 0, 4], [6, 0, 0]], float)
    return Trajectory(
        subs=(
            SubTrajectory(Stage.APPROACH, a),
            SubTrajectory(Stage.MANIPULATE, b),
            SubTrajectory(Stage.BACK_IDLE, c),
        )
    )


def test_reallocate_frame_budget_and_stage_layout():
    timed = reallocate(_traj(), total_frames=21, profile=VelocityProfile.SINE)
    assert timed.n_frames == 21
    assert timed.positions.shape == (21, 3) and not timed.positions.flags.writeable
    counts = allocate_counts([4.0, 6.0, 4.0], 21)
    assert list(timed.stages) == (
        [Stage.APPROACH] * counts[0]
        + [Stage.MANIPULATE] * counts[1]
        + [Stage.BACK_IDLE] * counts[2]
    )


def test_reallocate_junctions_belong_to_the_later_stage():
    timed = reallocate(_traj(), total_frames=21)
    n1, n2, _ = allocate_counts([4.0, 6.0, 4.0], 21)
    # the grasp keypoint opens the manipulate stage, gripper closed there
    np.testing.assert_array_equal(timed.positions[n1], [0, 0, 4])
    assert timed.stages[n1] is Stage.MANIPULATE
    assert STAGE_GRIPPER[timed.stages[n1]] is GripperState.CLOSED
    assert STAGE_GRIPPER[timed.stages[n1 - 1]] is GripperState.OPEN
    # the place keypoint opens back-idle, gripper reopened
    np.testing.assert_array_equal(timed.positions[n1 + n2], [6, 0, 4])
    assert timed.stages[n1 + n2] is Stage.BACK_IDLE
    assert STAGE_GRIPPER[timed.stages[n1 + n2]] is GripperState.OPEN
    closed = [k for k, s in enumerate(timed.stages) if STAGE_GRIPPER[s] is GripperState.CLOSED]
    assert closed[0] == n1
