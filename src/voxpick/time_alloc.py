"""Path-aware time reallocation.

Frame counts are split across the three stages proportionally to arc
length (largest-remainder rounding, ties by stage order), then each stage
is resampled along its polyline so chord lengths follow the velocity
profile. Junction frames are shared: each junction is emitted once, owned
by the later stage, which is also where the gripper state flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import DegeneratePath, InsufficientFrames
from .grid_planner import Stage, Trajectory


class VelocityProfile(Enum):
    SINE = "sine"
    UNIFORM = "uniform"

    def cumulative(self, u: np.ndarray) -> np.ndarray:
        """Cumulative arc fraction s(u) on [0, 1]."""
        u = np.asarray(u, dtype=np.float64)
        if self is VelocityProfile.SINE:
            return 0.5 * (1.0 - np.cos(np.pi * u))
        return u


class GripperState(Enum):
    OPEN = "open"
    CLOSED = "closed"


STAGE_GRIPPER = {
    Stage.APPROACH: GripperState.OPEN,
    Stage.MANIPULATE: GripperState.CLOSED,
    Stage.BACK_IDLE: GripperState.OPEN,
}

# TimedTrajectory refuses a coordinate beyond this, so no plan writes one, and
# squares of position differences and fx-scaled positions stay finite under it
MAX_POSITION_M = 1e150


@dataclass(frozen=True)
class TimedTrajectory:
    """Row k is frame k: ``positions[k]`` in world meters and ``stages[k]``;
    the gripper state of a frame is ``STAGE_GRIPPER[stages[k]]``."""

    positions: np.ndarray  # (n, 3) float64, read-only
    stages: Tuple[Stage, ...]

    def __post_init__(self):
        p = np.array(self.positions, dtype=np.float64)
        if not (np.abs(p) <= MAX_POSITION_M).all():  # NaN fails too
            raise DegeneratePath(f"a position lies beyond {MAX_POSITION_M:g} m")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)

    @property
    def n_frames(self) -> int:
        return len(self.stages)

    def speeds(self) -> np.ndarray:
        """Per-chord displacement magnitudes between consecutive frames."""
        return np.linalg.norm(np.diff(self.positions, axis=0), axis=1)


def sine_fit(timed: TimedTrajectory, stage: Stage) -> float:
    """Largest |chord speed / the stage's top chord speed - sin(pi (i + 1/2) / n)|
    over the stage's n chords (nan if it has none, or none that moves); a
    chord belongs to the stage of its first frame."""
    s = timed.speeds()[[st is stage for st in timed.stages[:-1]]]
    if not len(s) or not s.max() > 0:
        return float("nan")
    target = np.sin(np.pi * (np.arange(len(s)) + 0.5) / len(s))
    return float(np.abs(s / s.max() - target).max())


def arc_length(points) -> float:
    """Polyline length; 0 for a single point."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(p) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))


def allocate_counts(sub_lengths, total_frames: int) -> Tuple[int, int, int]:
    """Largest-remainder split of the frame budget by arc-length share."""
    lengths = np.asarray(sub_lengths, dtype=np.float64)
    if len(lengths) != 3 or np.any(lengths < 0):
        raise ValueError(f"need 3 non-negative lengths: {sub_lengths}")
    if not np.any(lengths > 0):
        raise DegeneratePath(f"every leg has zero length: {sub_lengths}")
    total_frames = int(total_frames)
    shares = lengths / lengths.sum() * total_frames
    counts = np.floor(shares).astype(int)
    remainders = shares - counts
    # ties broken by stage order: stable sort on -remainder
    order = np.argsort(-remainders, kind="stable")
    for k in range(total_frames - int(counts.sum())):
        counts[order[k % 3]] += 1
    if np.any(counts < 2):
        raise InsufficientFrames(
            f"stage shares {counts.tolist()} leave a stage under 2 frames"
        )
    return tuple(int(c) for c in counts)


def resample(points, count: int, profile: VelocityProfile) -> np.ndarray:
    """Reposition ``count`` points along the polyline at cumulative arc
    lengths L*s(k/(count-1)); endpoints are preserved exactly."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    count = int(count)
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        raise DegeneratePath("cannot resample a zero-length path")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = total * profile.cumulative(np.arange(count) / (count - 1))
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    denom = np.where(seg[idx] > 0, seg[idx], 1.0)
    t = (targets - cum[idx]) / denom
    out = p[idx] + t[:, None] * (p[idx + 1] - p[idx])
    out[0] = p[0]
    out[-1] = p[-1]
    return out


def reallocate(
    traj: Trajectory,
    total_frames: int = 49,
    profile: VelocityProfile = VelocityProfile.SINE,
) -> TimedTrajectory:
    """Allocate frames per stage and resample each stage with the profile.

    The approach/manipulate junction frame carries the manipulate stage
    (gripper closes there); the manipulate/back-idle junction frame
    carries the back-idle stage (gripper reopens there).
    """
    lengths = [arc_length(s.points) for s in traj.subs]
    n1, n2, n3 = allocate_counts(lengths, total_frames)
    # stage resample counts; the later stage owns each junction frame
    positions = np.concatenate(
        [
            resample(traj.subs[0].points, n1 + 1, profile)[:-1],
            resample(traj.subs[1].points, n2 + 1, profile)[:-1],
            resample(traj.subs[2].points, n3, profile),
        ]
    )
    stages = (Stage.APPROACH,) * n1 + (Stage.MANIPULATE,) * n2 + (Stage.BACK_IDLE,) * n3
    return TimedTrajectory(positions, stages)

