"""First-order refinement of the initial trajectory.

Each sub-trajectory descends the weighted objective
w_len*L_len + w_acc*L_acc + w_curv*L_curv + w_col*L_col with CHOMP's
covariant gradient step (Ratliff et al. 2009): P[1:-1] -= learning_rate *
A^-1 g[1:-1], A = K^T K = tridiag(-1, 2, -1) for K the first differences
of the interior with the endpoints frozen. A^-1 spreads each waypoint's
gradient smoothly over the whole leg, and the step keeps no state.

Iterate selection prefers feasibility: among all iterates seen (including
the input), a collision-free one (L_col = 0, i.e. every waypoint at least
d_safe from matter) with the lowest objective wins over any violating
iterate — a smoother path that cuts into the safety margin is not a
better plan. If no iterate is collision-free, the lowest-objective one is
returned. Either way the reported objective never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from .distance_field import DistanceField
from .errors import NonFiniteLoss
from .grid_planner import Trajectory
from .losses import loss_acc, loss_col, loss_curv, loss_length


@dataclass(frozen=True)
class PlannerConfig:
    w_len: float = 1.0
    w_acc: float = 1.0
    w_curv: float = 0.1
    w_col: float = 10.0
    d_safe: float = 0.02  # meters; scenarios default to 2 * voxel_size
    learning_rate: float = 0.01  # the covariant step size
    iterations: int = 200
    eps_curv: float = 1e-6
    clearance_voxels: int = 1

    def __post_init__(self):
        weights = (self.w_len, self.w_acc, self.w_curv, self.w_col)
        if any(w < 0 or not np.isfinite(w) for w in weights):
            raise ValueError(f"loss weights must be finite and non-negative: {weights}")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one loss weight must be positive")
        if self.d_safe < 0 or not np.isfinite(self.d_safe):
            raise ValueError(f"d_safe must be a non-negative finite scalar: {self.d_safe}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be positive: {self.iterations}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive: {self.learning_rate}")
        if not (np.isfinite(self.eps_curv) and self.eps_curv >= 0):
            raise ValueError(f"eps_curv must be finite and non-negative: {self.eps_curv}")


@dataclass
class LossTerms:
    col: float
    length: float
    acc: float
    curv: float
    total: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "col": self.col,
            "len": self.length,
            "acc": self.acc,
            "curv": self.curv,
            "total": self.total,
        }


@dataclass
class LossReport:
    before: LossTerms
    after: LossTerms
    per_stage_before: Dict[str, LossTerms]
    per_stage_after: Dict[str, LossTerms]
    trace: Dict[str, List[float]]  # per-iteration totals

    def as_dict(self) -> dict:
        return {
            "before": self.before.as_dict(),
            "after": self.after.as_dict(),
            "per_stage_before": {k: v.as_dict() for k, v in self.per_stage_before.items()},
            "per_stage_after": {k: v.as_dict() for k, v in self.per_stage_after.items()},
            "trace": self.trace,
        }


def evaluate_losses(
    P: np.ndarray, field: DistanceField, config: PlannerConfig
) -> Tuple[LossTerms, np.ndarray]:
    """Weighted objective and its gradient over one waypoint array."""
    v_col, g_col = loss_col(P, field, config.d_safe)
    v_len, g_len = loss_length(P)
    v_acc, g_acc = loss_acc(P)
    v_curv, g_curv = loss_curv(P, config.eps_curv)
    total = (
        config.w_col * v_col
        + config.w_len * v_len
        + config.w_acc * v_acc
        + config.w_curv * v_curv
    )
    grad = (
        config.w_col * g_col
        + config.w_len * g_len
        + config.w_acc * g_acc
        + config.w_curv * g_curv
    )
    return LossTerms(col=v_col, length=v_len, acc=v_acc, curv=v_curv, total=total), grad


def _inverse_metric(m: int) -> np.ndarray:
    """A^-1 for A = tridiag(-1, 2, -1) over m interior waypoints, in closed
    form: (A^-1)_ij = min(i, j) (m + 1 - max(i, j)) / (m + 1), 1-based."""
    i = np.arange(1, m + 1)
    return np.minimum.outer(i, i) * (m + 1 - np.maximum.outer(i, i)) / (m + 1)


def _optimize_points(
    P0: np.ndarray, field: DistanceField, config: PlannerConfig
) -> Tuple[np.ndarray, LossTerms, LossTerms, List[float]]:
    """Covariant descent of the interior waypoints; returns the best
    iterate, preferring collision-free ones (see module docstring)."""
    P = np.array(P0, dtype=np.float64)
    A_inv = _inverse_metric(len(P) - 2)
    iterates = []  # (terms, P) of the input, then one per step
    for t in range(config.iterations + 1 if len(P) > 2 else 1):
        if t:
            P = P.copy()  # each iterate keeps its own array
            P[1:-1] -= config.learning_rate * (A_inv @ grad[1:-1])
        terms, grad = evaluate_losses(P, field, config)
        if not np.isfinite(terms.total) or not np.isfinite(grad).all():
            raise NonFiniteLoss("objective is non-finite", iteration=t)
        iterates.append((terms, P))

    # a collision-free iterate no worse than the input, else the lowest
    # total; min keeps the earliest of equals. A collision-free iterate
    # tied for the lowest total is no worse than the input, so it wins the
    # tie against a colliding one.
    terms0 = iterates[0][0]
    best_terms, best_P = min(
        iterates,
        key=lambda it: (not (it[0].col == 0.0 and it[0].total <= terms0.total), it[0].total),
    )
    return best_P, terms0, best_terms, [terms.total for terms, _ in iterates]


def optimize_trajectory(
    traj: Trajectory,
    field: DistanceField,
    config: PlannerConfig,
) -> Tuple[Trajectory, LossReport]:
    """Optimize the three sub-trajectories independently.

    Endpoints of each sub-trajectory are returned bit-identical to the
    input, so the stage junctions stay pinned to the scenario keypoints:
    the step writes only the interior rows.
    """
    subs = []
    per_before: Dict[str, LossTerms] = {}
    per_after: Dict[str, LossTerms] = {}
    trace: Dict[str, List[float]] = {}
    for sub in traj.subs:
        P, terms0, terms1, tr = _optimize_points(sub.points, field, config)
        subs.append(replace(sub, points=P))
        per_before[sub.stage.value] = terms0
        per_after[sub.stage.value] = terms1
        trace[sub.stage.value] = tr

    def _sum(parts: Dict[str, LossTerms]) -> LossTerms:
        return LossTerms(
            col=sum(p.col for p in parts.values()),
            length=sum(p.length for p in parts.values()),
            acc=sum(p.acc for p in parts.values()),
            curv=sum(p.curv for p in parts.values()),
            total=sum(p.total for p in parts.values()),
        )

    report = LossReport(
        before=_sum(per_before),
        after=_sum(per_after),
        per_stage_before=per_before,
        per_stage_after=per_after,
        trace=trace,
    )
    return Trajectory(subs=tuple(subs)), report
