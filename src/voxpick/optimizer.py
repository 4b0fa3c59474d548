"""First-order refinement of the initial trajectory.

Each sub-trajectory descends the weighted objective
w_len*L_len + w_acc*L_acc + w_curv*L_curv + w_col*L_col with CHOMP's
covariant gradient step (Ratliff et al. 2009): P[1:-1] -= learning_rate *
A^-1 g[1:-1], A = K^T K = tridiag(-1, 2, -1) for K the first differences
of the interior with the endpoints frozen. A^-1 spreads each waypoint's
gradient smoothly over the whole leg, and the step keeps no state.

The three legs are stacked into one array, so each iteration evaluates the
objective once for all of them with the terms across a junction left out;
each leg steps with its own A^-1 and keeps its own iterate, as if alone.

Iterate selection prefers feasibility: among all iterates seen (including
the input), a collision-free one (L_col = 0, i.e. every waypoint at least
d_safe from matter) with the lowest objective wins over any violating
iterate — a smoother path that cuts into the safety margin is not a
better plan. If no iterate is collision-free, the lowest-objective one is
returned. Either way the reported objective never increases. Each leg
keeps only its best iterate so far, so memory does not grow with the
iteration count.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Dict, List, Sequence, Tuple

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


LOSS_KEYS = ("col", "len", "acc", "curv", "total")  # LossTerms.as_dict, in field order


@dataclass
class LossTerms:
    col: float
    length: float
    acc: float
    curv: float
    total: float

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(LOSS_KEYS, (self.col, self.length, self.acc, self.curv, self.total)))


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
    P: np.ndarray, field: DistanceField, config: PlannerConfig, legs: Sequence[Tuple[int, int]]
) -> Tuple[List[LossTerms], np.ndarray]:
    """Weighted objective of each leg, given as its (start, stop) rows of the
    stacked waypoint array P, and the gradient over all of P."""
    v_col, g_col = loss_col(P, field, config.d_safe, legs)
    v_len, g_len = loss_length(P, legs)
    v_acc, g_acc = loss_acc(P, legs)
    v_curv, g_curv = loss_curv(P, config.eps_curv, legs)
    terms = [
        LossTerms(col, length, acc, curv, total=config.w_col * col + config.w_len * length
                  + config.w_acc * acc + config.w_curv * curv)
        for col, length, acc, curv in zip(v_col, v_len, v_acc, v_curv)
    ]
    grad = (config.w_col * g_col + config.w_len * g_len + config.w_acc * g_acc
            + config.w_curv * g_curv)
    return terms, grad


def _inverse_metric(m: int) -> np.ndarray:
    """A^-1 for A = tridiag(-1, 2, -1) over m interior waypoints, in closed
    form: (A^-1)_ij = min(i, j) (m + 1 - max(i, j)) / (m + 1), 1-based."""
    i = np.arange(1, m + 1)
    return np.minimum.outer(i, i) * (m + 1 - np.maximum.outer(i, i)) / (m + 1)


def optimize_trajectory(
    traj: Trajectory,
    field: DistanceField,
    config: PlannerConfig,
) -> Tuple[Trajectory, LossReport]:
    """Covariant descent of the three stacked sub-trajectories. Endpoints of
    each are returned bit-identical to the input, so the stage junctions stay
    pinned to the scenario keypoints: the step writes only the interior rows.
    """
    stops = np.cumsum([len(sub.points) for sub in traj.subs]).tolist()
    legs = list(zip([0] + stops[:-1], stops))
    steps = [(o, e, _inverse_metric(e - o - 2)) for o, e in legs if e - o > 2]
    P = np.concatenate([sub.points for sub in traj.subs], dtype=np.float64)
    # a leg without interior waypoints keeps its input, evaluated once
    moving = [e - o > 2 for o, e in legs]
    trace, best = [[] for _ in legs], [None] * len(legs)  # per leg: totals, (key, terms, P)
    # a diverging step overflows; it ends in NonFiniteLoss, not a warning
    with np.errstate(all="ignore"):
        for t in range(config.iterations + 1 if steps else 1):
            if t:
                P = P.copy()  # a kept iterate keeps its own array
                for o, e, A_inv in steps:
                    P[o + 1 : e - 1] -= config.learning_rate * (A_inv @ grad[o + 1 : e - 1])
            terms, grad = evaluate_losses(P, field, config, legs)
            if not (np.isfinite([leg.total for leg in terms]).all() and np.isfinite(grad).all()):
                for sub, (o, e), leg_terms in zip(traj.subs, legs, terms):
                    if not (np.isfinite(leg_terms.total) and np.isfinite(grad[o:e]).all()):
                        msg = f"{sub.stage.value}: objective is non-finite at iteration {t}"
                        raise NonFiniteLoss(msg, iteration=t)
            if not t:
                first = terms
            for k, leg_terms in enumerate(terms):
                if t and not moving[k]:
                    continue
                trace[k].append(leg_terms.total)
                # a collision-free iterate no worse than the input, else the
                # lowest total; only a strictly lower key replaces the best, so
                # the earliest of equals stays. A collision-free iterate tied for
                # the lowest total is no worse than the input, so it wins the tie.
                key = (not (leg_terms.col == 0.0 and leg_terms.total <= first[k].total),
                       leg_terms.total)
                if not t or key < best[k][0]:
                    best[k] = (key, leg_terms, P)

    subs, per_before, per_after = [], {}, {}
    for sub, (o, e), terms0, (_, kept, kept_P) in zip(traj.subs, legs, first, best):
        subs.append(replace(sub, points=kept_P[o:e]))
        per_before[sub.stage.value], per_after[sub.stage.value] = terms0, kept
    trace = {sub.stage.value: totals for sub, totals in zip(traj.subs, trace)}

    def _sum(parts: Dict[str, LossTerms]) -> LossTerms:
        return LossTerms(*(sum(values) for values in zip(*map(astuple, parts.values()))))

    report = LossReport(_sum(per_before), _sum(per_after), per_before, per_after, trace)
    return Trajectory(subs=tuple(subs)), report
