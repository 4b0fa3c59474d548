"""Trajectory objectives with hand-derived analytic gradients.

Each loss maps a waypoint array P (n, 3) to (value, gradient) where the
gradient has P's shape. Collision uses a hinge on the sampled clearance:
c(d) = 1/2 * max(0, d_safe - d)^2, zero once the path is at least d_safe
away from matter.

P may stack several legs, each given in ``legs`` as its (start, stop) rows;
the value is then a list with one sum per leg, over the leg's own slice, bit
for bit the value of the leg alone. Terms that span two legs are left out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .distance_field import DistanceField

Legs = Optional[Sequence[Tuple[int, int]]]  # (start, stop) rows of each leg
Value = Union[float, List[float]]


def _per_leg(reduce, x: np.ndarray, legs: Legs, trim: int) -> Value:
    """``reduce`` over all of ``x``, or over each leg's rows of it when
    ``x`` holds one entry per point (trim 0), segment (1) or triple (2)."""
    return reduce(x) if legs is None else [reduce(x[o:max(o, e - trim)]) for o, e in legs]


def _spanning_triples(legs: Legs, n: int) -> List[int]:
    """Rows of an n-row per-triple array whose triple (i, i+1, i+2) spans
    two legs. Set to zero, such a row adds exactly nothing to a gradient
    row: each row starts at +0.0, and a sum that starts at +0.0 is never
    -0.0, so every interior row sums exactly the terms of its leg alone."""
    return [i for _, e in (legs or ())[:-1] for i in (e - 2, e - 1) if 0 <= i < n]


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``np.cross`` of two (n, 3) arrays, written out by component
    with numpy's own formula (same bits, without its set-up)."""
    x0, x1, x2 = x.T
    y0, y1, y2 = y.T
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=1)


def loss_length(P: np.ndarray, legs: Legs = None) -> Tuple[Value, np.ndarray]:
    """Sum of squared segment lengths, sum_i ||p_i - p_{i+1}||^2. A segment
    between two legs reaches only their endpoint rows of the gradient."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    d = P[1:] - P[:-1]
    value = _per_leg(lambda x: float(np.einsum("ij,ij->", x, x)), d, legs, 1)
    grad[:-1] -= 2.0 * d
    grad[1:] += 2.0 * d
    return value, grad


def loss_acc(P: np.ndarray, legs: Legs = None) -> Tuple[Value, np.ndarray]:
    """Half sum of squared discrete accelerations."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    a = P[2:] - 2.0 * P[1:-1] + P[:-2]
    value = _per_leg(lambda x: 0.5 * float(np.einsum("ij,ij->", x, x)), a, legs, 2)
    a[_spanning_triples(legs, len(a))] = 0.0
    grad[:-2] += a
    grad[1:-1] -= 2.0 * a
    grad[2:] += a
    return value, grad


def loss_curv(
    P: np.ndarray, eps_curv: float = 1e-6, legs: Legs = None
) -> Tuple[Value, np.ndarray]:
    """Half sum of ||v_i x a_i||^2 / (||v_i||^6 + eps), a discrete squared
    curvature with a small denominator guard."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    v = P[1:-1] - P[:-2]  # v_i = p_{i+1} - p_i for i = 0 .. n-3
    a = P[2:] - 2.0 * P[1:-1] + P[:-2]
    c = _cross(v, a)
    v2 = np.einsum("ij,ij->i", v, v)
    s = v2**3 + eps_curv
    spanning = _spanning_triples(legs, len(s))
    s[spanning] = 1.0  # a zero-length junction segment would divide 0 by 0
    c2 = np.einsum("ij,ij->i", c, c)
    value = _per_leg(lambda x: 0.5 * float(np.sum(x)), c2 / s, legs, 2)
    # dT/dv = (a x c)/s - 3 ||c||^2 ||v||^4 v / s^2 ; dT/da = (c x v)/s
    gv = _cross(a, c) / s[:, None] - (3.0 * c2 * v2**2 / s**2)[:, None] * v
    ga = _cross(c, v) / s[:, None]
    gv[spanning] = ga[spanning] = 0.0
    grad[:-2] += -gv + ga
    grad[1:-1] += gv - 2.0 * ga
    grad[2:] += ga
    return value, grad


def loss_col(
    P: np.ndarray, field: DistanceField, d_safe: float, legs: Legs = None
) -> Tuple[Value, np.ndarray]:
    """Hinge clearance penalty sum_i 1/2 * max(0, d_safe - d(p_i))^2."""
    P = np.asarray(P, dtype=np.float64)
    d = field.sample(P)
    viol = np.maximum(d_safe - d, 0.0)
    value = _per_leg(lambda x: 0.5 * float(np.sum(x)), viol**2, legs, 0)
    grad = -viol[:, None] * field.gradient(P)
    return value, grad
