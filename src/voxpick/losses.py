"""Trajectory objectives with hand-derived analytic gradients.

Each loss maps a waypoint array P (n, 3) to (value, gradient) where the
gradient has P's shape. Collision uses a hinge on the sampled clearance:
c(d) = 1/2 * max(0, d_safe - d)^2, zero once the path is at least d_safe
away from matter.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .distance_field import DistanceField


def loss_length(P: np.ndarray) -> Tuple[float, np.ndarray]:
    """Sum of squared segment lengths, sum_i ||p_i - p_{i+1}||^2."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    if len(P) < 2:
        return 0.0, grad
    d = P[1:] - P[:-1]
    value = float(np.einsum("ij,ij->", d, d))
    grad[:-1] -= 2.0 * d
    grad[1:] += 2.0 * d
    return value, grad


def loss_acc(P: np.ndarray) -> Tuple[float, np.ndarray]:
    """Half sum of squared discrete accelerations."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    if len(P) < 3:
        return 0.0, grad
    a = P[2:] - 2.0 * P[1:-1] + P[:-2]
    value = 0.5 * float(np.einsum("ij,ij->", a, a))
    grad[:-2] += a
    grad[1:-1] -= 2.0 * a
    grad[2:] += a
    return value, grad


def loss_curv(P: np.ndarray, eps_curv: float = 1e-6) -> Tuple[float, np.ndarray]:
    """Half sum of ||v_i x a_i||^2 / (||v_i||^6 + eps), a discrete squared
    curvature with a small denominator guard."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    if len(P) < 3:
        return 0.0, grad
    v = P[1:-1] - P[:-2]  # v_i = p_{i+1} - p_i for i = 0 .. n-3
    a = P[2:] - 2.0 * P[1:-1] + P[:-2]
    c = np.cross(v, a)
    v2 = np.einsum("ij,ij->i", v, v)
    s = v2**3 + eps_curv
    c2 = np.einsum("ij,ij->i", c, c)
    value = 0.5 * float(np.sum(c2 / s))
    # dT/dv = (a x c)/s - 3 ||c||^2 ||v||^4 v / s^2 ; dT/da = (c x v)/s
    gv = np.cross(a, c) / s[:, None] - (3.0 * c2 * v2**2 / s**2)[:, None] * v
    ga = np.cross(c, v) / s[:, None]
    grad[:-2] += -gv + ga
    grad[1:-1] += gv - 2.0 * ga
    grad[2:] += ga
    return value, grad


def loss_col(
    P: np.ndarray, field: DistanceField, d_safe: float
) -> Tuple[float, np.ndarray]:
    """Hinge clearance penalty sum_i 1/2 * max(0, d_safe - d(p_i))^2."""
    P = np.asarray(P, dtype=np.float64)
    d = field.sample(P)
    viol = np.maximum(d_safe - d, 0.0)
    value = 0.5 * float(np.sum(viol**2))
    grad = -viol[:, None] * field.gradient(P)
    return value, grad
