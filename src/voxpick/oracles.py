"""Independent brute-force references for the self-check harness.

These deliberately avoid the production code paths: the distance oracle
enumerates occupied voxels, path costs come from a plain Dijkstra sweep,
gradients from central finite differences, and mask pixels from per-pixel
geometric tests.
"""

from __future__ import annotations

import heapq
from math import sqrt
from typing import Callable

import numpy as np


def brute_force_edt_sq(occupied: np.ndarray, band: int) -> np.ndarray:
    """Squared cell distances (integer) by minimizing over every occupied
    voxel, saturated at band^2; an empty grid is band^2 everywhere."""
    dims = occupied.shape
    sq = np.full(dims, band * band, dtype=np.int64)
    occ_idx = np.argwhere(occupied)
    if len(occ_idx):
        grids = np.indices(dims).reshape(3, -1).T  # (n_cells, 3)
        diff = grids[:, None, :] - occ_idx[None, :, :]
        nearest = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1).reshape(dims)
        np.minimum(sq, nearest, out=sq)
    return sq


_STEPS = [
    ((dx, dy, dz), sqrt(dx * dx + dy * dy + dz * dz))
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def dijkstra_cost(free: np.ndarray, start, goal) -> float:
    """Least 26-connected path cost in cell units; inf when unreachable."""
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    if not free[start] or not free[goal]:
        return float("inf")
    dims = free.shape
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        if cell == goal:
            return d
        done.add(cell)
        for (dx, dy, dz), step in _STEPS:
            nb = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
            if not (0 <= nb[0] < dims[0] and 0 <= nb[1] < dims[1] and 0 <= nb[2] < dims[2]):
                continue
            if not free[nb] or nb in done:
                continue
            nd = d + step
            if nd < dist.get(nb, float("inf")):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return float("inf")


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], P: np.ndarray, h: float
) -> np.ndarray:
    """Central finite differences of a scalar function of a waypoint
    array, one coordinate at a time."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            Pp = P.copy()
            Pm = P.copy()
            Pp[i, j] += h
            Pm[i, j] -= h
            grad[i, j] = (f(Pp) - f(Pm)) / (2.0 * h)
    return grad


def gradient_max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max relative disagreement, normalized by the numeric gradient's
    scale so near-zero components don't blow up the ratio."""
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def ray_sphere_mask(cam, center, radius: float) -> np.ndarray:
    """Boolean image: does the ray through each pixel center hit the
    sphere? Solves the quadratic |o + t*d - c|^2 = r^2 per pixel."""
    c = cam.to_camera(center)
    xs = (np.arange(cam.width) + 0.5 - cam.cx) / cam.fx
    ys = (np.arange(cam.height) + 0.5 - cam.cy) / cam.fy
    dx, dy = np.meshgrid(xs, ys)
    d = np.stack([dx, dy, np.ones_like(dx)], axis=-1)
    dd = np.einsum("...k,...k->...", d, d)
    dc = d @ c
    disc = dc * dc - dd * (c @ c - radius * radius)
    hit = disc >= 0.0
    # only count intersections in front of the camera
    t_near = (dc - np.sqrt(np.maximum(disc, 0.0))) / dd
    t_far = (dc + np.sqrt(np.maximum(disc, 0.0))) / dd
    return hit & (t_far > 0.0) & (t_near < np.inf)


def circle_mask(cam, circle) -> np.ndarray:
    """Point-in-circle test at pixel centers for a projected circle."""
    u, v, r = circle
    xs = np.arange(cam.width) + 0.5
    ys = np.arange(cam.height) + 0.5
    gx, gy = np.meshgrid(xs, ys)
    return (gx - u) ** 2 + (gy - v) ** 2 <= r * r


def iou(a: np.ndarray, b: np.ndarray) -> float:
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)
