"""Exact Euclidean distance transform with continuous sampling.

Distances are measured between voxel centers, in meters, to the nearest
occupied voxel. The transform is the separable squared-distance method:
three 1D passes of ``D[i] = min_j (f[j] + (i-j)^2)``, exact in integer
arithmetic. Sampling trilinearly interpolates the voxel-center lattice;
out-of-bounds queries clamp to the boundary cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .scene import GridBounds, OccupancyGrid

# larger than any reachable squared cell distance for practical grids
_INF = np.int64(1) << 50
# (dx, dy, dz) offsets of a lattice cell's 8 corners, shape (2, 2, 2, 3)
_CORNER_OFFSETS = np.stack(np.meshgrid((0, 1), (0, 1), (0, 1), indexing="ij"), axis=-1)


def sentinel_distance(dims, voxel_size: float) -> float:
    """Empty-scene fill value: Euclidean length of the grid diagonal."""
    return float(np.linalg.norm(np.asarray(dims, dtype=np.float64)) * voxel_size)


@dataclass(frozen=True)
class DistanceField:
    dims: Tuple[int, int, int]
    bounds: GridBounds
    distance: np.ndarray  # (nx, ny, nz) float64 meters, >= 0

    def __post_init__(self):
        d = np.asarray(self.distance, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "distance", d)
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))

    @property
    def voxel_size(self) -> float:
        return self.bounds.voxel_size

    def _corners(self, p):
        """Interpolation weights and corner values of the lattice cell
        enclosing world point(s) ``p`` (shape (..., 3)), clamped to the
        lattice: ``w[..., axis, k]`` is ``1 - f`` for k = 0 and ``f`` for
        k = 1, and ``c[..., dx, dy, dz]`` the distance at that corner."""
        p = np.asarray(p, dtype=np.float64)
        hi = np.asarray(self.dims) - 1
        q = np.clip((p - np.asarray(self.bounds.min_corner)) / self.voxel_size - 0.5, 0.0, hi)
        base = np.clip(np.floor(q).astype(np.int64), 0, np.maximum(hi - 1, 0))
        f = q - base
        idx = np.minimum(base[..., None, None, None, :] + _CORNER_OFFSETS, hi)
        c = self.distance[idx[..., 0], idx[..., 1], idx[..., 2]]
        return np.stack([1 - f, f], axis=-1), c

    def sample(self, p):
        """Trilinear interpolation of the distance lattice at world
        point(s) ``p`` (shape (..., 3))."""
        w, c = self._corners(p)
        wxyz = w[..., 0, :, None, None] * w[..., 1, None, :, None] * w[..., 2, None, None, :]
        terms = (wxyz * c).reshape(c.shape[:-3] + (8,))
        val = np.zeros(c.shape[:-3], dtype=np.float64)
        for k in range(8):  # corner order (dx, dy, dz) = 000, 001, ..., 111
            val += terms[..., k]
        return val

    def gradient(self, p) -> np.ndarray:
        """Spatial gradient of the trilinear interpolant (per meter),
        piecewise multilinear within each lattice cell."""
        w, c = self._corners(p)
        g = []
        for axis in range(3):
            a, b = (k for k in range(3) if k != axis)
            # (..., 2, 2) corner differences along ``axis``, indexed by (a, b)
            diff = np.take(c, 1, axis=axis - 3) - np.take(c, 0, axis=axis - 3)
            t = (w[..., a, :, None] * w[..., b, None, :]) * diff
            g.append(t[..., 0, 0] + t[..., 1, 0] + t[..., 0, 1] + t[..., 1, 1])
        return np.stack(g, axis=-1) / self.voxel_size


def _edt_pass(f: np.ndarray, axis: int) -> np.ndarray:
    """Squared-distance 1D pass along ``axis`` of an integer array:
    out[i] = min_j f[j] + (i - j)^2, one offset d = |i - j| at a time."""
    out = f.copy()
    lead = (slice(None),) * axis
    for d in range(1, f.shape[axis]):
        lo, hi = lead + (slice(None, -d),), lead + (slice(d, None),)
        np.minimum(out[hi], f[lo] + d * d, out=out[hi])
        np.minimum(out[lo], f[hi] + d * d, out=out[lo])
    return out


def compute_edt(grid: OccupancyGrid) -> DistanceField:
    """Exact Euclidean distance (meters) from each voxel center to the
    nearest occupied voxel center; the sentinel everywhere if the grid is
    empty."""
    occ = grid.occupied
    if not occ.any():
        dist = np.full(grid.dims, sentinel_distance(grid.dims, grid.voxel_size))
        return DistanceField(grid.dims, grid.bounds, dist)
    sq = np.where(occ, np.int64(0), _INF)
    for axis in (2, 1, 0):
        sq = _edt_pass(sq, axis)
    dist = np.sqrt(sq.astype(np.float64)) * grid.voxel_size
    return DistanceField(grid.dims, grid.bounds, dist)
