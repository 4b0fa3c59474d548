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

    def _continuous_coords(self, p):
        """Lattice coords of world points relative to voxel centers,
        clamped to the lattice; returns (coords, clamped_mask)."""
        p = np.asarray(p, dtype=np.float64)
        q = (p - np.asarray(self.bounds.min_corner)) / self.voxel_size - 0.5
        hi = np.asarray(self.dims, dtype=np.float64) - 1.0
        qc = np.clip(q, 0.0, hi)
        clamped = np.any(qc != q, axis=-1)
        return qc, clamped

    def _cell(self, q):
        """Enclosing-cell base index and fractional offset for clamped
        lattice coords ``q``."""
        base = np.minimum(np.floor(q).astype(np.int64), np.maximum(np.asarray(self.dims) - 2, 0))
        base = np.maximum(base, 0)
        return base, q - base

    def sample(self, p, return_clamped: bool = False):
        """Trilinear interpolation of the distance lattice at world
        point(s) ``p`` (shape (..., 3))."""
        q, clamped = self._continuous_coords(p)
        base, f = self._cell(q)
        hi = np.asarray(self.dims) - 1
        val = np.zeros(q.shape[:-1], dtype=np.float64)
        for dx in (0, 1):
            wx = f[..., 0] if dx else 1.0 - f[..., 0]
            ix = np.minimum(base[..., 0] + dx, hi[0])
            for dy in (0, 1):
                wy = f[..., 1] if dy else 1.0 - f[..., 1]
                iy = np.minimum(base[..., 1] + dy, hi[1])
                for dz in (0, 1):
                    wz = f[..., 2] if dz else 1.0 - f[..., 2]
                    iz = np.minimum(base[..., 2] + dz, hi[2])
                    val += wx * wy * wz * self.distance[ix, iy, iz]
        if return_clamped:
            return val, clamped
        return val

    def gradient(self, p) -> np.ndarray:
        """Spatial gradient of the trilinear interpolant (per meter),
        piecewise multilinear within each lattice cell."""
        q, _ = self._continuous_coords(p)
        base, f = self._cell(q)
        hi = np.asarray(self.dims) - 1
        c = np.empty(q.shape[:-1] + (2, 2, 2), dtype=np.float64)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    c[..., dx, dy, dz] = self.distance[
                        np.minimum(base[..., 0] + dx, hi[0]),
                        np.minimum(base[..., 1] + dy, hi[1]),
                        np.minimum(base[..., 2] + dz, hi[2]),
                    ]
        fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
        gx = (
            (1 - fy) * (1 - fz) * (c[..., 1, 0, 0] - c[..., 0, 0, 0])
            + fy * (1 - fz) * (c[..., 1, 1, 0] - c[..., 0, 1, 0])
            + (1 - fy) * fz * (c[..., 1, 0, 1] - c[..., 0, 0, 1])
            + fy * fz * (c[..., 1, 1, 1] - c[..., 0, 1, 1])
        )
        gy = (
            (1 - fx) * (1 - fz) * (c[..., 0, 1, 0] - c[..., 0, 0, 0])
            + fx * (1 - fz) * (c[..., 1, 1, 0] - c[..., 1, 0, 0])
            + (1 - fx) * fz * (c[..., 0, 1, 1] - c[..., 0, 0, 1])
            + fx * fz * (c[..., 1, 1, 1] - c[..., 1, 0, 1])
        )
        gz = (
            (1 - fx) * (1 - fy) * (c[..., 0, 0, 1] - c[..., 0, 0, 0])
            + fx * (1 - fy) * (c[..., 1, 0, 1] - c[..., 1, 0, 0])
            + (1 - fx) * fy * (c[..., 0, 1, 1] - c[..., 0, 1, 0])
            + fx * fy * (c[..., 1, 1, 1] - c[..., 1, 1, 0])
        )
        return np.stack([gx, gy, gz], axis=-1) / self.voxel_size


def _dt1d_sq(f: np.ndarray) -> np.ndarray:
    """Squared-distance 1D pass along the last axis of an integer array:
    out[..., i] = min_j f[..., j] + (i - j)^2."""
    n = f.shape[-1]
    i = np.arange(n, dtype=np.int64)
    sq = (i[:, None] - i[None, :]) ** 2  # (i, j)
    flat = f.reshape(-1, n)
    out = np.empty_like(flat)
    chunk = max(1, (1 << 22) // (n * n))  # cap working set
    for s in range(0, flat.shape[0], chunk):
        block = flat[s : s + chunk]  # (m, n)
        out[s : s + chunk] = (block[:, None, :] + sq[None, :, :]).min(axis=2)
    return out.reshape(f.shape)


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
        sq = np.moveaxis(_dt1d_sq(np.moveaxis(sq, axis, -1)), -1, axis)
    dist = np.sqrt(sq.astype(np.float64)) * grid.voxel_size
    return DistanceField(grid.dims, grid.bounds, dist)
