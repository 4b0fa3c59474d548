"""Banded exact Euclidean distance transform with continuous sampling.

Distances are measured between voxel centers, in meters, to the nearest
occupied voxel, and saturate at a band of ``band`` voxels: each one is
``min(true, band)`` voxels, exact below the band (an empty grid reads the
band everywhere). The transform is the separable squared-distance method:
three 1D passes of ``D[i] = min_j (f[j] + (i-j)^2)`` over the offsets
``|i - j| < band``, exact in integer arithmetic. Sampling trilinearly
interpolates the voxel-center lattice; out-of-bounds queries clamp to the
boundary cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .scene import GridBounds, OccupancyGrid

# (dx, dy, dz) offsets of a lattice cell's 8 corners, shape (2, 2, 2, 3)
_CORNER_OFFSETS = np.stack(np.meshgrid((0, 1), (0, 1), (0, 1), indexing="ij"), axis=-1)
# the farthest apart two corners of one lattice cell are, in voxels
_CELL_DIAGONAL = math.sqrt(3.0)


def clearance_band(grid: OccupancyGrid, d_safe: float) -> int:
    """The band (voxels) that keeps every distance a refiner with clearance
    target ``d_safe`` (meters) reads exact: ceil(d_safe / voxel + sqrt(3)) + 1,
    clamped to the grid diagonal ceil(|dims|). A trilinear sample below
    d_safe reads only corners closer than d_safe + sqrt(3) voxels, and one
    that reads a saturated corner is already at least d_safe. With
    ``math.inf`` it is the grid diagonal, which no distance reaches: the
    full field."""
    diagonal = math.ceil(math.hypot(*grid.dims))
    reach = d_safe / grid.voxel_size + _CELL_DIAGONAL
    return min(math.ceil(min(reach, diagonal)) + 1, diagonal)


@dataclass(frozen=True)
class DistanceField:
    dims: Tuple[int, int, int]
    bounds: GridBounds
    distance: np.ndarray  # (nx, ny, nz) float64 meters, in [0, band * voxel_size]
    band: int  # voxels; a distance that reaches it reads band * voxel_size

    def __post_init__(self):
        d = np.asarray(self.distance, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "distance", d)
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))

    @property
    def voxel_size(self) -> float:
        return self.bounds.voxel_size

    @property
    def exact_below(self) -> float:
        """Meters below which a sample is exact: its corners lie within
        sqrt(3) voxels of each other, so none of them is saturated. A
        sample at or above it reads at most the true distance."""
        return (self.band - _CELL_DIAGONAL) * self.voxel_size

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


def _edt_pass(f: np.ndarray, axis: int, band: int) -> np.ndarray:
    """Squared-distance 1D pass along ``axis`` of an unsigned integer array
    whose values are at most band^2: out[i] = min_j f[j] + (i - j)^2, one offset
    d = |i - j| at a time. An offset d >= band adds at least band^2 and so
    changes nothing."""
    out = f.copy()
    lead = (slice(None),) * axis
    for d in range(1, min(band, f.shape[axis])):
        lo, hi = lead + (slice(None, -d),), lead + (slice(d, None),)
        np.minimum(out[hi], f[lo] + d * d, out=out[hi])
        np.minimum(out[lo], f[hi] + d * d, out=out[lo])
    return out


def compute_edt(grid: OccupancyGrid, band: int) -> DistanceField:
    """Euclidean distance (meters) from each voxel center to the nearest
    occupied voxel center, saturated at ``band`` voxels: min(true, band),
    exact below the band."""
    # a pass never holds more than band^2 + (band - 1)^2, so the smallest
    # unsigned type that holds 2 band^2 cannot wrap
    dtype = np.min_scalar_type(2 * band * band)
    sq = np.where(grid.occupied, dtype.type(0), dtype.type(band * band))
    for axis in (2, 1, 0):
        sq = _edt_pass(sq, axis, band)
    dist = np.sqrt(sq.astype(np.float64)) * grid.voxel_size
    return DistanceField(grid.dims, grid.bounds, dist, band)
