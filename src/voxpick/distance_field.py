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

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .scene import GridBounds, OccupancyGrid

# A cell's 8 corners (dx, dy, dz) in C order, 000, 001, ..., 111, so the
# bit of axis i in a corner's index is 4 >> i. Its weights are kept flat,
# (1 - f, f): side d of axis i weighs w[..., 3 d + i].
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))
_CORNER_W = 3 * _CORNERS.T + np.arange(3)[:, None]  # (axis, corner)
# The gradient along an axis sums the 4 corner pairs across it, at sides
# (a, b) = 00, 10, 01, 11 of its other two axes; per (axis, pair): the a
# and b weights, and the lower corner (the upper one sets the axis's bit).
_OTHER = np.array([[1, 2], [0, 2], [0, 1]])
_SIDES = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
_PAIR_W = 3 * _SIDES.T[:, None, :] + _OTHER.T[:, :, None]
_LOWER = (4 >> _OTHER) @ _SIDES.T
_UPPER = _LOWER + (4 >> np.arange(3))[:, None]
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
        dims = tuple(int(v) for v in self.dims)
        object.__setattr__(self, "dims", dims)
        # the corner gather's constants: the origin, the clamps of the lattice
        # coordinate and of the base, the flat strides, and each corner's flat
        # offset from the base. base + 1 <= hi on an axis of two or more
        # cells, so only an axis of one cell clamps its upper corner: step 0.
        hi = np.asarray(dims) - 1
        strides = np.array([dims[1] * dims[2], dims[2], 1])
        object.__setattr__(self, "_gather", (
            np.asarray(self.bounds.min_corner, dtype=np.float64), hi.astype(np.float64),
            np.maximum(hi - 1, 0), strides, _CORNERS @ np.where(hi > 0, strides, 0)))

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
        lattice: ``w[..., 3 * k + axis]`` is ``1 - f`` for side k = 0 and
        ``f`` for k = 1, and ``c[..., k]`` the distance at corner
        ``_CORNERS[k]``. Both clamps on the base stay: floor(NaN) casts to
        the most negative int64, and clamped it reads a real corner, so a
        NaN coordinate gives NaN, not an IndexError."""
        origin, q_hi, base_hi, strides, offsets = self._gather
        q = (np.asarray(p, dtype=np.float64) - origin) / self.voxel_size - 0.5
        q = np.minimum(np.maximum(q, 0.0), q_hi)
        base = np.minimum(np.maximum(np.floor(q).astype(np.int64), 0), base_hi)
        f = q - base
        c = self.distance.reshape(-1)[(base @ strides)[..., None] + offsets]
        return np.concatenate([1 - f, f], axis=-1), c

    def sample(self, p):
        """Trilinear interpolation of the distance lattice at world
        point(s) ``p`` (shape (..., 3))."""
        w, c = self._corners(p)
        g = w[..., _CORNER_W]  # (..., axis, corner)
        # summed corner by corner in C order: an accumulate is sequential
        return np.add.accumulate(g[..., 0, :] * g[..., 1, :] * g[..., 2, :] * c, axis=-1)[..., -1]

    def gradient(self, p) -> np.ndarray:
        """Spatial gradient of the trilinear interpolant (per meter),
        piecewise multilinear within each lattice cell."""
        w, c = self._corners(p)
        # (..., axis, pair): the pair's a and b weights times its difference
        t = w[..., _PAIR_W[0]] * w[..., _PAIR_W[1]] * (c[..., _UPPER] - c[..., _LOWER])
        return np.add.accumulate(t, axis=-1)[..., -1] / self.voxel_size


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
