"""Scene ingestion: point clouds, synthetic primitives, and voxelization.

World coordinates are meters. Voxel cells are half-open boxes
``[min + i*s, min + (i+1)*s)`` so every in-bounds point lands in exactly
one cell; cell centers sit at ``min + (i + 0.5)*s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import OutOfBounds, ParseError

Vec3 = Tuple[float, float, float]


@dataclass(frozen=True)
class GridBounds:
    min_corner: Vec3
    voxel_size: float  # meters

    def __post_init__(self):
        if not (self.voxel_size > 0 and np.isfinite(self.voxel_size)):
            raise ParseError(f"grid.voxel_size_m must be positive, got {self.voxel_size}")
        if not np.isfinite(np.asarray(self.min_corner, dtype=np.float64)).all():
            raise ParseError(f"grid.min_corner_m must be finite, got {self.min_corner}")
        object.__setattr__(self, "min_corner", tuple(float(c) for c in self.min_corner))

    def cell(self, p, dims):
        """The half-open cell of each world point in ``p`` (shape ``(..., 3)``),
        floor((p - min_corner) / voxel_size) as floats, and whether it lies in
        a grid of ``dims`` cells. The test runs on the floats, so NaN, an
        infinity or an index too large for an int is outside, with no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.floor((np.asarray(p, dtype=np.float64) - self.min_corner) / self.voxel_size)
        return q, np.all((q >= 0) & (q < np.asarray(dims)), axis=-1)


@dataclass(frozen=True)
class OccupancyGrid:
    dims: Tuple[int, int, int]
    bounds: GridBounds
    occupied: np.ndarray  # (nx, ny, nz) bool

    def __post_init__(self):
        occ = np.asarray(self.occupied, dtype=bool)
        if occ.shape != tuple(self.dims):
            raise ValueError(f"occupancy shape {occ.shape} != dims {self.dims}")
        occ.setflags(write=False)
        object.__setattr__(self, "occupied", occ)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def voxel_size(self) -> float:
        return self.bounds.voxel_size

    @property
    def min_corner(self) -> np.ndarray:
        return np.asarray(self.bounds.min_corner, dtype=np.float64)

    def world_to_grid(self, p) -> Tuple[int, int, int]:
        """Cell index of the half-open cell containing world point ``p``."""
        q, inside = self.bounds.cell(p, self.dims)
        if not inside:
            raise OutOfBounds(f"point {tuple(np.asarray(p, float).tolist())} outside grid")
        return tuple(int(v) for v in q)

    def grid_to_world(self, cell) -> np.ndarray:
        """World-space center of cell ``cell``, or of each row of an (n, 3)
        array of cells."""
        c = np.asarray(cell, dtype=np.int64)
        if np.any(c < 0) or np.any(c >= np.asarray(self.dims)):
            raise OutOfBounds(f"cell {c.tolist()} out of range {self.dims}")
        return self.min_corner + (c + 0.5) * self.voxel_size

    def is_free(self, cell) -> bool:
        return not bool(self.occupied[tuple(int(v) for v in cell)])


# --- synthetic primitives -------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box occupying [min_m, max_m]."""

    min_m: Vec3
    max_m: Vec3
    name: str = "box"

    def contains(self, p: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.min_m)
        hi = np.asarray(self.max_m)
        return np.all((p >= lo) & (p <= hi), axis=-1)

    def mark(self, occ: np.ndarray, axes) -> None:
        """Set the cells of ``occ`` whose center ``contains`` would accept;
        ``axes`` holds the center coordinates along each axis. The test
        separates by axis, so each axis's centers are compared once."""
        inside = [(a >= lo) & (a <= hi) for a, lo, hi in zip(axes, self.min_m, self.max_m)]
        occ[np.ix_(*inside)] = True


@dataclass(frozen=True)
class Sphere:
    center_m: Vec3
    radius_m: float
    name: str = "sphere"

    def __post_init__(self):
        if not self.radius_m > 0:  # NaN fails too
            raise ParseError(f"sphere.radius_m must be positive, got {self.radius_m}")

    def contains(self, p: np.ndarray) -> np.ndarray:
        d = p - np.asarray(self.center_m)
        # r * r goes to inf where r**2 would raise OverflowError
        return np.einsum("...k,...k->...", d, d) <= self.radius_m * self.radius_m

    def mark(self, occ: np.ndarray, axes) -> None:
        """As ``Box.mark``, with ``contains`` run only inside the sphere's
        bounding window: the centers whose squared offset along each axis
        alone is within r^2. A sum of squares is at least each of its
        terms, in floats too, so no center outside the window is inside."""
        r2 = self.radius_m * self.radius_m
        window = [(a - c) * (a - c) <= r2 for a, c in zip(axes, self.center_m)]
        sub = np.meshgrid(*(a[w] for a, w in zip(axes, window)), indexing="ij")
        occ[np.ix_(*window)] |= self.contains(np.stack(sub, axis=-1))


@dataclass(frozen=True)
class Plane:
    """Half-space along one axis: occupied where coord <= offset (side
    "below") or coord >= offset (side "above")."""

    axis: int  # 0, 1, 2
    offset_m: float
    side: str = "below"
    name: str = "plane"

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ParseError(f"plane.axis must be 0, 1 or 2, got {self.axis!r}")
        if self.side not in ("below", "above"):
            raise ParseError(f"plane.side must be 'below' or 'above', got {self.side!r}")

    def contains(self, p: np.ndarray) -> np.ndarray:
        coord = p[..., self.axis]
        return coord <= self.offset_m if self.side == "below" else coord >= self.offset_m

    def mark(self, occ: np.ndarray, axes) -> None:
        """As ``Box.mark``: only the plane's axis is compared."""
        a = axes[self.axis]
        index = [slice(None)] * 3
        index[self.axis] = a <= self.offset_m if self.side == "below" else a >= self.offset_m
        occ[tuple(index)] = True


Primitive = Union[Box, Sphere, Plane]


@dataclass(frozen=True)
class SceneSpec:
    primitives: Tuple[Primitive, ...]
    effector_start: Vec3
    object_position: Vec3
    place_target: Vec3
    grasp_offset: Optional[Vec3] = None  # affordance point relative to object center

    def grasp_point(self) -> np.ndarray:
        obj = np.asarray(self.object_position, float)
        if self.grasp_offset is None:
            return obj
        return obj + np.asarray(self.grasp_offset, float)


# --- operations -----------------------------------------------------------


def load_point_cloud(path) -> np.ndarray:
    """Read an ASCII XYZ ("x y z" per line) or ASCII PLY point cloud as an
    ``(n, 3)`` float64 array of world meters."""
    try:
        with open(path, "r", encoding="ascii", errors="strict") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not ASCII: {e}") from e

    if lines and lines[0].strip() == "ply":
        return _parse_ply(lines, path)
    return _parse_xyz(lines, path)


def _vertex(path, ln: int, parts, idx) -> List[float]:
    """x, y, z from fields ``idx`` of line ``ln``: the one place a cloud
    coordinate is parsed and checked finite, for both file formats."""
    try:
        xyz = [float(parts[i]) for i in idx]
    except (IndexError, ValueError) as e:
        raise ParseError(f"{path}:{ln}: bad vertex line: {e}") from e
    if not np.isfinite(xyz).all():
        raise ParseError(f"{path}:{ln}: non-finite coordinate")
    return xyz


def _parse_xyz(lines, path) -> np.ndarray:
    pts = []
    for ln, line in enumerate(lines, start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) < 3:
            raise ParseError(f"{path}:{ln}: expected 3 coordinates, got {len(parts)}")
        pts.append(_vertex(path, ln, parts, (0, 1, 2)))
    return np.asarray(pts, dtype=np.float64).reshape(-1, 3)


def _parse_ply(lines, path) -> np.ndarray:
    n_vertices = None
    props = []
    header_end = None
    in_vertex_element = False
    for ln, line in enumerate(lines, start=1):
        s = line.strip()
        if ln == 2 and not s.startswith("format ascii"):
            raise ParseError(f"{path}:{ln}: only ASCII PLY is supported")
        if s.startswith("element"):
            parts = s.split()
            in_vertex_element = len(parts) == 3 and parts[1] == "vertex"
            if in_vertex_element:
                if not parts[2].isdigit():
                    raise ParseError(f"{path}:{ln}: bad vertex count {parts[2]!r}")
                n_vertices = int(parts[2])
        elif s.startswith("property") and in_vertex_element:
            props.append(s.split()[-1])
        elif s == "end_header":
            header_end = ln
            break
    if header_end is None or n_vertices is None:
        raise ParseError(f"{path}: PLY header missing vertex element or end_header")
    try:
        ix, iy, iz = props.index("x"), props.index("y"), props.index("z")
    except ValueError:
        raise ParseError(f"{path}: PLY vertex element lacks x/y/z properties")

    pts = []
    for ln in range(header_end + 1, header_end + 1 + n_vertices):
        if ln > len(lines):
            raise ParseError(f"{path}:{ln}: expected {n_vertices} vertices, file truncated")
        pts.append(_vertex(path, ln, lines[ln - 1].split(), (ix, iy, iz)))
    return np.asarray(pts, dtype=np.float64).reshape(-1, 3)


def voxelize(points: np.ndarray, dims, bounds: GridBounds):
    """Bin ``(n, 3)`` points into a boolean grid.

    Returns (grid, n_outside): a voxel is occupied iff at least one point
    falls in its half-open cell; points outside the grid extent are only
    counted.
    """
    occ = np.zeros(dims, dtype=bool)
    q, inside = bounds.cell(points, dims)
    occ[tuple(q[inside].astype(np.int64).T)] = True
    return OccupancyGrid(dims, bounds, occ), int((~inside).sum())


def synth_scene(spec: SceneSpec, dims, bounds: GridBounds) -> OccupancyGrid:
    """Voxelize parametric primitives: a voxel is occupied iff its center
    lies inside any primitive."""
    axes = [
        np.asarray(bounds.min_corner)[k] + (np.arange(dims[k]) + 0.5) * bounds.voxel_size
        for k in range(3)
    ]
    occ = np.zeros(dims, dtype=bool)
    for prim in spec.primitives:
        prim.mark(occ, axes)
    return OccupancyGrid(dims, bounds, occ)
