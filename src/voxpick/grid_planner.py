"""Three-stage A* initialization on the occupancy grid.

Search runs under 26-connectivity with Euclidean edge costs and an
admissible straight-line heuristic. Obstacles are inflated by an integer
Chebyshev clearance before search so initial paths keep away from
surfaces; if inflation swallows a keypoint the search retries without
inflation and flags it.

Layout and tie-break contract: the search runs on the free mask padded by
one blocked voxel on every side and flattened in C order, so a cell is one
int and the blocked border replaces bounds checks. Open-set ties break on
lower f, then lower h, then lexicographic cell order (which is flat-index
order), and a cell keeps the first parent that reached it at its lowest g,
so equal-cost paths come out the same on every run.

Pruning bound: once a search has popped ``_BOUND_AFTER_POPS`` of the
padded grid's cells, two numpy BFS run from the goal over the padded mask.
The first counts 26-connected hops; walking down them from the start gives
the cost U of a feasible path, so U >= the optimal cost C*. The second
weights each step by its L1 length (1 face, 2 edge, 3 corner) and gives
G1, the least L1 length of a path to the goal; it stops once the start is
settled, and a cell not settled by then gets that level, a lower bound on
its G1. With B = (sqrt(3) - 1)/2 every step costs at least (1 - B) + B *
(its L1 length), with equality for face and corner steps, so a path of N
steps and L1 length L costs at least (1 - B) N + B L; as L >= N >= hops
and L >= G1, a cell's cost to go is at least
lb = (1 - B) hops + B max(G1, hops) >= hops. The search then skips any
push, and any popped entry, whose g + max(lb, h) exceeds U(1 + 1e-9). A
cell on an optimal path has g* + lb <= C* <= U, so it is never skipped and
keeps the key it has without the bound; a skipped cell lies on no optimal
path and so is never the parent of a path cell. Cells, cost and tie-breaks
are therefore the same as without the bound; only work is skipped. If the
hop BFS never reaches the start, the goal cannot be reached and the search
ends at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from math import inf, sqrt
from typing import Optional, Tuple

import numpy as np

from .errors import NoPath
from .scene import OccupancyGrid


class Stage(Enum):
    APPROACH = "approach"
    MANIPULATE = "manipulate"
    BACK_IDLE = "back_idle"


STAGE_ORDER = (Stage.APPROACH, Stage.MANIPULATE, Stage.BACK_IDLE)

# 26-neighborhood offsets with step lengths, in deterministic order
_NEIGHBORS = tuple(
    ((dx, dy, dz), sqrt(dx * dx + dy * dy + dz * dz))
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)


@dataclass(frozen=True)
class SubTrajectory:
    stage: Stage
    points: np.ndarray  # (n, 3) float64 world meters
    cost: float = 0.0  # grid path cost, meters
    clearance_used: int = 0  # inflation actually applied (0 after fallback)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Trajectory:
    subs: Tuple[SubTrajectory, SubTrajectory, SubTrajectory]

    def __post_init__(self):
        stages = tuple(s.stage for s in self.subs)
        if stages != STAGE_ORDER:
            raise ValueError(f"sub-trajectory stages must be {STAGE_ORDER}, got {stages}")
        for a, b in zip(self.subs[:-1], self.subs[1:]):
            if not np.array_equal(a.points[-1], b.points[0]):
                raise ValueError(
                    f"junction mismatch between {a.stage.value} and {b.stage.value}"
                )

    def waypoints(self) -> np.ndarray:
        """Concatenated path with shared junction points emitted once."""
        return np.concatenate(
            [self.subs[0].points] + [s.points[1:] for s in self.subs[1:]], axis=0
        )


def dilate_chebyshev(occ: np.ndarray, clearance: int) -> np.ndarray:
    """Inflate occupancy by a Chebyshev ball of radius ``clearance``
    (separable 1D max along each axis; a shift past an axis's last cell
    slices nothing, so each axis stops there)."""
    if clearance <= 0:
        return occ
    out = occ
    for axis in range(3):
        acc = out.copy()
        lead = (slice(None),) * axis
        for shift in range(1, min(clearance, occ.shape[axis] - 1) + 1):
            lo, hi = lead + (slice(None, -shift),), lead + (slice(shift, None),)
            acc[lo] |= out[hi]
            acc[hi] |= out[lo]
        out = acc
    return out


# A search builds its pruning bound once it has popped this share of the
# padded grid's cells. On the 64^3 partition grid (287,496 padded cells,
# 2-vCPU VM) a build took 14-35 ms, the time of 4,000-10,000 unpruned pops
# at 3.5 us each, but it cuts a search that climbs the divider about
# eightfold: over the 24 seed-0 partition legs, a trigger of cells/64 popped
# 132,607 entries in 0.87 s and this one (1,123 pops) 59,255 in 0.65 s.
# Searches that end sooner, like every sink leg (34-37 pops), never pay.
_BOUND_AFTER_POPS = 1 / 256

# every step costs at least (1 - _B) + _B * (its L1 length)
_B = (sqrt(3) - 1) / 2


def _or_shifted(dst: np.ndarray, src: np.ndarray, d: int) -> None:
    """``dst |= src`` moved by -d and by +d along the flat layout; the
    blocked border keeps every shift from wrapping into a free cell."""
    dst[d:] |= src[:-d]
    dst[:-d] |= src[d:]


def _hop_bound(padded: np.ndarray, s: int, t: int):
    """The pruning bound of the module docstring from flat cell ``s`` to
    ``t``: (U, hops as a ``bytearray`` saturated at 255, max(G1, hops) as
    a uint16 memoryview saturated at 65535), or ``None`` when ``t`` cannot
    reach ``s``. The walk down takes the shortest step to a cell one hop
    nearer. The hop BFS stops once every count up to U is known; a cell not
    reached by then gets the next count, which exceeds U. Either BFS's
    level L lies within L x-slabs of ``t``, so it works only on the slabs
    within L + 1 (the flat layout is x-major)."""
    free = padded.ravel()
    pz = padded.shape[2]
    sx = padded.shape[1] * pz
    xt = t // sx

    def slabs(level):
        return slice(max(xt - level - 1, 0) * sx, (xt + level + 2) * sx)

    # flat moves, shortest step first
    down = sorted(
        ((dx * sx + dy * pz + dz, step) for (dx, dy, dz), step in _NEIGHBORS),
        key=lambda m: m[1],
    )
    hops = np.full(free.size, -1, dtype=np.int32)  # -1 until reached
    hops[t] = 0
    unseen = free.copy()
    unseen[t] = False
    front = np.zeros_like(free)
    front[t] = True
    a, b = np.zeros_like(free), np.zeros_like(free)
    level, bound = 0, inf
    while level < bound:
        w = slabs(level)
        # the front grown by one voxel, separably along z, y and x
        src = front[w]
        for d, dst in ((1, a[w]), (pz, b[w]), (sx, a[w])):
            np.copyto(dst, src)
            _or_shifted(dst, src, d)
            src = dst
        np.logical_and(src, unseen[w], out=front[w])
        if not front[w].any():
            break
        unseen[w] ^= front[w]
        level += 1
        np.copyto(hops[w], level, where=front[w])
        if bound == inf and hops[s] >= 0:
            i, bound = s, 0.0
            while i != t:
                want = hops[i] - 1
                off, step = next(m for m in down if hops[i + m[0]] == want)
                i += off
                bound += step
    if bound == inf:
        return None
    np.copyto(hops, level + 1, where=unseen)
    hops = hops.clip(0, 255, out=hops).astype(np.uint8)

    # G1 by Dial's buckets, a ring of 4 as no step is longer than 3; the
    # front's z shifts (p), then its y-and-z (q) and y-or-z (p) shifts,
    # then x, give its face, edge and corner neighbours
    geo = np.zeros(free.size, dtype=np.uint16)
    np.copyto(unseen, free)
    ring = [front, np.zeros_like(free), np.zeros_like(free), np.zeros_like(free)]
    front.fill(False)
    front[t] = True
    level = 0
    while True:
        w = slabs(level)
        front, p, q = ring[level % 4][w], a[w], b[w]
        front &= unseen[w]
        unseen[w] ^= front
        np.copyto(geo[w], min(level, 65535), where=front)
        if ring[level % 4][s]:
            break
        p.fill(False)
        _or_shifted(p, front, 1)
        q.fill(False)
        _or_shifted(q, p, pz)
        _or_shifted(p, front, pz)
        _or_shifted(ring[(level + 3) % 4][w], q, sx)
        ring[(level + 2) % 4][w] |= q
        _or_shifted(ring[(level + 2) % 4][w], p, sx)
        ring[(level + 1) % 4][w] |= p
        _or_shifted(ring[(level + 1) % 4][w], front, sx)
        front.fill(False)
        level += 1
    np.copyto(geo, min(level, 65535), where=unseen)
    np.maximum(geo, hops, out=geo)
    return bound, bytearray(hops), geo.data


def _astar_cells(free: np.ndarray, start, goal):
    """Deterministic A* over the free mask; returns the cell path and its
    cost, or ``(None, inf)``, also when either end is blocked. Layout,
    tie-breaks and the pruning bound as in the module docstring: cell
    (x, y, z) is the int ``(x+1)*sx + (y+1)*pz + (z+1)``.
    """
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    if not (free[start] and free[goal]):
        return None, inf
    if start == goal:
        return [start], 0.0

    nx, ny, nz = free.shape
    pz = nz + 2  # flat stride of y
    sx = (ny + 2) * pz  # flat stride of x
    padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = free
    open_ = bytearray(padded)  # 1 while a cell is free and not closed
    moves = tuple(
        (dx * sx + dy * pz + dz, dx, dy, dz, step, k)
        for k, ((dx, dy, dz), step) in enumerate(_NEIGHBORS)
    )
    gx, gy, gz = goal[0] + 1, goal[1] + 1, goal[2] + 1
    s = (start[0] + 1) * sx + (start[1] + 1) * pz + start[2] + 1
    t = gx * sx + gy * pz + gz
    g = [inf] * len(open_)
    g[s] = 0.0
    came_by = bytearray(len(open_))  # index of the move that set each cell's g
    # until the bound is built nothing is pruned: lim is inf
    lim, hops = inf, bytearray(len(open_))
    geo, lo, hi = hops, 1 - _B, _B  # lb = lo * hops + hi * geo
    bound_after = len(open_) * _BOUND_AFTER_POPS
    pops = 0

    # h from integer differences: the squared distance is exact, so it
    # equals the float64 Euclidean distance bit for bit
    ex, ey, ez = gx - start[0] - 1, gy - start[1] - 1, gz - start[2] - 1
    h0 = sqrt(ex * ex + ey * ey + ez * ez)
    heap = [(h0, h0, s)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        f, _, i = pop(heap)
        pops += 1
        if pops > bound_after:
            bound_after = inf
            bound = _hop_bound(padded, s, t)
            if bound is None:
                return None, inf
            lim, hops, geo = bound[0] * (1 + 1e-9), bound[1], bound[2]
        if not open_[i]:
            continue
        if i == t:
            break
        open_[i] = 0
        gc = g[i]
        if f > lim or gc + lo * hops[i] + hi * geo[i] > lim:
            continue  # pushed before the bound was built; on no optimal path
        x, r = divmod(i, sx)
        y, z = divmod(r, pz)
        ex, ey, ez = gx - x, gy - y, gz - z
        for off, dx, dy, dz, step, k in moves:
            j = i + off
            if open_[j]:
                ng = gc + step
                if ng < g[j] and ng + lo * hops[j] + hi * geo[j] <= lim:
                    a, b, c = ex - dx, ey - dy, ez - dz
                    hn = sqrt(a * a + b * b + c * c)
                    fn = ng + hn
                    if fn <= lim:
                        g[j] = ng
                        came_by[j] = k
                        push(heap, (fn, hn, j))
    else:
        return None, inf

    path = [t]
    while i != s:
        i -= moves[came_by[i]][0]
        path.append(i)
    cells = []
    for i in reversed(path):
        x, r = divmod(i, sx)
        y, z = divmod(r, pz)
        cells.append((x - 1, y - 1, z - 1))
    return cells, g[t]


def plan_segment(
    grid: OccupancyGrid,
    start,
    goal,
    clearance_voxels: int = 1,
    stage: Stage = Stage.APPROACH,
    free: Optional[np.ndarray] = None,
) -> SubTrajectory:
    """Minimal-cost 26-connected path between two cells, as voxel centers;
    ``NoPath`` also when either cell is occupied. ``free`` is the grid's
    free mask at ``clearance_voxels``, when the caller has already
    inflated it."""
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)

    clearance = int(clearance_voxels)
    if free is None:
        free = ~dilate_chebyshev(grid.occupied, clearance)
    if clearance > 0 and (not free[start] or not free[goal]):
        clearance = 0
        free = ~grid.occupied
    cells, cost = _astar_cells(free, start, goal)
    if cells is None:
        raise NoPath(f"{stage.value}: no path from {start} to {goal} at clearance {clearance}")
    points = np.asarray([grid.grid_to_world(c) for c in cells], dtype=np.float64)
    return SubTrajectory(
        stage=stage, points=points, cost=float(cost * grid.voxel_size), clearance_used=clearance
    )


def plan_three_stage(
    grid: OccupancyGrid,
    effector,
    grasp,
    target,
    clearance_voxels: int = 1,
) -> Trajectory:
    """Initial trajectory: approach (effector -> grasp point), manipulate
    (grasp point -> target), back-idle (target -> effector).

    Keypoints are snapped to voxel centers for search; the exact world
    keypoints replace the first/last point of each stage afterwards.
    """
    effector, grasp, target = (np.asarray(p, dtype=np.float64) for p in (effector, grasp, target))
    ce, cg, ct = (grid.world_to_grid(p) for p in (effector, grasp, target))
    legs = (
        (Stage.APPROACH, ce, cg, effector, grasp),
        (Stage.MANIPULATE, cg, ct, grasp, target),
        (Stage.BACK_IDLE, ct, ce, target, effector),
    )
    # inflated once; a leg whose keypoint it buries falls back on its own
    free = ~dilate_chebyshev(grid.occupied, int(clearance_voxels))
    subs = []
    for stage, c0, c1, p0, p1 in legs:
        sub = plan_segment(grid, c0, c1, clearance_voxels, stage=stage, free=free)
        pts = np.array(sub.points)
        if len(pts) == 1 and not np.array_equal(p0, p1):
            pts = np.stack([p0, p1])  # distinct keypoints sharing one cell
        else:
            pts[0] = p0
            pts[-1] = p1
        subs.append(
            SubTrajectory(
                stage=stage, points=pts, cost=sub.cost, clearance_used=sub.clearance_used
            )
        )
    return Trajectory(subs=tuple(subs))
