"""Three-stage A* initialization on the occupancy grid.

Search runs under 26-connectivity with Euclidean edge costs and an
admissible straight-line heuristic. Obstacles are inflated by an integer
Chebyshev clearance before search so initial paths keep away from
surfaces. A leg whose start or goal the inflation buries searches the raw
mask instead, and records clearance 0; there is no retry, so a leg with
no path on the mask it picked ends in ``NoPath``.

Layout and tie-break contract: the search runs on the free mask padded by
one blocked voxel on every side and flattened in C order, so a cell is one
int and the blocked border replaces bounds checks. Open-set ties break on
lower f, then lower h, then lexicographic cell order (which is flat-index
order), and a cell keeps the first parent that reached it at its lowest g,
so equal-cost paths come out the same on every run. A plan pads each mask
it searches, and packs it as below, once for all its legs.

Pruning bound: once a search has popped ``_BOUND_AFTER_POPS`` of the
padded grid's cells, one numpy BFS routine (``_levels``) runs twice from
the goal over a bitboard of the padded mask. Each (x, y) row's nz interior
cells are packed into ceil(nz / 64) little-endian uint64 words, cell z at
bit (z - 1) % 64 of word (z - 1) // 64, and the rows follow each other
x-major as in the padded layout. A z step is then a one-bit shift, with a
carry into the next word of the same row and never into another row; a y
step is a shift by one row's words and an x step by one x-slab's, which
the blocked border rows keep from wrapping. The routine is Dial's buckets
(Dial, CACM 1969): a face, edge and corner step weigh at most 3 each, so
a ring of 4 buckets holds every open level. It stops once the level L
holding the start is settled, and gives every cell not settled by then
L + 1, a lower bound on its level, as all of level L is settled. A level
ORs its cells into bit-plane k for each bit k set in level + 1, so a
blocked cell reads 0 and memory grows with the log of the level count,
and the planes are unpacked into a per-cell table once. With every step
weighing 1 the routine counts 26-connected hops; walking down them from
the start gives the cost U of a feasible path, so U >= the optimal cost
C*. With each step weighing its L1 length (1 face, 2 edge, 3 corner) it
gives G1, the least L1 length of a path to the goal. Both tables hold at
most the true values. With B = (sqrt(3) - 1)/2 every step costs at least
(1 - B) + B * (its L1 length), with equality for face and corner steps,
so a path of N steps and L1 length L costs at least (1 - B) N + B L; as
L >= N >= hops and L >= G1, a cell's cost to go is at least
lb = (1 - B) hops + B max(G1, hops) >= hops. The search then skips any
push, and any popped entry, whose g + max(lb, h) exceeds U(1 + 1e-9). A
cell on an optimal path has g* + lb <= C* <= U, so it is never skipped and
keeps the key it has without the bound; a skipped cell lies on no optimal
path and so is never the parent of a path cell. Cells, cost and tie-breaks
are therefore the same as without the bound; only work is skipped. If the
hop count never reaches the start, the goal cannot be reached and the
search ends at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from math import inf, sqrt
from typing import Tuple

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
# 2-vCPU VM) a bitboard build takes 3.7-7.0 ms (the bool-mask BFS took
# 15-41 ms), the time of 1,050-2,000 unpruned pops at 3.5 us each. The 24
# seed-0 partition legs pop 712,836 entries unpruned; with a trigger of
# cells/256 (1,123 pops) they popped 59,255, and with this one (281 pops)
# 38,022. Searches that end sooner, like every sink leg (34-37 pops),
# never pay.
_BOUND_AFTER_POPS = 1 / 1024

# every step costs at least (1 - _B) + _B * (its L1 length)
_B = (sqrt(3) - 1) / 2

_WORD = np.dtype("<u8")  # a bitboard word: a row's z cells 64j..64j+63, low bit first
# shift amounts as uint64 scalars keep every shift in uint64 under numpy 1.x too
_ONE, _TOP = np.uint64(1), np.uint64(63)


class _Board(np.ndarray):
    """A free mask prepared once for every search on it (``_prepare``):
    ``padded`` is the mask padded by one blocked voxel on every side, and
    ``bits`` that padded mask as a bitboard. It is still the free mask, so
    whatever searches a mask takes it."""


def _pack(padded: np.ndarray) -> np.ndarray:
    """The bitboard of a padded mask: row (x, y) holds its interior cells z
    = 1..nz in ceil(nz / 64) words, cell z at bit (z - 1) % 64 of word
    (z - 1) // 64, flattened x-major like the padded layout."""
    px, py, pz = padded.shape
    nz = pz - 2
    out = np.zeros((px, py, -(-nz // 64) * 8), dtype=np.uint8)
    out[:, :, : -(-nz // 8)] = np.packbits(padded[:, :, 1:-1], axis=2, bitorder="little")
    return out.view(_WORD).ravel()


def _prepare(free: np.ndarray) -> _Board:
    """``free`` as a ``_Board``."""
    free = np.asarray(free, dtype=bool)
    board = free.view(_Board)
    board.padded = np.pad(free, 1)
    board.bits = _pack(board.padded)
    return board


def _or_shifted(dst: np.ndarray, src: np.ndarray, d: int) -> None:
    """``dst |= src`` moved by -d and by +d words: a y step when d is a
    row's words, an x step when it is a slab's. The blocked border rows
    keep every shift from wrapping into a free cell."""
    dst[d:] |= src[:-d]
    dst[:-d] |= src[d:]


def _z_shifted(dst: np.ndarray, src: np.ndarray, row: int, tmp: np.ndarray) -> None:
    """``dst = src`` moved by -1 and by +1 cell along z: a shift of each
    word by one bit, and for rows of ``row`` > 1 words the carry into the
    next or last word of the same row, never of another row. A bit shifted
    onto a word's unused high bits is cleared by the next ``& unseen``."""
    np.left_shift(src, _ONE, out=dst)
    np.right_shift(src, _ONE, out=tmp)
    dst |= tmp
    if row > 1:
        # the carries, computed over the flat words; a carry into a row's
        # first or last word came from another row and is dropped
        np.right_shift(src[:-1], _TOP, out=tmp[1:])
        tmp[::row] = 0
        dst |= tmp
        np.left_shift(src[1:], _TOP, out=tmp[:-1])
        tmp[row - 1 :: row] = 0
        dst |= tmp


def _mark(planes: list, level: int, cells: np.ndarray, w: slice) -> None:
    """Write ``level`` for ``cells`` (a bitboard window ``w``) into bit-planes:
    plane k holds the cells whose level has bit k set."""
    for k in range(level.bit_length()):
        if k == len(planes):
            planes.append(np.zeros_like(planes[0]))
        if level >> k & 1:
            planes[k][w] |= cells


def _unpack(planes: list, shape) -> np.ndarray:
    """Each cell's level from its bit-planes, in the flat padded layout (0
    on the padding and on cells no plane holds), as the least unsigned int
    that holds every level. Planes 8j..8j+7 fill byte lane j."""
    px, py, pz = shape
    lanes = np.zeros((-(-len(planes) // 8), planes[0].size * 64), dtype=np.uint8)
    for k, plane in enumerate(planes):
        bit = np.unpackbits(plane.view(np.uint8), bitorder="little")
        # each cell's 0 or 1 moved to bit k % 8 of its byte by one shift of
        # whole words, which moves no bit out of its byte
        lanes[k // 8] |= np.left_shift(bit.view(np.uint64), np.uint64(k % 8)).view(np.uint8)
    level = lanes[0].astype(np.min_scalar_type((1 << len(planes)) - 1), copy=False)
    for j in range(1, len(lanes)):
        level |= lanes[j].astype(level.dtype) << level.dtype.type(8 * j)
    out = np.zeros(shape, dtype=level.dtype)
    out[:, :, 1:-1] = level.reshape(px, py, -1)[:, :, : pz - 2]
    return out.ravel()


def _levels(bits: np.ndarray, shape, s: int, t: int, weights):
    """Each free cell's level from flat cell ``t`` by Dial's buckets on
    ``bits``, the bitboard (``_pack``) of a padded mask of ``shape``, when a
    face, edge and corner step weigh ``weights`` (each 1 to 3, so a ring of
    4 buckets holds every level still open). Returns level + 1 per cell in
    the flat padded layout, 0 off the free cells, or ``None`` when ``t``
    cannot reach ``s``. It stops once the level L holding ``s`` is
    settled; a cell not settled by then gets L + 1, a lower bound on its
    level as all of level L is settled. Level L lies within L x-slabs of
    ``t``, so it works only on the slabs within L + 1 (the flat layout is
    x-major)."""
    px, py, pz = shape
    row = bits.size // (px * py)  # words per row
    slab = py * row  # words per x-slab
    xt = t // (py * pz)

    def word(i):  # a flat cell's word and its bit there
        r, z = divmod(i - 1, pz)  # its row, and its z counted from 0
        return r * row + z // 64, np.uint64(1 << z % 64)

    (ws, bs), (wt, bt) = word(s), word(t)
    unseen = bits.copy()
    ring = [np.zeros_like(bits) for _ in range(4)]
    ring[0][wt] = bt
    a, b, c = np.zeros_like(bits), np.zeros_like(bits), np.zeros_like(bits)
    planes = [np.zeros_like(bits)]
    level = 0
    while True:
        w = slice(max(xt - level - 1, 0) * slab, (xt + level + 2) * slab)
        front, p, q = ring[level % 4][w], a[w], b[w]
        front &= unseen[w]  # the bucket, less cells settled since it was filled
        if not front.any() and not any((r[w] & unseen[w]).any() for r in ring):
            return None
        unseen[w] ^= front
        _mark(planes, level + 1, front, w)
        if ring[level % 4][ws] & bs:
            break
        # the front's z shifts (p), then its y-and-z (q) and y-or-z (p)
        # shifts, then x, give its face, edge and corner neighbours; q's
        # first row, a border row, keeps stale bits, as no shift fills it
        _z_shifted(p, front, row, c[w])
        q[row:] = p[:-row]
        q[:-row] |= p[row:]
        _or_shifted(p, front, row)
        face, edge, corner = (ring[(level + k) % 4][w] for k in weights)
        _or_shifted(corner, q, slab)
        edge |= q
        _or_shifted(edge, p, slab)
        face |= p
        _or_shifted(face, front, slab)
        level += 1
    _mark(planes, level + 2, unseen, slice(None))  # L + 1, stored + 1
    return _unpack(planes, shape)


def _hop_bound(padded: np.ndarray, s: int, t: int, bits: np.ndarray):
    """The pruning bound of the module docstring from flat cell ``s`` to
    ``t``: (U, hops as a ``bytearray`` saturated at 255, max(G1, hops) as
    a uint16 memoryview saturated at 65535), or ``None`` when ``t`` cannot
    reach ``s``. ``bits`` is ``padded``'s bitboard (``_pack``). Hops and
    G1 are ``_levels`` with steps weighing 1 and their L1 lengths. The walk
    down takes the shortest step to a cell one hop nearer."""
    code = _levels(bits, padded.shape, s, t, (1, 1, 1))
    if code is None:
        return None
    pz = padded.shape[2]  # flat stride of y
    sx = padded.shape[1] * pz  # flat stride of x
    down = sorted(  # flat moves, shortest step first
        ((dx * sx + dy * pz + dz, step) for (dx, dy, dz), step in _NEIGHBORS),
        key=lambda m: m[1],
    )
    i, bound = s, 0.0
    while i != t:
        want = code[i] - 1
        off, step = next(m for m in down if code[i + m[0]] == want)
        i += off
        bound += step
    hops = np.minimum(np.maximum(code, 1) - 1, 255).astype(np.uint8)
    geo = _levels(bits, padded.shape, s, t, (1, 2, 3))
    geo = np.minimum(np.maximum(geo, 1) - 1, np.uint16(65535)).astype(np.uint16)
    np.maximum(geo, hops, out=geo)
    return bound, bytearray(hops), geo.data


def _astar_cells(board: _Board, start, goal):
    """Deterministic A* over a prepared free mask (``_prepare``); returns
    the cell path and its cost, or ``(None, inf)``, also when either end is
    blocked. Layout, tie-breaks and the pruning bound as in the module
    docstring: cell (x, y, z) is the int ``(x+1)*sx + (y+1)*pz + (z+1)``.
    """
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    if not (board[start] and board[goal]):
        return None, inf
    if start == goal:
        return [start], 0.0

    padded = board.padded
    pz = padded.shape[2]  # flat stride of y
    sx = padded.shape[1] * pz  # flat stride of x
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
            bound = _hop_bound(padded, s, t, board.bits)
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


def _plan_leg(grid: OccupancyGrid, boards: dict, clearance: int, stage: Stage,
              start, goal, p0, p1) -> SubTrajectory:
    """One leg from cell ``start`` to ``goal`` on the plan's prepared free
    masks ``boards``, keyed by clearance: the inflated mask, or the raw one
    (prepared here, once per plan) when the inflation buries either cell.
    Its points are the path's voxel centers with the ends moved to the
    world points ``p0`` and ``p1``; ``NoPath`` also when either cell is
    occupied."""
    if clearance > 0 and not (boards[clearance][start] and boards[clearance][goal]):
        clearance = 0
        if 0 not in boards:
            boards[0] = _prepare(~grid.occupied)
    cells, cost = _astar_cells(boards[clearance], start, goal)
    if cells is None:
        raise NoPath(f"{stage.value}: no path from {start} to {goal} at clearance {clearance}")
    pts = grid.grid_to_world(cells)
    if len(pts) == 1 and not np.array_equal(p0, p1):
        pts = np.stack([p0, p1])  # distinct keypoints sharing one cell
    else:
        pts[0], pts[-1] = p0, p1
    return SubTrajectory(stage, pts, float(cost * grid.voxel_size), clearance)


def plan_segment(
    grid: OccupancyGrid,
    start,
    goal,
    clearance_voxels: int = 1,
    stage: Stage = Stage.APPROACH,
) -> SubTrajectory:
    """Minimal-cost 26-connected path between two cells, as voxel centers;
    ``NoPath`` also when either cell is occupied."""
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    clearance = int(clearance_voxels)
    boards = {clearance: _prepare(~dilate_chebyshev(grid.occupied, clearance))}
    p0, p1 = grid.grid_to_world(start), grid.grid_to_world(goal)
    return _plan_leg(grid, boards, clearance, stage, start, goal, p0, p1)


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
    # inflated, padded and packed once for the three legs
    clearance = int(clearance_voxels)
    boards = {clearance: _prepare(~dilate_chebyshev(grid.occupied, clearance))}
    return Trajectory(subs=tuple(_plan_leg(grid, boards, clearance, *leg) for leg in legs))
