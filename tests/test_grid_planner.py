"""Grid search: optimality, inflation, and trajectory assembly."""

import heapq
import itertools
import time
from collections import deque
from dataclasses import replace
from math import inf, sqrt

import numpy as np
import pytest

from voxpick import grid_planner
from voxpick.errors import NoPath
from voxpick.grid_planner import (
    _NEIGHBORS,
    Stage,
    SubTrajectory,
    Trajectory,
    _astar_cells,
    _hop_bound,
    _pack,
    _prepare,
    dilate_chebyshev,
    plan_segment,
    plan_three_stage,
)
from voxpick.oracles import dijkstra_cost
from voxpick.pipeline import build_grid
from voxpick.scene import Box, GridBounds, OccupancyGrid, SceneSpec
from voxpick.templates import sink_scenario


def _grid(occ, voxel=1.0):
    occ = np.asarray(occ, bool)
    return OccupancyGrid(occ.shape, GridBounds((0.0, 0.0, 0.0), voxel), occ)


def test_straight_line_in_free_space():
    grid = _grid(np.zeros((6, 6, 6), bool))
    sub = plan_segment(grid, (0, 0, 0), (5, 0, 0), clearance_voxels=0)
    assert sub.cost == pytest.approx(5.0)
    assert len(sub.points) == 6
    np.testing.assert_allclose(sub.points[:, 1:], 0.5)


def test_diagonal_costs_are_euclidean():
    grid = _grid(np.zeros((4, 4, 4), bool))
    sub = plan_segment(grid, (0, 0, 0), (3, 3, 3), clearance_voxels=0)
    assert sub.cost == pytest.approx(3 * np.sqrt(3.0))


def test_matches_dijkstra_on_random_grids(rng):
    for k in range(15):
        occ = rng.random((8, 8, 8)) < 0.3
        grid = _grid(occ)
        free = np.argwhere(~occ)
        start, goal = free[rng.choice(len(free), 2, replace=False)]
        want = dijkstra_cost(~occ, start, goal)
        try:
            sub = plan_segment(grid, start, goal, clearance_voxels=0)
        except NoPath:
            assert not np.isfinite(want)
            continue
        assert sub.cost == pytest.approx(want, abs=1e-9)


def test_occupied_endpoints_raise():
    occ = np.zeros((3, 3, 3), bool)
    occ[0, 0, 0] = True
    grid = _grid(occ)
    for start, goal in [((0, 0, 0), (2, 2, 2)), ((2, 2, 2), (0, 0, 0)), ((0, 0, 0), (0, 0, 0))]:
        with pytest.raises(NoPath):
            plan_segment(grid, start, goal)


def test_no_path_through_a_sealed_wall():
    occ = np.zeros((5, 5, 5), bool)
    occ[2, :, :] = True
    with pytest.raises(NoPath):
        plan_segment(_grid(occ), (0, 0, 0), (4, 4, 4), clearance_voxels=0)


def test_inflation_keeps_paths_off_surfaces():
    occ = np.zeros((7, 7, 7), bool)
    occ[3, 3, :] = True  # pillar
    grid = _grid(occ)
    sub = plan_segment(grid, (0, 3, 3), (6, 3, 3), clearance_voxels=1)
    assert sub.clearance_used == 1
    cells = np.floor(sub.points).astype(int)
    for c in cells:
        assert max(abs(c[0] - 3), abs(c[1] - 3)) >= 2  # outside the inflated pillar


def test_inflation_falls_back_when_it_buries_a_keypoint():
    occ = np.zeros((5, 5, 5), bool)
    occ[1, 0, 0] = True  # adjacent to the start; radius-1 inflation covers it
    grid = _grid(occ)
    sub = plan_segment(grid, (0, 0, 0), (4, 4, 4), clearance_voxels=1)
    assert sub.clearance_used == 0


def test_dilate_chebyshev_matches_brute_force(rng):
    occ = rng.random((6, 6, 6)) < 0.15
    for radius in (1, 2, 5, 6, 7, 100):  # 5 reaches every cell; larger shifts slice nothing
        got = dilate_chebyshev(occ, radius)
        want = np.zeros_like(occ)
        for c in np.argwhere(occ):
            lo = np.maximum(c - radius, 0)
            hi = np.minimum(c + radius + 1, occ.shape)
            want[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
        np.testing.assert_array_equal(got, want)
    assert dilate_chebyshev(occ, 0) is occ


def test_a_clearance_past_the_grid_size_plans_quickly():
    # each axis stops at its last shift, so 10**6 costs what 63 does: the
    # inflation buries the keypoints and the plan falls back to clearance 0
    sink = sink_scenario()
    grid, _ = build_grid(sink)
    t0 = time.perf_counter()
    sub = plan_segment(grid, grid.world_to_grid(sink.spec.effector_start),
                       grid.world_to_grid(sink.spec.object_position), clearance_voxels=10**6)
    elapsed = time.perf_counter() - t0
    assert sub.clearance_used == 0
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"


def test_trajectory_rejects_junction_mismatch():
    a = SubTrajectory(Stage.APPROACH, np.zeros((2, 3)))
    b = SubTrajectory(Stage.MANIPULATE, np.ones((2, 3)))
    c = SubTrajectory(Stage.BACK_IDLE, np.ones((2, 3)))
    with pytest.raises(ValueError, match="junction"):
        Trajectory(subs=(a, b, c))


def test_three_stage_restores_exact_keypoints():
    grid = _grid(np.zeros((8, 8, 8), bool), voxel=0.5)
    effector = (0.8, 0.8, 3.3)
    obj = (3.1, 0.8, 0.9)
    target = (3.1, 3.3, 0.9)
    traj = plan_three_stage(grid, effector, obj, target, clearance_voxels=0)
    assert [s.stage for s in traj.subs] == [Stage.APPROACH, Stage.MANIPULATE, Stage.BACK_IDLE]
    np.testing.assert_array_equal(traj.subs[0].points[0], effector)
    np.testing.assert_array_equal(traj.subs[0].points[-1], obj)
    np.testing.assert_array_equal(traj.subs[1].points[-1], target)
    np.testing.assert_array_equal(traj.subs[2].points[-1], effector)


def test_three_stage_grasp_offset_moves_the_junction():
    grid = _grid(np.zeros((8, 8, 8), bool), voxel=0.5)
    spec = SceneSpec(
        (), (0.8, 0.8, 3.3), (3.1, 0.8, 0.9), (3.1, 3.3, 0.9), grasp_offset=(0.0, 0.0, 0.5)
    )
    traj = plan_three_stage(
        grid, spec.effector_start, spec.grasp_point(), spec.place_target, clearance_voxels=0
    )
    np.testing.assert_allclose(traj.subs[0].points[-1], [3.1, 0.8, 1.4])


def test_waypoints_emit_junctions_once():
    grid = _grid(np.zeros((6, 6, 6), bool))
    traj = plan_three_stage(
        grid, (0.5, 0.5, 0.5), (4.5, 0.5, 0.5), (4.5, 4.5, 0.5), clearance_voxels=0
    )
    w = traj.waypoints()
    assert len(w) == sum(len(s.points) for s in traj.subs) - 2
    # consecutive duplicates would flag a doubled junction
    assert np.all(np.linalg.norm(np.diff(w, axis=0), axis=1) > 0)


# --- the flat-index search against the tuple-keyed reference -----------------


def _astar_reference(free, start, goal):
    """Straightforward tuple-keyed A* with the same tie-break contract
    (f, then h, then lexicographic cell order); the flat-index search must
    return exactly its cell list and cost."""
    dims = free.shape
    goal_v = np.asarray(goal, dtype=np.float64)

    def h(cell):
        d = goal_v - cell
        return sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])

    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    if start == goal:
        return [start], 0.0

    g = {start: 0.0}
    came_from = {}
    h0 = h(np.asarray(start))
    heap = [(h0, h0, start)]
    closed = set()
    while heap:
        f, _, cell = heapq.heappop(heap)
        if cell in closed:
            continue
        if cell == goal:
            path = [cell]
            while cell in came_from:
                cell = came_from[cell]
                path.append(cell)
            path.reverse()
            return path, g[goal]
        closed.add(cell)
        gc = g[cell]
        for (dx, dy, dz), step in _NEIGHBORS:
            nb = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
            if not (0 <= nb[0] < dims[0] and 0 <= nb[1] < dims[1] and 0 <= nb[2] < dims[2]):
                continue
            if not free[nb] or nb in closed:
                continue
            ng = gc + step
            if ng < g.get(nb, np.inf):
                g[nb] = ng
                came_from[nb] = cell
                hn = h(np.asarray(nb))
                heapq.heappush(heap, (ng + hn, hn, nb))
    return None, np.inf


def _assert_same_search(free, start, goal):
    got = _astar_cells(_prepare(free), start, goal)
    want = _astar_reference(free, start, goal)
    assert got[0] == want[0], (start, goal)
    assert got[1] == want[1], (start, goal)
    return got


@pytest.mark.parametrize("dims", [(7, 9, 5), (12, 4, 10)])
@pytest.mark.parametrize("clearance", [0, 1])
def test_flat_search_matches_reference_on_random_grids(rng, dims, clearance):
    found = 0
    for k in range(12):
        occ = rng.random(dims) < 0.25
        free = ~dilate_chebyshev(occ, clearance)
        cells = np.argwhere(free)
        if len(cells) < 2:
            continue
        start, goal = cells[rng.choice(len(cells), 2, replace=False)]
        found += _assert_same_search(free, start, goal)[0] is not None
    assert found > 0


@pytest.mark.parametrize("dims", [(7, 9, 5), (12, 4, 10)])
def test_flat_search_matches_reference_on_faces_and_corners(rng, dims):
    hi = [n - 1 for n in dims]
    corners = list(itertools.product(*[(0, m) for m in hi]))
    faces = [(0, hi[1] // 2, hi[2] // 2), (hi[0], 1, 2), (2, 0, hi[2]), (hi[0] // 2, hi[1], 0)]
    ends = corners + faces
    occ = rng.random(dims) < 0.2
    for cell in ends:
        occ[cell] = False
    for free in (~occ, np.ones(dims, bool)):  # the empty grid ties heavily
        for start, goal in itertools.combinations(ends, 2):
            _assert_same_search(free, start, goal)
            _assert_same_search(free, goal, start)


def test_flat_search_matches_reference_on_degenerate_queries():
    free = np.ones((7, 9, 5), bool)
    assert _assert_same_search(free, (3, 4, 2), (3, 4, 2)) == ([(3, 4, 2)], 0.0)
    assert _assert_same_search(free, (0, 0, 0), (6, 8, 4))[0] is not None
    free[3] = False  # a sealed wall: the goal is unreachable
    assert _assert_same_search(free, (0, 0, 0), (6, 8, 4)) == (None, np.inf)


def test_three_stage_on_partition_matches_reference(monkeypatch):
    # the sink with its rim raised into a divider the legs must climb over
    # (y 0.4-12.4 m, top at z 10 m), as in the benchmark's partition scene
    sink = sink_scenario()
    prims = tuple(
        Box((p.min_m[0], 0.4, p.min_m[2]), (p.max_m[0], 12.4, 10.0), p.name)
        if p.name == "rim" else p
        for p in sink.spec.primitives
    )
    scenario = replace(sink, spec=replace(sink.spec, primitives=prims))
    grid, _ = build_grid(scenario)
    spec = scenario.spec

    def plan():
        return plan_three_stage(
            grid, spec.effector_start, spec.object_position, spec.place_target,
            clearance_voxels=scenario.config.clearance_voxels,
        )

    built = []
    real = grid_planner._hop_bound
    monkeypatch.setattr(grid_planner, "_hop_bound", lambda *a: built.append(a) or real(*a))
    got = plan()
    # the two legs that climb over the divider pop past the bound's trigger
    assert len(built) == 2
    monkeypatch.setattr(grid_planner, "_astar_cells", _astar_reference)
    want = plan()
    for a, b in zip(got.subs, want.subs):
        np.testing.assert_array_equal(a.points, b.points)
        assert a.cost == b.cost
        assert a.clearance_used == b.clearance_used


# --- the hop bound prunes work, never a path ---------------------------------


def _astar_unpruned(free, start, goal):
    """The flat-index search as it was before the hop bound, kept frozen:
    the pruned search must return exactly its cells and cost."""
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    if start == goal:
        return [start], 0.0

    nx, ny, nz = free.shape
    pz = nz + 2
    sx = (ny + 2) * pz
    padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = free
    open_ = bytearray(padded.tobytes())
    moves = tuple(
        (dx * sx + dy * pz + dz, dx, dy, dz, step) for (dx, dy, dz), step in _NEIGHBORS
    )
    gx, gy, gz = goal[0] + 1, goal[1] + 1, goal[2] + 1
    s = (start[0] + 1) * sx + (start[1] + 1) * pz + start[2] + 1
    t = gx * sx + gy * pz + gz
    g = [inf] * len(open_)
    g[s] = 0.0
    came_from = [0] * len(open_)
    ex, ey, ez = gx - start[0] - 1, gy - start[1] - 1, gz - start[2] - 1
    h0 = sqrt(ex * ex + ey * ey + ez * ez)
    heap = [(h0, h0, s)]
    while heap:
        i = heapq.heappop(heap)[2]
        if not open_[i]:
            continue
        if i == t:
            break
        open_[i] = 0
        gc = g[i]
        x, r = divmod(i, sx)
        y, z = divmod(r, pz)
        ex, ey, ez = gx - x, gy - y, gz - z
        for off, dx, dy, dz, step in moves:
            j = i + off
            if open_[j]:
                ng = gc + step
                if ng < g[j]:
                    g[j] = ng
                    came_from[j] = i
                    a, b, c = ex - dx, ey - dy, ez - dz
                    hn = sqrt(a * a + b * b + c * c)
                    heapq.heappush(heap, (ng + hn, hn, j))
    else:
        return None, inf

    path = [t]
    while i != s:
        i = came_from[i]
        path.append(i)
    cells = []
    for i in reversed(path):
        x, r = divmod(i, sx)
        y, z = divmod(r, pz)
        cells.append((x - 1, y - 1, z - 1))
    return cells, g[t]


def _random_query(rng, max_side=17):
    """A random grid (3..max_side a side, obstacle density 0..0.85) and two
    distinct free cells on it, or None when fewer than two cells are free."""
    dims = tuple(int(n) for n in rng.integers(3, max_side + 1, size=3))
    free = rng.random(dims) >= rng.uniform(0.0, 0.85)
    cells = np.argwhere(free)
    if len(cells) < 2:
        return None
    start, goal = cells[rng.choice(len(cells), 2, replace=False)]
    return free, tuple(start), tuple(goal)


def _flat(padded, cell):
    """A cell's int in the padded, flattened layout the search uses."""
    return int(np.ravel_multi_index(np.add(cell, 1), padded.shape))


@pytest.mark.parametrize("when", ["first pop", "random pop", "never"])
def test_pruned_search_matches_the_unpruned_one(rng, monkeypatch, when):
    unreachable = 0
    for k in range(300):
        query = _random_query(rng)
        if query is None:
            continue
        free, start, goal = query
        cells = (free.shape[0] + 2) * (free.shape[1] + 2) * (free.shape[2] + 2)
        share = {"first pop": 0.0, "random pop": rng.integers(1, 200) / cells, "never": inf}
        monkeypatch.setattr(grid_planner, "_BOUND_AFTER_POPS", share[when])
        want = _astar_unpruned(free, start, goal)
        got = _astar_cells(_prepare(free), start, goal)
        assert got[0] == want[0], (k, start, goal)
        assert got[1] == want[1], (k, start, goal)
        unreachable += want[0] is None
    assert unreachable > 0  # grids with no path are among the cases


def test_hops_and_descent_bound_the_optimal_cost(rng):
    checked = 0
    for k in range(40):
        query = _random_query(rng, max_side=6)
        if query is None:
            continue
        free, start, goal = query
        padded = np.pad(free, 1)
        best = dijkstra_cost(free, start, goal)
        bound = _hop_bound(padded, _flat(padded, start), _flat(padded, goal), _pack(padded))
        if bound is None:
            assert best == inf
            continue
        upper, hops, geo = bound
        assert upper >= best - 1e-12
        for cell in map(tuple, np.argwhere(free)):
            # a lower bound on the cost to go, also on cells cut off from the
            # goal; rounding may put lb a few ulps over an exact sum, which
            # the search's 1e-9 slack covers
            i = _flat(padded, cell)
            lb = (1 - grid_planner._B) * hops[i] + grid_planner._B * geo[i]
            assert hops[i] <= lb <= dijkstra_cost(free, cell, goal) * (1 + 1e-12)
        checked += 1
    assert checked > 10


def _l1_lengths(free, goal, faces_only=False):
    """Least L1 length of a 26-connected path from each free cell to
    ``goal`` by a plain Dijkstra over steps weighing 1, 2 and 3 (or over
    face steps alone); cells that cannot reach it are absent."""
    steps = [d for d in itertools.product((-1, 0, 1), repeat=3)
             if any(d) and (not faces_only or sum(map(abs, d)) == 1)]
    dist, heap = {goal: 0}, [(0, goal)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        for step in steps:
            nb = tuple(c + o for c, o in zip(cell, step))
            if all(0 <= c < n for c, n in zip(nb, free.shape)) and free[nb]:
                nd = d + sum(map(abs, step))
                if nd < dist.get(nb, inf):
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, nb))
    return dist


def _one_kind_of_step(n):
    """(free, start, goal) on a (2, 2, ``n``) grid whose free cells form one
    chain of corner steps, or of edge steps, from either end: the buckets
    of levels 1 and 2 (corner) or of level 1 (edge) start empty, as do
    those between the chain's levels."""
    for dy in (1, 0):
        cells = [(i % 2, dy * (i % 2), i) for i in range(n)]
        free = np.zeros((2, 2, n), bool)
        free[tuple(np.transpose(cells))] = True
        yield free, cells[0], cells[-1]
        yield free, cells[-1], cells[0]


def test_geodesic_l1_matches_brute_force_dijkstra(rng):
    checked = corner_cuts = 0
    queries = [_random_query(rng, max_side=8) for _ in range(60)] + list(_one_kind_of_step(8))
    for k, query in enumerate(queries):
        if query is None:
            continue
        free, start, goal = query
        padded = np.pad(free, 1)
        bound = _hop_bound(padded, _flat(padded, start), _flat(padded, goal), _pack(padded))
        if bound is None:
            continue
        _, hops, geo = bound
        want = _l1_lengths(free, goal)
        faces = _l1_lengths(free, goal, faces_only=True)
        stop = want[start]  # the BFS stops once the start is settled
        assert geo[_flat(padded, start)] == stop
        for cell in map(tuple, np.argwhere(free)):
            i = _flat(padded, cell)
            if want.get(cell, inf) <= stop:
                assert geo[i] == want[cell] >= hops[i], (k, cell)
            else:  # not settled: the stop level + 1, or the hop count if larger
                assert geo[i] == max(stop + 1, hops[i]) <= want.get(cell, inf), (k, cell)
            corner_cuts += want.get(cell, inf) < faces.get(cell, inf)
        checked += 1
    assert checked > 20
    assert corner_cuts > 0  # some least paths cut a blocked edge or corner


def _hop_counts(free, goal):
    """26-connected hop counts to ``goal`` by a plain BFS; cells that cannot
    reach it are absent."""
    steps = [d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)]
    dist, queue = {goal: 0}, deque([goal])
    while queue:
        cell = queue.popleft()
        for step in steps:
            nb = tuple(c + o for c, o in zip(cell, step))
            if all(0 <= c < n for c, n in zip(nb, free.shape)) and free[nb] and nb not in dist:
                dist[nb] = dist[cell] + 1
                queue.append(nb)
    return dist


def _descent_cost(hops, start, goal):
    """U as ``_hop_bound`` walks it: from the start, the shortest step (the
    first in ``_NEIGHBORS`` order among equals) to a cell one hop nearer."""
    down = sorted(_NEIGHBORS, key=lambda m: m[1])
    cell, cost = start, 0.0
    while cell != goal:
        cell, step = next(
            (nb, step) for nb, step in
            ((tuple(c + o for c, o in zip(cell, d)), step) for d, step in down)
            if hops.get(nb) == hops[cell] - 1
        )
        cost += step
    return cost


def _assert_bound_matches_brute_force(free, start, goal):
    """Every value ``_hop_bound`` returns, against plain BFS and Dijkstra;
    returns whether the goal reaches the start."""
    padded = np.pad(free, 1)
    got = _hop_bound(padded, _flat(padded, start), _flat(padded, goal), _pack(padded))
    hops = _hop_counts(free, goal)
    if start not in hops:
        assert got is None, (free.shape, start, goal)
        return False
    upper, hop_table, geo = got
    assert upper == _descent_cost(hops, start, goal)
    assert upper >= dijkstra_cost(free, start, goal) - 1e-12
    last = hops[start]  # the hop BFS stops once the start is settled
    l1 = _l1_lengths(free, goal)
    stop = l1[start]  # the L1 BFS stops once the start is settled
    hop_table = np.frombuffer(hop_table, np.uint8).reshape(padded.shape)
    geo = np.asarray(geo).reshape(padded.shape)
    for cell in map(tuple, np.argwhere(free)):
        h = min(hops.get(cell, inf), last + 1, 255)
        g = l1[cell] if l1.get(cell, inf) <= stop else stop + 1
        at = tuple(np.add(cell, 1))
        assert (hop_table[at], geo[at]) == (h, max(min(g, 65535), h)), (free.shape, cell)
    assert not hop_table[~padded].any() and not geo[~padded].any()
    return True


@pytest.mark.parametrize("nz", [1, 63, 64, 65, 128, 129, 300])
def test_bitboard_rows_match_brute_force_at_word_boundaries(rng, nz):
    # a row of nz cells fills ceil(nz / 64) words: these extents put the
    # last cell of a row just before, at and after a word's top bit, and
    # 300 gives levels past 255, which take more than 8 bit-planes
    reached = 0
    for k in range(4):
        free = rng.random((2, 3, nz)) >= rng.uniform(0.0, 0.4)
        cells = np.argwhere(free)
        if len(cells) < 2:
            continue
        start, goal = (tuple(c) for c in cells[rng.choice(len(cells), 2, replace=False)])
        reached += _assert_bound_matches_brute_force(free, start, goal)
    assert reached > 0
    # the last cell of row y = 0 and the first of row y = 1 are neighbours in
    # the bitboard's word order but not in the grid: a z shift that carried
    # from one row into the next would join them
    last, first = (0, 0, nz - 1), (0, 1, 0)
    for free in (np.ones((1, 2, nz), bool), np.zeros((1, 2, nz), bool)):
        free[last] = free[first] = True
        for start, goal in ((last, first), (first, last)):
            assert _assert_bound_matches_brute_force(free, start, goal) == (
                free.all() or nz <= 2
            )
    if nz > 1:
        for free, start, goal in _one_kind_of_step(nz):
            assert _assert_bound_matches_brute_force(free, start, goal)


def _partition_scenario():
    """The sink with its rim raised into a divider, as in the benchmark's
    partition scene and ``test_three_stage_on_partition_matches_reference``."""
    sink = sink_scenario()
    prims = tuple(
        Box((p.min_m[0], 0.4, p.min_m[2]), (p.max_m[0], 12.4, 10.0), p.name)
        if p.name == "rim" else p
        for p in sink.spec.primitives
    )
    return replace(sink, spec=replace(sink.spec, primitives=prims))


class _CountingHeapq:
    """``heapq`` as the search sees it, counting pops (stale ones too)."""

    def __init__(self):
        self.popped = 0
        self.heappush = heapq.heappush

    def heappop(self, heap):
        self.popped += 1
        return heapq.heappop(heap)


def _plan_counted(scenario, monkeypatch):
    grid, _ = build_grid(scenario)
    spec = scenario.spec
    shim = _CountingHeapq()
    monkeypatch.setattr(grid_planner, "heapq", shim)
    plan_three_stage(grid, spec.effector_start, spec.object_position, spec.place_target,
                     clearance_voxels=scenario.config.clearance_voxels)
    return shim.popped


def test_partition_pops_a_quarter_of_what_the_hop_bound_alone_did(monkeypatch):
    # the three legs popped 47,512 entries with the hop count as the only
    # lower bound; the L1-geodesic bound cuts that to about 5,900
    assert _plan_counted(_partition_scenario(), monkeypatch) < 47_512 / 4


def test_a_plan_packs_the_raw_mask_once(monkeypatch):
    # at clearance 3 the inflation buries the partition's effector, so the
    # approach and back_idle legs both fall back to the raw mask: one pack
    # for the inflated mask and one for the raw mask they share
    scenario = _partition_scenario()
    grid, _ = build_grid(scenario)
    spec = scenario.spec
    packed = []
    real = grid_planner._pack
    monkeypatch.setattr(grid_planner, "_pack", lambda *a: packed.append(1) or real(*a))
    traj = plan_three_stage(grid, spec.effector_start, spec.object_position, spec.place_target,
                            clearance_voxels=3)
    assert [s.clearance_used for s in traj.subs] == [0, 3, 0]
    assert len(packed) == 2


def test_sink_legs_never_build_the_bound(monkeypatch):
    # every sink leg ends long before the trigger, so planning the sink
    # (and each bundle a remask set-up plans) costs no BFS
    built = []
    real = grid_planner._hop_bound
    monkeypatch.setattr(grid_planner, "_hop_bound", lambda *a: built.append(a) or real(*a))
    assert _plan_counted(sink_scenario(), monkeypatch) == 105
    assert built == []


def test_a_sealed_goal_ends_in_no_path_quickly():
    # the goal sits inside a hollow 7^3 box in an otherwise free 64^3 grid:
    # the search stops once the hop bound finds that the goal cannot reach
    # the start, instead of closing the start's whole component
    occ = np.zeros((64, 64, 64), bool)
    occ[40:47, 40:47, 40:47] = True
    occ[41:46, 41:46, 41:46] = False
    grid = _grid(occ)
    t0 = time.perf_counter()
    with pytest.raises(NoPath):
        plan_segment(grid, (2, 2, 2), (43, 43, 43), clearance_voxels=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
