"""Oracle self-check harness behind ``voxpick check``.

Each check pits a production code path against an independent brute-force
reference on seeded instances and reports one pass/fail line. The test
suite's acceptance module runs the same checks through pytest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from . import losses
from .distance_field import clearance_band, compute_edt
from .errors import NoPath
from .grid_planner import Stage, plan_segment
from .oracles import (
    brute_force_edt_sq,
    circle_mask,
    dijkstra_cost,
    finite_difference_gradient,
    gradient_max_rel_error,
    iou,
    ray_sphere_mask,
)
from .pipeline import run
from .projection import BEHIND, CameraModel, PALETTE, actor_frames, project_sphere
from .scene import GridBounds, OccupancyGrid
from .templates import sink_scenario
from .time_alloc import STAGE_GRIPPER, GripperState, arc_length, sine_fit


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_grid(rng, max_dim=16, fill=0.3) -> OccupancyGrid:
    dims = tuple(int(d) for d in rng.integers(3, max_dim + 1, size=3))
    occ = rng.random(dims) < fill
    return OccupancyGrid(dims, GridBounds((0.0, 0.0, 0.0), 0.05), occ)


def check_edt_exactness() -> str:
    """Each grid at two bands: as wide as the grid diagonal, which must give
    every distance exactly, and the band the pipeline derives from the
    default d_safe of 2 voxels, which must give min(exact, band^2)."""
    n_grids = 100
    rng = np.random.default_rng(0)
    for k in range(n_grids):
        grid = _random_grid(rng, fill=float(rng.uniform(0.02, 0.6)))
        for band in (clearance_band(grid, math.inf), clearance_band(grid, 2 * grid.voxel_size)):
            got = compute_edt(grid, band)
            got_sq = np.rint((got.distance / grid.voxel_size) ** 2).astype(np.int64)
            if not np.array_equal(got_sq, brute_force_edt_sq(grid.occupied, band)):
                raise AssertionError(f"grid {k} dims {grid.dims} band {band}: EDT != brute force")
    return f"{n_grids} grids exact in squared-integer space, full and banded"


def check_astar_optimality() -> str:
    n_grids = 50
    rng = np.random.default_rng(1)
    checked = 0
    for k in range(n_grids):
        dims = (10, 10, 10)
        occ = rng.random(dims) < 0.3
        grid = OccupancyGrid(dims, GridBounds((0.0, 0.0, 0.0), 0.05), occ)
        free_cells = np.argwhere(~occ)
        start, goal = free_cells[rng.choice(len(free_cells), size=2, replace=False)]
        want = dijkstra_cost(~occ, start, goal) * grid.voxel_size
        try:
            sub = plan_segment(grid, start, goal, clearance_voxels=0)
        except NoPath:
            if np.isfinite(want):
                raise AssertionError(f"grid {k}: A* found no path but Dijkstra cost {want}")
            continue
        if not np.isfinite(want):
            raise AssertionError(f"grid {k}: A* found a path where Dijkstra did not")
        if abs(sub.cost - want) > 1e-9:
            raise AssertionError(f"grid {k}: A* cost {sub.cost} != Dijkstra {want}")
        for p in sub.points:
            if not grid.is_free(grid.world_to_grid(p)):
                raise AssertionError(f"grid {k}: waypoint {p} in occupied voxel")
        checked += 1
    return f"{checked}/{n_grids} reachable pairs match Dijkstra within 1e-9"


def _random_paths(rng, n_paths, n_points=20, scale=1.0):
    for _ in range(n_paths):
        yield rng.uniform(-scale, scale, size=(n_points, 3))


def check_gradients() -> str:
    n_paths = 100
    rng = np.random.default_rng(2)
    worst = {}
    for name, fn in (
        ("loss_length", lambda P: losses.loss_length(P)),
        ("loss_acc", lambda P: losses.loss_acc(P)),
        ("loss_curv", lambda P: losses.loss_curv(P, 1e-6)),
    ):
        errs = []
        for P in _random_paths(rng, n_paths):
            _, grad = fn(P)
            num = finite_difference_gradient(lambda Q: fn(Q)[0], P, h=1e-5)
            errs.append(gradient_max_rel_error(grad, num))
        worst[name] = max(errs)
        if worst[name] >= 1e-4:
            raise AssertionError(f"{name}: max rel error {worst[name]:.2e} >= 1e-4")

    # collision: random occupancy field, points kept off interpolation
    # cell faces so the central difference stays inside one cell
    grid = _random_grid(np.random.default_rng(3), max_dim=12, fill=0.2)
    d_safe = 4.0 * grid.voxel_size
    fld = compute_edt(grid, clearance_band(grid, d_safe))
    lo = np.asarray(grid.bounds.min_corner)
    errs = []
    for _ in range(n_paths):
        frac = rng.uniform(0.05, 0.95, size=(20, 3))
        cells = rng.integers(0, np.asarray(grid.dims) - 1, size=(20, 3))
        P = lo + (cells + 0.5 + frac) * grid.voxel_size
        _, grad = losses.loss_col(P, fld, d_safe)
        num = finite_difference_gradient(
            lambda Q: losses.loss_col(Q, fld, d_safe)[0], P, h=grid.voxel_size / 100.0
        )
        errs.append(gradient_max_rel_error(grad, num))
    worst["loss_col"] = max(errs)
    if worst["loss_col"] >= 1e-3:
        raise AssertionError(f"loss_col: max rel error {worst['loss_col']:.2e} >= 1e-3")
    return ", ".join(f"{k} {v:.1e}" for k, v in worst.items())


def check_circle_curvature() -> str:
    n = 50
    theta = 0.02
    rel_errs = []
    for radius in (0.5, 1.0, 2.0):
        angles = theta * np.arange(n)
        P = radius * np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
        value, _ = losses.loss_curv(P, eps_curv=0.0)
        want = 0.5 * (n - 2) / radius**2
        rel = abs(value - want) / want
        rel_errs.append(rel)
        if rel >= 0.02:
            raise AssertionError(f"R={radius}: L_curv {value:.6f} vs {want:.6f} rel {rel:.3%}")
    return "rel errors " + ", ".join(f"{e:.2e}" for e in rel_errs)


def check_sink_avoidance(bundle) -> str:
    d_safe = bundle.scenario.config.d_safe
    before = bundle.clearance_before["manipulate"]
    after = bundle.clearance_after["manipulate"]
    if not before.min_m < d_safe:
        raise AssertionError(f"initial manipulate clearance {before.min_m} not < {d_safe}")
    if not after.interior_min_m >= d_safe - 1e-6:
        raise AssertionError(
            f"optimized interior clearance {after.interior_min_m} < d_safe - 1e-6"
        )
    sub0 = bundle.initial.subs[1]
    sub1 = bundle.optimized.subs[1]
    if not (
        np.array_equal(sub0.points[0], sub1.points[0])
        and np.array_equal(sub0.points[-1], sub1.points[-1])
    ):
        raise AssertionError("manipulate endpoints not bit-identical")
    rep = bundle.loss_report
    if not rep.after.total < rep.before.total:
        raise AssertionError(
            f"objective did not decrease: {rep.before.total} -> {rep.after.total}"
        )
    z0 = sub0.points[:, 2].max()
    z1 = sub1.points[:, 2].max()
    if not z1 > z0:
        raise AssertionError(f"optimized max z {z1} not above initial {z0}")
    return (
        f"clearance {before.min_m:.4f} -> {after.interior_min_m:.4f} m "
        f"(d_safe {d_safe}), max z {z0:.3f} -> {z1:.3f}"
    )


def check_velocity_profile(bundle) -> str:
    # measured on the reallocated grid-planned trajectory: its legs are
    # clean polylines, so chord speeds isolate the resampler's profile
    timed = bundle.timed_initial
    lengths = [arc_length(s.points) for s in bundle.initial.subs]
    shares = np.asarray(lengths) / sum(lengths) * timed.n_frames
    for stage, share in zip(Stage, shares):
        count = timed.stages.count(stage)
        if abs(count - share) >= 1.0:
            raise AssertionError(f"count {count} vs share {share}: off by >= 1")

    worst, worst_opt = (max(sine_fit(t, stage) for stage in Stage)
                        for t in (timed, bundle.timed_optimized))
    if max(worst, worst_opt) >= 0.05:
        raise AssertionError(f"speed profile deviates from sine by {worst:.3f} "
                             f"(optimized {worst_opt:.3f})")
    for sub in bundle.optimized.subs:
        d = np.diff(sub.points, axis=0)  # a negative dot product turns back
        turns = int((np.sum(d[:-1] * d[1:], axis=1) < 0).sum())
        if turns:
            raise AssertionError(f"optimized {sub.stage.value} leg turns back {turns} times")

    arc_in = arc_length(bundle.initial.waypoints())
    arc_out = arc_length(timed.positions)
    loss = abs(arc_in - arc_out) / arc_in
    if loss >= 0.01:
        raise AssertionError(f"arc length changed by {loss:.3%} under reallocation")
    return (f"max sine deviation {worst:.3f} (optimized {worst_opt:.3f}), "
            f"arc length drift {loss:.4%}")


def check_projection_fidelity() -> str:
    n_spheres = 200
    cam = CameraModel(
        fx=300.0, fy=300.0, cx=128.0, cy=128.0, width=256, height=256,
        rotation=np.eye(3), translation=np.zeros(3),
    )
    # on-axis closed form
    circle = project_sphere(cam, (0.0, 0.0, 2.0), 0.1)
    if circle != (cam.cx, cam.cy, cam.fx * 0.1 / 2.0):
        raise AssertionError(f"on-axis sphere projects to {circle}")
    rng = np.random.default_rng(3)
    worst = 1.0
    for k in range(n_spheres):
        radius = float(rng.uniform(0.05, 0.3))
        depth = radius * float(rng.uniform(8.0, 30.0))  # satisfies Z > 4R
        r_px = cam.fx * radius / depth
        # keep field angles moderate: the projected silhouette is really an
        # ellipse, and the circle approximation degrades toward the corners
        margin = min(
            (min(cam.cx, cam.cy) - r_px - 4.0) / cam.fx, np.tan(np.radians(10.0))
        ) * depth
        rho = float(rng.uniform(0.0, margin))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        x, y = rho * np.cos(phi), rho * np.sin(phi)
        center = (x, y, depth)
        circle = project_sphere(cam, center, radius)
        if circle == BEHIND:
            raise AssertionError(f"sphere {k} unexpectedly behind")
        got = circle_mask(cam, circle)
        want = ray_sphere_mask(cam, center, radius)
        score = iou(got, want)
        worst = min(worst, score)
        if score < 0.95:
            raise AssertionError(f"sphere {k} at Z/R={depth / radius:.1f}: IoU {score:.3f}")
    return f"{n_spheres} spheres, worst IoU {worst:.3f}"


def check_mask_contract(bundle) -> str:
    masks = bundle.masks
    cam = bundle.scenario.camera
    allowed = set(PALETTE.values())
    values = set()
    for m in masks:
        values |= set(np.unique(m.image).tolist())
    if not values <= allowed:
        raise AssertionError(f"mask values {values - allowed} outside palette")
    if masks[0].image.any() or not masks[0].keep_first_frame:
        raise AssertionError("frame 0 must be all background with the keep flag")

    states = [STAGE_GRIPPER[s] for s in bundle.timed_optimized.stages]
    closes = [i for i in range(1, len(states)) if states[i - 1] is GripperState.OPEN
              and states[i] is GripperState.CLOSED]
    opens = [i for i in range(1, len(states)) if states[i - 1] is GripperState.CLOSED
             and states[i] is GripperState.OPEN]
    if len(closes) != 1 or len(opens) != 1:
        raise AssertionError(f"gripper transitions: closes {closes}, opens {opens}")
    stages = [s.value for s in bundle.timed_optimized.stages]
    if stages[closes[0] - 1] != "approach" or stages[closes[0]] != "manipulate":
        raise AssertionError("close transition not at the approach/manipulate junction")
    if stages[opens[0] - 1] != "manipulate" or stages[opens[0]] != "back_idle":
        raise AssertionError("open transition not at the manipulate/back_idle junction")

    obj_frames, grip_frames = actor_frames(
        bundle.timed_optimized,
        bundle.scenario.spec.grasp_point(),
        bundle.scenario.spec.place_target,
    )
    for k in range(1, len(masks)):
        want = np.zeros((cam.height, cam.width), dtype=np.uint8)
        c_obj = project_sphere(cam, obj_frames[k], bundle.scenario.object_radius)
        if c_obj != BEHIND:
            want[circle_mask(cam, c_obj)] = PALETTE["object"]
        c_grip = project_sphere(cam, grip_frames[k], bundle.scenario.gripper_radius)
        gval = (
            PALETTE["gripper_closed"]
            if states[k] is GripperState.CLOSED
            else PALETTE["gripper_open"]
        )
        if c_grip != BEHIND:
            want[circle_mask(cam, c_grip)] = gval
        if not np.array_equal(masks[k].image, want):
            raise AssertionError(f"frame {k}: mask differs from per-pixel oracle")
    return f"{len(masks)} frames match the per-pixel oracle; palette closed"


def run_checks() -> List[CheckResult]:
    """Run acceptance checks 1-8."""
    bundle = run(sink_scenario())
    checks: List[tuple] = [
        ("edt-exactness", check_edt_exactness),
        ("astar-optimality", check_astar_optimality),
        ("gradient-correctness", check_gradients),
        ("circle-curvature", check_circle_curvature),
        ("sink-avoidance", lambda: check_sink_avoidance(bundle)),
        ("velocity-profile", lambda: check_velocity_profile(bundle)),
        ("projection-fidelity", check_projection_fidelity),
        ("mask-contract", lambda: check_mask_contract(bundle)),
    ]
    results = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except AssertionError as e:
            detail = str(e)
            ok = False
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
    return results
