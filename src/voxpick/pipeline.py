"""End-to-end orchestration: scene -> EDT -> A* -> optimize -> reallocate
-> project, producing a deterministic run bundle.

Scenario files are JSON with unit-suffixed keys (``voxel_size_m``); a
bundle is a plain directory with a manifest so runs diff cleanly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import scene as scene_mod
from .distance_field import DistanceField, compute_edt
from .errors import ParseError, VoxpickError, tag_stage
from .grid_planner import Stage, Trajectory, plan_three_stage
from .optimizer import LossReport, PlannerConfig, optimize_trajectory
from .projection import (
    CameraModel,
    GuidanceMask,
    PALETTE,
    SphereActor,
    render_guidance_masks,
    write_pgm,
)
from .scene import Box, GridBounds, OccupancyGrid, Plane, SceneSpec, Sphere
from .time_alloc import (
    STAGE_GRIPPER,
    TimedTrajectory,
    VelocityProfile,
    arc_length,
    reallocate,
    speed_profile_csv_rows,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    name: str
    dims: Tuple[int, int, int]
    bounds: GridBounds
    spec: SceneSpec  # keypoints always; primitives used unless a cloud is given
    cloud_path: Optional[str]  # occupancy from a point-cloud file instead of primitives
    config: PlannerConfig
    total_frames: int
    profile: VelocityProfile
    camera: CameraModel
    object_radius: float
    gripper_radius: float

    def __post_init__(self):
        if self.total_frames < 6:
            raise ParseError(f"total_frames must be >= 6, got {self.total_frames}")
        if self.spec is None:
            raise ParseError("scenario needs a scene spec (keypoints)")
        for name, r in (
            ("actors.object_radius_m", self.object_radius),
            ("actors.gripper_radius_m", self.gripper_radius),
        ):
            if not (math.isfinite(r) and r > 0):
                raise ParseError(f"{name} must be positive and finite, got {r}")
        lo = np.asarray(self.bounds.min_corner)
        hi = lo + np.asarray(self.dims) * self.bounds.voxel_size
        for name, p in (
            ("effector_start", self.spec.effector_start),
            ("object_position", self.spec.object_position),
            ("place_target", self.spec.place_target),
            ("grasp_point", self.spec.grasp_point()),
        ):
            p = np.asarray(p)
            if not (np.all(p >= lo) and np.all(p < hi)):  # NaN fails
                raise ParseError(f"{name} {tuple(p.tolist())} outside grid bounds")


@dataclass
class ClearanceStats:
    min_m: float
    mean_m: float
    interior_min_m: float  # min over waypoints excluding the stage endpoints

    def as_dict(self):
        return {"min_m": self.min_m, "mean_m": self.mean_m, "interior_min_m": self.interior_min_m}


@dataclass
class RunBundle:
    scenario: Scenario
    initial: Trajectory
    optimized: Trajectory
    timed_initial: TimedTrajectory
    timed_optimized: TimedTrajectory
    loss_report: LossReport
    clearance_before: Dict[str, ClearanceStats]
    clearance_after: Dict[str, ClearanceStats]
    speeds_before: np.ndarray  # chords of optimized waypoints, pre-reallocation
    speeds_after: np.ndarray  # chords of the timed optimized trajectory
    masks: List[GuidanceMask]
    points_outside: int = 0


def _clearance(traj: Trajectory, fld: DistanceField) -> Dict[str, ClearanceStats]:
    out = {}
    for sub in traj.subs:
        d = fld.sample(sub.points)
        interior = d[1:-1] if len(d) > 2 else d
        out[sub.stage.value] = ClearanceStats(
            min_m=float(d.min()),
            mean_m=float(d.mean()),
            interior_min_m=float(interior.min()),
        )
    return out


def build_grid(scenario: Scenario) -> Tuple[OccupancyGrid, int]:
    if scenario.cloud_path is None:
        return scene_mod.synth_scene(scenario.spec, scenario.dims, scenario.bounds), 0
    cloud = scene_mod.load_point_cloud(scenario.cloud_path)
    return scene_mod.voxelize(cloud, scenario.dims, scenario.bounds)


def actor_frames(
    timed: TimedTrajectory, object_position, place_target
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-frame sphere centers: the gripper follows the trajectory; the
    object rests at ``object_position`` during approach, rides with the
    gripper during manipulate and rests at ``place_target`` during
    back_idle."""
    gripper = timed.positions
    obj = gripper.copy()
    obj[[s is Stage.APPROACH for s in timed.stages]] = object_position
    obj[[s is Stage.BACK_IDLE for s in timed.stages]] = place_target
    return obj, gripper


def mask_actors(scenario: Scenario, timed: TimedTrajectory) -> Tuple[SphereActor, SphereActor]:
    """The object and gripper spheres that the guidance masks draw."""
    obj_frames, grip_frames = actor_frames(
        timed, scenario.spec.grasp_point(), scenario.spec.place_target
    )
    return (
        SphereActor(scenario.object_radius, obj_frames),
        SphereActor(scenario.gripper_radius, grip_frames),
    )


def _invariant(ok: bool, stage: str, message: str) -> None:
    """A runtime invariant that, unlike ``assert``, survives ``python -O``."""
    if not ok:
        raise tag_stage(VoxpickError(message), stage)


def run(scenario: Scenario) -> RunBundle:
    """Execute the full planning chain; deterministic for a fixed
    scenario. Stage failures raise errors tagged with the failing stage."""
    try:
        grid, outside = build_grid(scenario)
    except VoxpickError as e:
        raise tag_stage(e, "scene")

    fld = compute_edt(grid)
    spec = scenario.spec
    initial = plan_three_stage(
        grid,
        spec.effector_start,
        spec.grasp_point(),
        spec.place_target,
        clearance_voxels=scenario.config.clearance_voxels,
    )

    optimized, report = optimize_trajectory(initial, fld, scenario.config)
    for sub0, sub1 in zip(initial.subs, optimized.subs):
        for end in (0, -1):
            _invariant(
                np.array_equal(sub0.points[end], sub1.points[end]),
                "optimize",
                f"{sub0.stage.value}: endpoint drift",
            )

    timed_initial = reallocate(initial, scenario.total_frames, scenario.profile)
    timed_optimized = reallocate(optimized, scenario.total_frames, scenario.profile)
    _invariant(
        timed_initial.n_frames == timed_optimized.n_frames == scenario.total_frames,
        "time-alloc",
        f"frame counts {timed_initial.n_frames}/{timed_optimized.n_frames} "
        f"differ from total_frames {scenario.total_frames}",
    )

    try:
        masks = render_guidance_masks(
            timed_optimized, *mask_actors(scenario, timed_optimized), scenario.camera
        )
    except VoxpickError as e:
        raise tag_stage(e, "render")
    _invariant(
        len(masks) == scenario.total_frames,
        "render",
        f"{len(masks)} masks for {scenario.total_frames} frames",
    )

    return RunBundle(
        scenario=scenario,
        initial=initial,
        optimized=optimized,
        timed_initial=timed_initial,
        timed_optimized=timed_optimized,
        loss_report=report,
        clearance_before=_clearance(initial, fld),
        clearance_after=_clearance(optimized, fld),
        speeds_before=np.linalg.norm(np.diff(optimized.waypoints(), axis=0), axis=1),
        speeds_after=timed_optimized.speeds(),
        masks=masks,
        points_outside=outside,
    )


# --- scenario (de)serialization --------------------------------------------


def _prim_to_dict(p) -> dict:
    if isinstance(p, Box):
        return {"type": "box", "name": p.name, "min_m": list(p.min_m), "max_m": list(p.max_m)}
    if isinstance(p, Sphere):
        return {
            "type": "sphere",
            "name": p.name,
            "center_m": list(p.center_m),
            "radius_m": p.radius_m,
        }
    if isinstance(p, Plane):
        return {
            "type": "plane",
            "name": p.name,
            "axis": p.axis,
            "offset_m": p.offset_m,
            "side": p.side,
        }
    raise ParseError(f"unknown primitive {type(p).__name__}")


def _finite(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParseError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _vec3(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"{name} must be a list of 3 numbers, got {value!r}")
    for v in value:
        _finite(v, name)
    return tuple(value)  # as written, so scenario.json echoes the file


def _prim_from_dict(d: dict):
    try:
        kind = d["type"]
        if not isinstance(d.get("name", ""), str):
            raise ParseError(f"{kind}.name must be a string, got {d['name']!r}")
        name = d.get("name", kind)
        if kind == "box":
            return Box(_vec3(d["min_m"], "box.min_m"), _vec3(d["max_m"], "box.max_m"), name)
        if kind == "sphere":
            radius = _finite(d["radius_m"], "sphere.radius_m")
            if radius <= 0:
                raise ParseError(f"sphere.radius_m must be positive, got {radius}")
            return Sphere(_vec3(d["center_m"], "sphere.center_m"), radius, name)
        if kind == "plane":
            axis, side = _non_negative_int(d["axis"], "plane.axis"), d.get("side", "below")
            if axis > 2:
                raise ParseError(f"plane.axis must be 0, 1 or 2, got {axis!r}")
            if side not in ("below", "above"):
                raise ParseError(f"plane.side must be 'below' or 'above', got {side!r}")
            return Plane(axis, _finite(d["offset_m"], "plane.offset_m"), side, name)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad primitive entry {d}: {e}") from e
    raise ParseError(f"unknown primitive type {kind!r}")


def scenario_to_dict(s: Scenario) -> dict:
    d = {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "grid": {
            "dims": list(s.dims),
            "min_corner_m": list(s.bounds.min_corner),
            "voxel_size_m": s.bounds.voxel_size,
        },
        "planner": {
            "w_len": s.config.w_len,
            "w_acc": s.config.w_acc,
            "w_curv": s.config.w_curv,
            "w_col": s.config.w_col,
            "d_safe_m": s.config.d_safe,
            "learning_rate": s.config.learning_rate,
            "iterations": s.config.iterations,
            "clearance_voxels": s.config.clearance_voxels,
            "eps_curv": s.config.eps_curv,
        },
        "frames": {"total_frames": s.total_frames, "velocity_profile": s.profile.value},
        "camera": {
            "fx_px": s.camera.fx,
            "fy_px": s.camera.fy,
            "cx_px": s.camera.cx,
            "cy_px": s.camera.cy,
            "width_px": s.camera.width,
            "height_px": s.camera.height,
            "rotation": [list(row) for row in np.asarray(s.camera.rotation)],
            "translation_m": list(np.asarray(s.camera.translation)),
        },
        "actors": {"object_radius_m": s.object_radius, "gripper_radius_m": s.gripper_radius},
    }
    if s.cloud_path is not None:
        d["cloud_path"] = s.cloud_path
    if s.spec is not None:
        spec = s.spec
        d["scene"] = {
            "primitives": [_prim_to_dict(p) for p in spec.primitives],
            "effector_start_m": list(spec.effector_start),
            "object_position_m": list(spec.object_position),
            "place_target_m": list(spec.place_target),
        }
        if spec.grasp_offset is not None:
            d["scene"]["grasp_offset_m"] = list(spec.grasp_offset)
    return d


def _non_negative_int(value, name: str) -> int:
    # bool is an int subclass, and int() would truncate 2.7 to 2
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _dims(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3 or 0 in value:
        raise ParseError(f"grid.dims must be 3 integers >= 1, got {value!r}")
    return tuple(_non_negative_int(v, "grid.dims") for v in value)


def _section(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be a JSON object, got {value!r}")
    return value


def scenario_from_dict(d: dict) -> Scenario:
    try:
        _section(d, "scenario")
        for key in ("name", "cloud_path"):
            if not isinstance(d.get(key, ""), str):
                raise ParseError(f"{key} must be a string, got {d[key]!r}")
        grid = _section(d["grid"], "grid")
        bounds = GridBounds(
            tuple(grid["min_corner_m"]), _finite(grid["voxel_size_m"], "grid.voxel_size_m")
        )
        planner = _section(d.get("planner", {}), "planner")
        config = PlannerConfig(
            w_len=_finite(planner.get("w_len", 1.0), "planner.w_len"),
            w_acc=_finite(planner.get("w_acc", 1.0), "planner.w_acc"),
            w_curv=_finite(planner.get("w_curv", 0.1), "planner.w_curv"),
            w_col=_finite(planner.get("w_col", 10.0), "planner.w_col"),
            d_safe=_finite(planner.get("d_safe_m", 2.0 * bounds.voxel_size), "planner.d_safe_m"),
            learning_rate=_finite(planner.get("learning_rate", 0.1), "planner.learning_rate"),
            iterations=_non_negative_int(planner.get("iterations", 200), "planner.iterations"),
            clearance_voxels=_non_negative_int(
                planner.get("clearance_voxels", 1), "planner.clearance_voxels"
            ),
            eps_curv=_finite(planner.get("eps_curv", 1e-6), "planner.eps_curv"),
        )
        spec = None
        if "scene" in d:
            sc = _section(d["scene"], "scene")
            spec = SceneSpec(
                primitives=tuple(_prim_from_dict(p) for p in sc.get("primitives", [])),
                effector_start=_vec3(sc["effector_start_m"], "scene.effector_start_m"),
                object_position=_vec3(sc["object_position_m"], "scene.object_position_m"),
                place_target=_vec3(sc["place_target_m"], "scene.place_target_m"),
                grasp_offset=(
                    _vec3(sc["grasp_offset_m"], "scene.grasp_offset_m")
                    if "grasp_offset_m" in sc
                    else None
                ),
            )
        cam = _section(d["camera"], "camera")
        camera = CameraModel(
            fx=_finite(cam["fx_px"], "camera.fx_px"),
            fy=_finite(cam["fy_px"], "camera.fy_px"),
            cx=_finite(cam["cx_px"], "camera.cx_px"),
            cy=_finite(cam["cy_px"], "camera.cy_px"),
            width=_non_negative_int(cam["width_px"], "camera.width_px"),
            height=_non_negative_int(cam["height_px"], "camera.height_px"),
            rotation=np.asarray(cam["rotation"], dtype=np.float64),
            translation=np.asarray(cam["translation_m"], dtype=np.float64),
        )
        frames = _section(d.get("frames", {}), "frames")
        actors = _section(d["actors"], "actors")
        return Scenario(
            name=d.get("name", "scenario"),
            dims=_dims(grid["dims"]),
            bounds=bounds,
            spec=spec,
            cloud_path=d.get("cloud_path"),
            config=config,
            total_frames=_non_negative_int(
                frames.get("total_frames", 49), "frames.total_frames"
            ),
            profile=VelocityProfile(frames.get("velocity_profile", "sine")),
            camera=camera,
            object_radius=_finite(actors["object_radius_m"], "actors.object_radius_m"),
            gripper_radius=_finite(actors["gripper_radius_m"], "actors.gripper_radius_m"),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad scenario: {e}") from e


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return scenario_from_dict(json.load(fh))
    except OSError as e:
        raise ParseError(f"cannot read scenario {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer over Python's digit limit
        raise ParseError(f"{path}: invalid JSON: {e}") from e


def save_scenario(s: Scenario, path) -> None:
    _dump_json(scenario_to_dict(s), path)


# --- bundle writing ---------------------------------------------------------


def _traj_records(timed: TimedTrajectory, pre_opt: Optional[np.ndarray] = None):
    """One record per frame; ``pre_opt`` holds the positions before optimization."""
    for k, (p, stage) in enumerate(zip(timed.positions, timed.stages)):
        rec = {
            "frame": k,
            "stage": stage.value,
            "gripper": STAGE_GRIPPER[stage].value,
            "x_m": float(p[0]),
            "y_m": float(p[1]),
            "z_m": float(p[2]),
        }
        if pre_opt is not None:
            rec["pre_opt_x_m"] = float(pre_opt[k, 0])
            rec["pre_opt_y_m"] = float(pre_opt[k, 1])
            rec["pre_opt_z_m"] = float(pre_opt[k, 2])
        yield rec


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_bundle(bundle: RunBundle, out_dir) -> None:
    """Lay the bundle out as a plain directory; byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    masks_dir = os.path.join(out_dir, "masks")
    os.makedirs(masks_dir, exist_ok=True)

    save_scenario(bundle.scenario, os.path.join(out_dir, "scenario.json"))
    _write_jsonl(
        os.path.join(out_dir, "trajectory_initial.jsonl"), _traj_records(bundle.timed_initial)
    )
    _write_jsonl(
        os.path.join(out_dir, "trajectory_optimized.jsonl"),
        _traj_records(bundle.timed_optimized, pre_opt=bundle.timed_initial.positions),
    )
    metrics = {
        "losses": bundle.loss_report.as_dict(),
        "clearance_before": {k: v.as_dict() for k, v in bundle.clearance_before.items()},
        "clearance_after": {k: v.as_dict() for k, v in bundle.clearance_after.items()},
        "arc_length_initial_m": arc_length(bundle.initial.waypoints()),
        "arc_length_optimized_m": arc_length(bundle.optimized.waypoints()),
        "arc_length_timed_m": arc_length(bundle.timed_optimized.positions),
        "points_outside_bounds": bundle.points_outside,
        "clearance_fallback": {
            s.stage.value: s.clearance_used for s in bundle.initial.subs
        },
    }
    _dump_json(metrics, os.path.join(out_dir, "metrics.json"))

    with open(os.path.join(out_dir, "speeds.csv"), "w", encoding="ascii") as fh:
        fh.write("frame,speed_before_m,speed_after_m\n")
        for k, b, a in speed_profile_csv_rows(bundle.speeds_before, bundle.speeds_after):
            fh.write(f"{k},{b},{a}\n")

    mask_files = []
    for k, m in enumerate(bundle.masks):
        name = f"frame_{k:04d}.pgm"
        write_pgm(os.path.join(masks_dir, name), m.image)
        mask_files.append(name)
    _dump_json(
        {
            "frame_count": len(bundle.masks),
            "keep_first_frame": bundle.masks[0].keep_first_frame,
            "palette": PALETTE,
            "object_rest_positions_drawn": True,
            "camera": scenario_to_dict(bundle.scenario)["camera"],
            "files": mask_files,
        },
        os.path.join(masks_dir, "manifest.json"),
    )
    _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "scenario": "scenario.json",
            "trajectories": ["trajectory_initial.jsonl", "trajectory_optimized.jsonl"],
            "metrics": "metrics.json",
            "speeds": "speeds.csv",
            "masks": "masks/manifest.json",
            "total_frames": bundle.scenario.total_frames,
        },
        os.path.join(out_dir, "manifest.json"),
    )
