"""End-to-end orchestration: scene -> EDT -> A* -> optimize -> reallocate
-> project, producing a deterministic run bundle.

Scenario files are JSON with unit-suffixed keys (``voxel_size_m``). The
``_FIELDS`` table is the one place that lists them: parsing, defaults and
``scenario.json`` all come from its rows. A bundle is a plain directory
with a manifest so runs diff cleanly; ``write_bundle`` writes it and the
``read_*`` functions read it back, both through one set of names.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from . import scene as scene_mod
from .distance_field import DistanceField, clearance_band, compute_edt
from .errors import CorruptBundle, DegeneratePath, KeypointOccupied, ParseError, VoxpickError
from .grid_planner import STAGE_ORDER, Stage, Trajectory, plan_three_stage
from .optimizer import LOSS_KEYS, LossReport, PlannerConfig, optimize_trajectory
from .projection import (
    CameraModel,
    GuidanceMask,
    PALETTE,
    render_guidance_masks,
    write_pgm,
)
from .scene import Box, GridBounds, OccupancyGrid, Plane, SceneSpec, Sphere, Vec3
from .time_alloc import (
    MAX_POSITION_M,
    STAGE_GRIPPER,
    GripperState,
    TimedTrajectory,
    VelocityProfile,
    arc_length,
    reallocate,
)

SCHEMA_VERSION = 1  # of the scenario file
BUNDLE_SCHEMA_VERSION = 2  # of the bundle's manifest.json
MAX_CELLS = 2**24  # 256^3, 8 times the largest grid the benchmark plans (128^3)
MAX_FRAMES = 2**14  # 68 times the remask benchmark's 241 frames
MAX_PIXELS = 2**24  # per frame; 54 times the remask benchmark's 640x480
MAX_ITERATIONS = 2**13  # refiner steps; 41 times the benchmark scenarios' 200


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
        if not 6 <= self.total_frames <= MAX_FRAMES:
            raise ParseError(f"frames.total_frames must be in [6, 2**14], got {self.total_frames}")
        if self.config.iterations > MAX_ITERATIONS:
            raise ParseError(
                f"planner.iterations must be at most 2**13, got {self.config.iterations}")
        if self.camera.width * self.camera.height > MAX_PIXELS:
            raise ParseError(f"camera.width_px * camera.height_px exceeds 2**24 pixels: "
                             f"{self.camera.width}x{self.camera.height}")
        for name, r in (
            ("actors.object_radius_m", self.object_radius),
            ("actors.gripper_radius_m", self.gripper_radius),
        ):
            if not (math.isfinite(r) and r > 0):
                raise ParseError(f"{name} must be positive and finite, got {r}")
        if math.prod(self.dims) > MAX_CELLS:
            raise ParseError(f"grid.dims {list(self.dims)} has more than 2**24 cells")
        voxel = self.bounds.voxel_size
        # bounds every voxel center; a Python float product overflows to inf, silently
        if not all(abs(lo + n * voxel) <= MAX_POSITION_M
                   for lo, n in zip(self.bounds.min_corner, self.dims)):
            raise ParseError(f"grid.min_corner_m + dims * voxel_size_m > {MAX_POSITION_M:g} m")
        diagonal = math.hypot(*self.dims) * voxel
        if not self.config.d_safe <= diagonal:
            raise ParseError(
                f"planner.d_safe_m {self.config.d_safe} exceeds the grid diagonal {diagonal} m"
            )
        for name, p in (
            ("effector_start", self.spec.effector_start),
            ("object_position", self.spec.object_position),
            ("place_target", self.spec.place_target),
            ("grasp_point", self.spec.grasp_point()),
        ):
            if not self.bounds.cell(p, self.dims)[1]:
                raise ParseError(f"{name} {tuple(np.asarray(p).tolist())} outside grid bounds")


@dataclass
class ClearanceStats:
    """Sampled clearances, each at most the field's ``exact_below``: below
    it a value is exact, at it only a lower bound."""

    min_m: float
    interior_min_m: float  # min over waypoints excluding the stage endpoints


@dataclass
class RunBundle:
    scenario: Scenario
    initial: Trajectory
    optimized: Trajectory
    timed_initial: TimedTrajectory
    timed_optimized: TimedTrajectory
    loss_report: LossReport
    clearance_band_m: float  # the field's exact_below: no ClearanceStats value exceeds it
    clearance_before: Dict[str, ClearanceStats]
    clearance_after: Dict[str, ClearanceStats]
    masks: List[GuidanceMask]
    points_outside: int = 0


def _clearance(traj: Trajectory, fld: DistanceField) -> Dict[str, ClearanceStats]:
    out = {}
    for sub in traj.subs:
        d = np.minimum(fld.sample(sub.points), fld.exact_below)
        interior = d[1:-1] if len(d) > 2 else d
        out[sub.stage.value] = ClearanceStats(
            min_m=float(d.min()), interior_min_m=float(interior.min())
        )
    return out


def build_grid(scenario: Scenario) -> Tuple[OccupancyGrid, int]:
    """The grid from the primitives or the point cloud, and the count of
    cloud points outside it. Whatever the source, each keypoint a leg starts
    or ends at must land in a free cell."""
    spec = scenario.spec
    if scenario.cloud_path is None:
        grid, outside = scene_mod.synth_scene(spec, scenario.dims, scenario.bounds), 0
    else:
        points = scene_mod.load_point_cloud(scenario.cloud_path)
        grid, outside = scene_mod.voxelize(points, scenario.dims, scenario.bounds)
    keypoints = {"effector start": spec.effector_start, "grasp point": spec.grasp_point(),
                 "place target": spec.place_target}
    for name, p in keypoints.items():
        cell = grid.world_to_grid(p)
        if not grid.is_free(cell):
            where = tuple(np.asarray(p).tolist())
            raise KeypointOccupied(f"{name} at {where} lands in occupied cell {cell}")
    return grid, outside


def _invariant(ok: bool, stage: str, message: str) -> None:
    """A runtime invariant that, unlike ``assert``, survives ``python -O``."""
    if not ok:
        err = VoxpickError(message)
        err.stage = stage
        raise err


def run(scenario: Scenario) -> RunBundle:
    """Execute the full planning chain; deterministic for a fixed
    scenario. Stage failures raise errors tagged with the failing stage."""
    grid, outside = build_grid(scenario)

    fld = compute_edt(grid, clearance_band(grid, scenario.config.d_safe))
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
        _invariant(
            len(sub0.points) == len(sub1.points),
            "optimize",
            f"{sub0.stage.value}: waypoint count changed",
        )
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

    masks = render_guidance_masks(
        timed_optimized, spec.grasp_point(), spec.place_target,
        scenario.object_radius, scenario.gripper_radius, scenario.camera,
    )
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
        clearance_band_m=fld.exact_below,
        clearance_before=_clearance(initial, fld),
        clearance_after=_clearance(optimized, fld),
        masks=masks,
        points_outside=outside,
    )


# --- scenario (de)serialization --------------------------------------------


def _finite(value, name: str) -> float:
    # the bound also refuses NaN, the infinities and ints beyond float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ParseError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _non_negative_int(value, name: str) -> int:
    # bool is an int subclass, and int() would truncate 2.7 to 2
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{name} must be a string, got {value!r}")
    return value


def _vec3(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"{name} must be a list of 3 numbers, got {value!r}")
    for v in value:
        # under the bound, sums and squares of coordinates stay finite
        if not abs(_finite(v, name)) <= MAX_POSITION_M:
            raise ParseError(f"{name} must lie within {MAX_POSITION_M:g} m, got {v!r}")
    return tuple(value)  # as written, so scenario.json echoes the file


def _matrix3(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"{name} must be 3 rows of 3 numbers, got {value!r}")
    return tuple(_vec3(row, name) for row in value)


def _dims(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3 or 0 in value:
        raise ParseError(f"{name} must be 3 integers >= 1, got {value!r}")
    return tuple(_non_negative_int(v, name) for v in value)


def _schema_version(value, name: str) -> int:
    if _non_negative_int(value, name) != SCHEMA_VERSION:
        raise ParseError(f"{name} must be {SCHEMA_VERSION}, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be a JSON object, got {value!r}")
    return value


# A primitive's JSON keys are "type" (its class name in lower case) and its
# dataclass fields, each read by the checker of the field's annotation.
_BY_ANNOTATION = {Vec3: _vec3, float: _finite, int: _non_negative_int, str: _string}
_PRIMITIVES = {
    cls.__name__.lower(): (cls, {k: _BY_ANNOTATION[t] for k, t in get_type_hints(cls).items()})
    for cls in (Box, Sphere, Plane)
}


def _primitives(value, name: str) -> tuple:
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list, got {value!r}")
    out = []
    for p in value:
        tag = _object(p, f"{name} entry").get("type")
        if tag not in _PRIMITIVES:
            raise ParseError(f"unknown primitive type {tag!r}")
        cls, checkers = _PRIMITIVES[tag]
        unknown = [k for k in p if k != "type" and k not in checkers]
        if unknown:
            raise ParseError(f"unknown key {tag}.{unknown[0]}")
        out.append(cls(**{k: checkers[k](v, f"{tag}.{k}") for k, v in p.items() if k != "type"}))
    return tuple(out)


_REQUIRED, _INHERIT = object(), object()

# The one list of scenario-file keys: (dotted file key, Scenario attribute
# path, kind, default). The kind checks a value as the file holds it. An
# absent key is an error if the default is _REQUIRED, leaves the dataclass
# default in force if it is _INHERIT, and takes the default otherwise.
# scenario.json writes every value that is not None; schema_version has no
# attribute and always writes its default.
_FIELDS = (
    ("schema_version", None, _schema_version, SCHEMA_VERSION),
    ("name", "name", _string, "scenario"),
    ("cloud_path", "cloud_path", _string, None),
    ("grid.dims", "dims", _dims, _REQUIRED),
    ("grid.min_corner_m", "bounds.min_corner", _vec3, _REQUIRED),
    ("grid.voxel_size_m", "bounds.voxel_size", _finite, _REQUIRED),
    ("planner.w_len", "config.w_len", _finite, _INHERIT),
    ("planner.w_acc", "config.w_acc", _finite, _INHERIT),
    ("planner.w_curv", "config.w_curv", _finite, _INHERIT),
    ("planner.w_col", "config.w_col", _finite, _INHERIT),
    ("planner.d_safe_m", "config.d_safe", _finite, _INHERIT),  # absent: 2 voxels
    ("planner.learning_rate", "config.learning_rate", _finite, _INHERIT),
    ("planner.iterations", "config.iterations", _non_negative_int, _INHERIT),
    ("planner.clearance_voxels", "config.clearance_voxels", _non_negative_int, _INHERIT),
    ("planner.eps_curv", "config.eps_curv", _finite, _INHERIT),
    ("frames.total_frames", "total_frames", _non_negative_int, 49),
    ("frames.velocity_profile", "profile", lambda v, _: VelocityProfile(v), VelocityProfile.SINE),
    ("camera.fx_px", "camera.fx", _finite, _REQUIRED),
    ("camera.fy_px", "camera.fy", _finite, _REQUIRED),
    ("camera.cx_px", "camera.cx", _finite, _REQUIRED),
    ("camera.cy_px", "camera.cy", _finite, _REQUIRED),
    ("camera.width_px", "camera.width", _non_negative_int, _REQUIRED),
    ("camera.height_px", "camera.height", _non_negative_int, _REQUIRED),
    ("camera.rotation", "camera.rotation", _matrix3, _REQUIRED),
    ("camera.translation_m", "camera.translation", _vec3, _REQUIRED),
    ("actors.object_radius_m", "object_radius", _finite, _REQUIRED),
    ("actors.gripper_radius_m", "gripper_radius", _finite, _REQUIRED),
    ("scene.primitives", "spec.primitives", _primitives, ()),
    ("scene.effector_start_m", "spec.effector_start", _vec3, _REQUIRED),
    ("scene.object_position_m", "spec.object_position", _vec3, _REQUIRED),
    ("scene.place_target_m", "spec.place_target", _vec3, _REQUIRED),
    ("scene.grasp_offset_m", "spec.grasp_offset", _vec3, _INHERIT),
)
_PATHS = {tuple(row[0].split(".")) for row in _FIELDS}
_SECTIONS = {path[0] for path in _PATHS if len(path) == 2}
# the Scenario fields that are dataclasses of their own, in the order they are built
_PARTS = {"bounds": GridBounds, "config": PlannerConfig, "spec": SceneSpec, "camera": CameraModel}


def scenario_from_dict(d: dict) -> Scenario:
    try:
        flat = {}  # the file's values by key path
        for name, value in _object(d, "scenario").items():
            if name in _SECTIONS:
                flat.update(((name, k), v) for k, v in _object(value, name).items())
            else:
                flat[(name,)] = value
        unknown = [".".join(path) for path in flat if path not in _PATHS]
        if unknown:
            raise ParseError(f"unknown key {unknown[0]}")
        args = {"": {}, **{part: {} for part in _PARTS}}
        for key, attr, kind, default in _FIELDS:
            path = tuple(key.split("."))
            value = kind(flat[path], key) if path in flat else default
            if value is _REQUIRED:
                raise ParseError(f"{key} is required")
            if value is not _INHERIT and attr is not None:
                part, _, field = attr.rpartition(".")
                args[part][field] = value
        args["config"].setdefault("d_safe", 2.0 * args["bounds"]["voxel_size"])
        return Scenario(**args[""], **{part: cls(**args[part]) for part, cls in _PARTS.items()})
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad scenario: {e}") from e


def _json(value):
    """A scenario value as the file's JSON, in fresh lists and dicts."""
    if isinstance(value, VelocityProfile):
        return value.value
    if is_dataclass(value):  # a primitive
        fields_json = {f.name: _json(getattr(value, f.name)) for f in fields(value)}
        return {"type": type(value).__name__.lower(), **fields_json}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_json(v) for v in value]
    return value


def scenario_to_dict(s: Scenario) -> dict:
    d = {}
    for key, attr, _, default in _FIELDS:
        value = default if attr is None else attrgetter(attr)(s)
        if value is not None:
            section, _, leaf = key.rpartition(".")
            (d.setdefault(section, {}) if section else d)[leaf] = _json(value)
    return d


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_json(path, error):
    """A JSON file's value; a file that cannot be read or parsed raises ``error``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer over Python's digit limit
        raise error(f"{path}: invalid JSON: {e}") from e


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path, ParseError))


def save_scenario(s: Scenario, path) -> None:
    _dump_json(scenario_to_dict(s), path)


# --- the run bundle ---------------------------------------------------------
# Each bundle file name and record key, defined once for the writer and the readers.

_SCENARIO_FILE = "scenario.json"
_TRAJECTORY_FILES = {"initial": "trajectory_initial.jsonl",
                     "optimized": "trajectory_optimized.jsonl"}
_WAYPOINTS_FILE = "waypoints.jsonl"
_METRICS_FILE = "metrics.json"
_MANIFEST_FILE = "manifest.json"  # of the bundle, and of its masks directory
_MASKS_DIR = "masks"
FRAME_FILE = "frame_{:04d}.pgm"  # frame k's mask, in a bundle and in `voxpick masks` output

_XYZ = ("x_m", "y_m", "z_m")
_TRAJ_KEYS = ("frame", "stage", "gripper") + _XYZ
_WAYPOINT_XYZ = _XYZ + tuple("initial_" + k for k in _XYZ)
# metrics.json: LossReport.as_dict under LOSSES, keyed by phase like the clearances
LOSSES, BAND_KEY = "losses", "clearance_band_m"
_PHASES = ("before", "after")
_CLEARANCE_KEYS = {phase: "clearance_" + phase for phase in _PHASES}
CLEARANCE_COLUMNS = tuple(f.name for f in fields(ClearanceStats))
_ARC_LENGTH_KEYS = ("arc_length_initial_m", "arc_length_optimized_m", "arc_length_timed_m")


def _traj_records(timed: TimedTrajectory):
    """One record per frame."""
    for k, (p, stage) in enumerate(zip(timed.positions.tolist(), timed.stages)):
        yield dict(zip(_TRAJ_KEYS, (k, stage.value, STAGE_GRIPPER[stage].value, *p)))


def _waypoint_records(initial: Trajectory, optimized: Trajectory):
    """One record per waypoint of each leg in stage order, a junction in
    both of its legs: the refined position and the grid-planned one, which
    share a record because refinement keeps each leg's waypoint count."""
    for sub0, sub1 in zip(initial.subs, optimized.subs):
        for p0, p1 in zip(sub0.points.tolist(), sub1.points.tolist()):
            yield {"stage": sub1.stage.value, **dict(zip(_WAYPOINT_XYZ, p1 + p0))}


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_bundle(bundle: RunBundle, out_dir) -> None:
    """Lay the bundle out as a plain directory; byte-deterministic."""
    masks_dir = os.path.join(out_dir, _MASKS_DIR)
    os.makedirs(masks_dir, exist_ok=True)

    save_scenario(bundle.scenario, os.path.join(out_dir, _SCENARIO_FILE))
    for name, timed in zip(_TRAJECTORY_FILES.values(),
                           (bundle.timed_initial, bundle.timed_optimized)):
        _write_jsonl(os.path.join(out_dir, name), _traj_records(timed))
    _write_jsonl(
        os.path.join(out_dir, _WAYPOINTS_FILE), _waypoint_records(bundle.initial, bundle.optimized)
    )
    arc_lengths = (arc_length(bundle.initial.waypoints()),
                   arc_length(bundle.optimized.waypoints()),
                   arc_length(bundle.timed_optimized.positions))
    metrics = {
        LOSSES: bundle.loss_report.as_dict(),
        BAND_KEY: bundle.clearance_band_m,
        **{_CLEARANCE_KEYS[phase]: {k: asdict(v) for k, v in c.items()}
           for phase, c in zip(_PHASES, (bundle.clearance_before, bundle.clearance_after))},
        **dict(zip(_ARC_LENGTH_KEYS, arc_lengths)),
        "points_outside_bounds": bundle.points_outside,
        "clearance_fallback": {s.stage.value: s.clearance_used for s in bundle.initial.subs},
    }
    _dump_json(metrics, os.path.join(out_dir, _METRICS_FILE))

    mask_files = [FRAME_FILE.format(k) for k in range(len(bundle.masks))]
    for name, m in zip(mask_files, bundle.masks):
        write_pgm(os.path.join(masks_dir, name), m.image)
    _dump_json(
        {"keep_first_frame": bundle.masks[0].keep_first_frame, "palette": PALETTE,
         "files": mask_files},
        os.path.join(masks_dir, _MANIFEST_FILE),
    )
    _dump_json(
        {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "scenario": _SCENARIO_FILE,
            "trajectories": list(_TRAJECTORY_FILES.values()),
            "waypoints": _WAYPOINTS_FILE,
            "metrics": _METRICS_FILE,
            "masks": f"{_MASKS_DIR}/{_MANIFEST_FILE}",
        },
        os.path.join(out_dir, _MANIFEST_FILE),
    )


def read_bundle_scenario(bundle_dir) -> Scenario:
    """The scenario a bundle was planned from, checked as any scenario file."""
    return load_scenario(os.path.join(bundle_dir, _SCENARIO_FILE))


def read_timed(bundle_dir, phase: str) -> TimedTrajectory:
    """The ``phase`` trajectory, the inverse of ``_traj_records``: record k
    must be frame k, carry the gripper state of its stage, and the stages
    must run approach -> manipulate -> back_idle."""
    path = os.path.join(bundle_dir, _TRAJECTORY_FILES[phase])
    positions, stages = [], []
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh):
                # decoded here, not by the file, so a bad byte names its line
                rec = json.loads(line.decode("ascii"))
                frame, stage, gripper, *xyz = (rec[k] for k in _TRAJ_KEYS)
                stage = Stage(stage)
                if _non_negative_int(frame, "frame") != line_no:
                    raise ValueError(f"frame {frame!r}, expected {line_no}")
                if GripperState(gripper) is not STAGE_GRIPPER[stage]:
                    raise ValueError(f"gripper {gripper!r} in stage {stage.value!r}")
                if stages and STAGE_ORDER.index(stage) < STAGE_ORDER.index(stages[-1]):
                    raise ValueError(f"stage {stage.value!r} after {stages[-1].value!r}")
                positions.append([_finite(v, k) for k, v in zip(_XYZ, xyz)])
                stages.append(stage)
    except OSError as e:
        raise CorruptBundle(f"cannot read {path}: {e}") from e
    except (KeyError, TypeError, ValueError, ParseError) as e:
        raise CorruptBundle(f"{path} line {line_no + 1}: {e}") from e
    if not stages:
        raise CorruptBundle(f"{path}: no frames")
    try:
        return TimedTrajectory(np.array(positions), tuple(stages))
    except DegeneratePath as e:
        raise CorruptBundle(f"{path}: {e}") from e


def _stop_step(totals) -> int:
    """The step a leg stopped at: its trace holds the input's total, then
    one per step."""
    if not (isinstance(totals, list) and totals):
        raise ParseError(f"a leg's trace must be a non-empty list, got {type(totals).__name__}")
    return len(totals) - 1


def read_metrics(bundle_dir) -> dict:
    """The loss totals and clearances of each phase, each leg's stop step,
    the clearance band and the arc lengths, as the rows that ``voxpick
    report`` prints."""
    metrics = _load_json(os.path.join(bundle_dir, _METRICS_FILE), CorruptBundle)
    try:
        clearance = [(phase, stage.value, metrics[_CLEARANCE_KEYS[phase]][stage.value])
                     for phase in _PHASES for stage in STAGE_ORDER]
        return {
            LOSSES: [(phase, [_finite(metrics[LOSSES][phase][k], k) for k in LOSS_KEYS])
                     for phase in _PHASES],
            "stop_iteration": [(stage.value, _stop_step(metrics[LOSSES]["trace"][stage.value]))
                               for stage in STAGE_ORDER],
            BAND_KEY: _finite(metrics[BAND_KEY], BAND_KEY),
            "clearance": [(phase, stage, [_finite(stats[k], k) for k in CLEARANCE_COLUMNS])
                          for phase, stage, stats in clearance],
            "arc_lengths": [(k, _finite(metrics[k], k)) for k in _ARC_LENGTH_KEYS],
        }
    except (KeyError, TypeError, ParseError) as e:
        raise CorruptBundle(f"{_METRICS_FILE}: missing or malformed entry: {e}") from e
