"""Canned scenarios for the CLI and the test suite.

The "sink" template is the qualitative benchmark scene: a tabletop with a
raised rim wall between the object and the place target. The shortest
grid path skims the top of the rim well inside the safety margin, so the
refiner has to lift the manipulation leg upward over it. Keypoints are
placed so every initial grid path is a straight lattice line, which keeps
the time-reallocation profile clean. The "empty" template keeps the same
keypoints in an obstacle-free volume.

The metric scale (voxel_size = 0.2 m) is chosen so the refiner's fixed
step size is a fraction of a voxel; geometry below is written in voxel
units times VOXEL.
"""

from __future__ import annotations

from .errors import ParseError
from .optimizer import PlannerConfig
from .pipeline import Scenario
from .projection import CameraModel, look_at
from .scene import Box, GridBounds, SceneSpec
from .time_alloc import VelocityProfile

DIMS = (64, 64, 64)
VOXEL = 0.2  # meters
BOUNDS = GridBounds((0.0, 0.0, 0.0), VOXEL)


def default_camera() -> CameraModel:
    R, t = look_at(eye=(32 * VOXEL, -60 * VOXEL, 70 * VOXEL),
                   target=(32 * VOXEL, 32 * VOXEL, 28 * VOXEL))
    return CameraModel(
        fx=300.0, fy=300.0, cx=128.0, cy=128.0, width=256, height=256,
        rotation=R, translation=t,
    )


def _scenario(name: str, spec: SceneSpec) -> Scenario:
    return Scenario(
        name=name,
        dims=DIMS,
        bounds=BOUNDS,
        spec=spec,
        cloud_path=None,
        config=PlannerConfig(d_safe=8.0 * VOXEL),
        total_frames=49,
        profile=VelocityProfile.SINE,
        camera=default_camera(),
        object_radius=5.0 * VOXEL,
        gripper_radius=2.0 * VOXEL,
    )


def _keypoints():
    # chosen so all three grid-planned legs are straight lattice lines:
    # effector -> object and target -> effector are x/z diagonals over the
    # rim, object -> target runs straight along x just above the rim top
    return dict(
        effector_start=(34 * VOXEL, 32 * VOXEL, 43 * VOXEL),
        object_position=(16 * VOXEL, 32 * VOXEL, 25 * VOXEL),
        place_target=(52 * VOXEL, 32 * VOXEL, 25 * VOXEL),
    )


def sink_scenario() -> Scenario:
    spec = SceneSpec(
        primitives=(
            Box((0.0, 0.0, 0.0), (64 * VOXEL, 64 * VOXEL, 10 * VOXEL), name="table"),
            Box((31 * VOXEL, 10 * VOXEL, 10 * VOXEL),
                (33 * VOXEL, 54 * VOXEL, 24 * VOXEL), name="rim"),
        ),
        **_keypoints(),
    )
    return _scenario("sink", spec)


def empty_scenario() -> Scenario:
    spec = SceneSpec(primitives=(), **_keypoints())
    return _scenario("empty", spec)


TEMPLATES = {"sink": sink_scenario, "empty": empty_scenario}


def make_template(name: str) -> Scenario:
    try:
        factory = TEMPLATES[name]
    except KeyError:
        raise ParseError(f"unknown template {name!r}; choose from {sorted(TEMPLATES)}")
    return factory()
