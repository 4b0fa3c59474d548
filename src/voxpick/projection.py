"""Pinhole projection and guidance-mask rendering.

The object and gripper are spheres placed per frame by ``actor_frames``;
each frame they project to circles (u, v, r_px) with r_px = fx * R / Z,
the small-circle pinhole approximation (error < 0.6% beyond Z = 10R).
Masks are 8-bit label images: 0 background, 128 object, 200 open
gripper, 255 closed gripper; the gripper overlays the object on overlap.
Frame 0 stays all background and carries a keep-first-frame flag for the
downstream conditioning consumer. A ``GuidanceMask`` keeps its circles and
draws its pixels only when read, so a writer holds one frame at a time.

Raster contract: a pixel is filled when its center (index + 0.5) is
inside or on the circle, ``(x - u)**2 + (y - v)**2 <= r*r`` in float64.
Only the circle's bounding window is evaluated; ``oracles.circle_mask``
evaluates the same test over the full frame and is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .grid_planner import Stage
from .time_alloc import STAGE_GRIPPER, GripperState, TimedTrajectory

PALETTE = {
    "background": 0,
    "object": 128,
    "gripper_open": 200,
    "gripper_closed": 255,
}

BEHIND = "behind"  # sentinel for spheres at or behind the image plane


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray  # (3, 3) world-to-camera
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError(f"image must be at least 1x1 px: {self.width}x{self.height}")
        # every bound is written so that NaN and the infinities fail too.
        # A visible sphere has Z > R, so r_px = fx R / Z < fx cannot overflow
        # r_px**2, and a bounded cx, cy cannot by itself overflow the
        # rasterizer's (x - u)**2
        if not (0 < self.fx <= 1e6 and 0 < self.fy <= 1e6):
            raise ValueError(f"focal lengths must be in (0, 1e6] px: fx={self.fx} fy={self.fy}")
        if not (abs(self.cx) <= 1e6 and abs(self.cy) <= 1e6):
            raise ValueError(f"principal point must be in [-1e6, 1e6] px: {self.cx}, {self.cy}")
        # an orthonormal matrix has no entry beyond 1, and bounding the
        # entries first keeps R.T @ R finite
        if not (np.abs(R) <= 1.0).all():
            raise ValueError("rotation entries must be in [-1, 1]")
        if not np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9:
            raise ValueError("rotation is not orthonormal")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def to_camera(self, p_world) -> np.ndarray:
        p = np.asarray(p_world, dtype=np.float64)
        return p @ self.rotation.T + self.translation


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> Tuple[np.ndarray, np.ndarray]:
    """World-to-camera rotation/translation for a camera at ``eye``
    looking at ``target`` (camera +z forward, +y down)."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, dtype=np.float64))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    return R, -R @ eye


@dataclass(frozen=True)
class GuidanceMask:
    """One frame as drawn: its (height, width) and its (circle, palette
    value) pairs in drawing order. ``image`` draws them on a fresh
    background at each read, so a list of masks holds no pixels."""

    shape: Tuple[int, int]
    circles: Tuple[tuple, ...] = ()
    keep_first_frame: bool = False

    @property
    def image(self) -> np.ndarray:
        img = np.zeros(self.shape, dtype=np.uint8)
        for circle, value in self.circles:
            rasterize_circle(img, circle, value)
        return img


def project_sphere(cam: CameraModel, center, radius_m: float):
    """Project a world sphere to an image circle (u, v, r_px), or BEHIND
    when the camera-frame depth is not safely positive (Z <= radius)."""
    X, Y, Z = cam.to_camera(center)
    if Z <= radius_m:
        return BEHIND
    u = cam.fx * X / Z + cam.cx
    v = cam.fy * Y / Z + cam.cy
    r_px = cam.fx * radius_m / Z
    return float(u), float(v), float(r_px)


def rasterize_circle(mask: np.ndarray, circle, value: int) -> None:
    """Set, in place, the pixels whose centers are inside or on the circle,
    evaluating the 2-D test only in the circle's bounding window."""
    if circle == BEHIND:
        return
    u, v, r = circle
    h, w = mask.shape
    x = np.arange(w) + 0.5
    y = np.arange(h) + 0.5
    # a float sum of squares is never below either square, so only columns
    # with (x - u)**2 <= r*r and rows with (y - v)**2 <= r*r can pass; taking
    # the window from the same float test keeps it exact where x - u rounds
    # by whole pixels (|u| > 2**53) or r*r overflows
    cols = np.flatnonzero((x - u) ** 2 <= r * r)
    rows = np.flatnonzero((y - v) ** 2 <= r * r)
    if cols.size == 0 or rows.size == 0:
        return
    cs, rs = slice(cols[0], cols[-1] + 1), slice(rows[0], rows[-1] + 1)
    inside = (x[None, cs] - u) ** 2 + (y[rs, None] - v) ** 2 <= r * r
    mask[rs, cs][inside] = value


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


def render_guidance_masks(
    timed: TimedTrajectory,
    grasp_point,
    place_target,
    object_radius: float,
    gripper_radius: float,
    cam: CameraModel,
) -> List[GuidanceMask]:
    """Per-frame masks of the ``actor_frames`` spheres, the object
    resting at ``grasp_point`` before the pick: object circle first,
    gripper overlaid on top with the open/closed palette value; frame 0
    all background with the keep flag set."""
    obj_frames, grip_frames = actor_frames(timed, grasp_point, place_target)
    shape = (cam.height, cam.width)
    masks: List[GuidanceMask] = []
    for k in range(timed.n_frames):
        if k == 0:
            masks.append(GuidanceMask(shape, keep_first_frame=True))
            continue
        gval = (
            PALETTE["gripper_closed"]
            if STAGE_GRIPPER[timed.stages[k]] is GripperState.CLOSED
            else PALETTE["gripper_open"]
        )
        masks.append(GuidanceMask(shape, (
            (project_sphere(cam, obj_frames[k], object_radius), PALETTE["object"]),
            (project_sphere(cam, grip_frames[k], gripper_radius), gval),
        )))
    return masks


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), 8-bit."""
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image, dtype=np.uint8).data)

