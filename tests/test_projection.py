"""Pinhole projection, rasterization, and mask rendering."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxpick
from voxpick.errors import DimensionMismatch
from voxpick.grid_planner import Stage
from voxpick.projection import (
    BEHIND,
    CameraModel,
    PALETTE,
    SphereActor,
    look_at,
    project_sphere,
    rasterize_circle,
    read_pgm,
    render_guidance_masks,
    write_pgm,
)
from voxpick.time_alloc import TimedTrajectory


def _identity_cam(**kw):
    defaults = dict(
        fx=500.0, fy=500.0, cx=64.0, cy=64.0, width=128, height=128,
        rotation=np.eye(3), translation=np.zeros(3),
    )
    defaults.update(kw)
    return CameraModel(**defaults)


def test_on_axis_projection_is_exact():
    cam = _identity_cam()
    assert project_sphere(cam, (0.0, 0.0, 2.0), 0.1) == (64.0, 64.0, 25.0)


def test_spheres_behind_or_straddling_the_camera():
    cam = _identity_cam()
    assert project_sphere(cam, (0.0, 0.0, -1.0), 0.1) == BEHIND
    assert project_sphere(cam, (0.0, 0.0, 0.05), 0.1) == BEHIND  # Z <= R


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.01, 0.5),
    st.floats(1.0, 10.0),
    st.floats(0.1, 10.0),
)
def test_radius_shrinks_with_depth(radius, z, dz):
    cam = _identity_cam()
    near = project_sphere(cam, (0.0, 0.0, radius + z), radius)
    far = project_sphere(cam, (0.0, 0.0, radius + z + dz), radius)
    assert near[2] > far[2]


def test_camera_rejects_bad_extrinsics_and_intrinsics():
    with pytest.raises(ValueError):
        _identity_cam(rotation=np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        _identity_cam(fx=-1.0)


def test_look_at_geometry():
    R, t = look_at(eye=(0.0, -5.0, 0.0), target=(0.0, 0.0, 0.0))
    cam = _identity_cam(rotation=R, translation=t)
    # the target sits on the optical axis, 5 m ahead
    np.testing.assert_allclose(cam.to_camera((0.0, 0.0, 0.0)), [0, 0, 5], atol=1e-12)
    assert cam.to_camera((0.0, -4.0, 0.0))[2] == pytest.approx(1.0)
    # world up maps to camera -y (+y is down)
    np.testing.assert_allclose(cam.to_camera((0.0, -5.0, 1.0)), [0, -1, 0], atol=1e-12)


def test_rasterize_circle_pixel_centers():
    img = np.zeros((8, 8), np.uint8)
    rasterize_circle(img, (4.0, 4.0, 1.0), 7)
    # radius 1 around (4, 4) covers exactly the pixels whose centers are
    # within distance 1: (3,3), (3,4), (4,3), (4,4)
    assert img.sum() == 4 * 7
    assert img[3, 3] and img[4, 4]
    rasterize_circle(img, BEHIND, 9)  # no-op
    assert img.max() == 7


def _timed(n, closed_range):
    """``n`` frames on the optical axis; the gripper is closed (manipulate)
    on ``closed_range`` and open (approach before it, back_idle after)."""
    lo, hi = closed_range
    positions = [[0.0, 0.0, 2.0 + 0.1 * k] for k in range(n)]
    stages = (
        (Stage.APPROACH,) * lo + (Stage.MANIPULATE,) * (hi - lo) + (Stage.BACK_IDLE,) * (n - hi)
    )
    return TimedTrajectory(np.array(positions), stages)


def test_render_masks_palette_and_keep_flag():
    cam = _identity_cam()
    timed = _timed(5, (2, 4))
    centers = timed.positions
    masks = render_guidance_masks(
        timed,
        SphereActor(0.2, centers),
        SphereActor(0.1, centers),
        cam,
    )
    assert len(masks) == 5
    assert masks[0].keep_first_frame and not masks[0].image.any()
    for k, m in enumerate(masks[1:], start=1):
        values = set(np.unique(m.image).tolist())
        assert values <= set(PALETTE.values())
        want = PALETTE["gripper_closed"] if 2 <= k < 4 else PALETTE["gripper_open"]
        assert want in values
    # gripper overlays the object: the shared center pixel shows the gripper
    assert masks[1].image[64, 64] == PALETTE["gripper_open"]


def test_render_masks_rejects_frame_count_mismatch():
    cam = _identity_cam()
    timed = _timed(4, (1, 3))
    good = SphereActor(0.1, timed.positions)
    bad = SphereActor(0.2, timed.positions[:-1])
    with pytest.raises(DimensionMismatch):
        render_guidance_masks(timed, bad, good, cam)


def test_pgm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, size=(6, 9)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), img)
    with pytest.raises(ValueError):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n1 1\n255\n0\n")
        read_pgm(tmp_path / "bad.pgm")


def test_projection_check_keeps_its_on_axis_case_under_python_O():
    # -O strips asserts: a 1e-9 px error on the optical axis must still fail
    code = (
        "import voxpick.selfcheck as sc\n"
        "exact = sc.project_sphere\n"
        "def nudged(cam, center, radius):\n"
        "    u, v, r = exact(cam, center, radius)\n"
        "    return u + 1e-9, v, r\n"
        "sc.project_sphere = nudged\n"
        "try:\n"
        "    sc.check_projection_fidelity()\n"
        "except AssertionError:\n"
        "    raise SystemExit(7)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(voxpick.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 7, proc.stderr
