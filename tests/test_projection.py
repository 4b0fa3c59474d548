"""Pinhole projection, rasterization, and mask rendering."""

import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voxpick
from voxpick.grid_planner import Stage
from voxpick.oracles import circle_mask
from voxpick.projection import (
    BEHIND,
    CameraModel,
    PALETTE,
    look_at,
    project_sphere,
    rasterize_circle,
    render_guidance_masks,
    write_pgm,
)
from voxpick.time_alloc import TimedTrajectory

from pgm import read_pgm


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


def _centre(n):
    """A circle-centre coordinate along an axis of ``n`` pixels."""
    return st.one_of(
        st.floats(-n - 10.0, 2.0 * n + 10.0),  # inside, near or past either side
        st.integers(-n - 5, 2 * n + 5).map(float),  # on a pixel edge
        st.integers(-n - 5, 2 * n + 5).map(lambda i: i + 0.5),  # on a pixel centre
        st.floats(-1e300, 1e300),
    )


_RADIUS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.5, exclude_max=True),
    # an integer radius around a pixel centre puts pixel centres exactly on
    # the circle
    st.integers(0, 50).map(float),
    st.floats(0.0, 100.0),  # up to more than twice the largest image side
    st.floats(0.0, 1e300),
)


@st.composite
def _image_and_circle(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return h, w, (draw(_centre(w)), draw(_centre(h)), draw(_RADIUS))


def _raster_and_oracle(h, w, circle, value):
    before = (np.arange(h * w).reshape(h, w) % 7 + 1).astype(np.uint8)
    img = before.copy()
    rasterize_circle(img, circle, value)
    want = np.where(circle_mask(SimpleNamespace(width=w, height=h), circle), value, before)
    return img, want


@settings(max_examples=400, deadline=None)
@given(_image_and_circle(), st.sampled_from(sorted(PALETTE.values())))
# r*r overflows to inf, so the full-frame test passes every pixel
@example((3, 120, (1e300, 0.5, 1e200)), 128)
# x - u rounds to a multiple of 4: column 98 passes, 1.5 px outside the circle
@example((3, 120, (3e16, 0.5, 3e16 - 100)), 128)
def test_rasterize_circle_sets_exactly_the_full_frame_oracle_pixels(case, value):
    h, w, circle = case
    with np.errstate(over="ignore"):  # squares of 1e300 overflow to inf in both
        img, want = _raster_and_oracle(h, w, circle, value)
    np.testing.assert_array_equal(img, want)


@pytest.mark.parametrize("circle", [
    (np.nan, 4.0, 3.0), (4.0, np.nan, 3.0), (4.0, 4.0, np.nan),
    (np.inf, 4.0, 3.0), (4.0, -np.inf, 3.0), (4.0, 4.0, np.inf), (np.inf, 4.0, np.inf),
])
def test_rasterize_circle_with_a_non_finite_component_raises_nothing(circle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img, want = _raster_and_oracle(6, 9, circle, 200)
    np.testing.assert_array_equal(img, want)


def test_rasterize_behind_is_a_no_op():
    img = np.full((5, 7), 3, np.uint8)
    rasterize_circle(img, BEHIND, 255)
    assert (img == 3).all()


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
    masks = render_guidance_masks(
        timed, timed.positions[0], timed.positions[-1], 0.2, 0.1, cam
    )
    assert len(masks) == 5
    assert masks[0].keep_first_frame and not masks[0].image.any()
    for k, m in enumerate(masks[1:], start=1):
        values = set(np.unique(m.image).tolist())
        assert values <= set(PALETTE.values())
        want = PALETTE["gripper_closed"] if 2 <= k < 4 else PALETTE["gripper_open"]
        assert {want, PALETTE["object"]} <= values
    # gripper overlays the object: the shared center pixel shows the gripper
    assert masks[1].image[64, 64] == PALETTE["gripper_open"]


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
