"""Scene ingestion: parsing, voxelization, and grid coordinate maps."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpick.errors import OutOfBounds, ParseError
from voxpick.scene import (
    Box,
    GridBounds,
    OccupancyGrid,
    Plane,
    SceneSpec,
    Sphere,
    load_point_cloud,
    synth_scene,
    voxelize,
)


def test_xyz_round_trip(tmp_path):
    pts = np.array([[0.1, 0.2, 0.3], [1.0, -2.5, 3.25]])
    path = tmp_path / "cloud.xyz"
    path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pts.tolist()))
    back = load_point_cloud(path)
    np.testing.assert_array_equal(back, pts)


def test_xyz_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n\n1 2 3\n  4 5 6  \n")
    assert len(load_point_cloud(path)) == 2


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("1 2\n", ":1:"),
        ("1 2 zebra\n", ":1:"),
        ("1 2 3\n4 nan 6\n", ":2:"),
    ],
)
def test_xyz_parse_errors_carry_line_numbers(tmp_path, body, fragment):
    path = tmp_path / "bad.xyz"
    path.write_text(body)
    with pytest.raises(ParseError, match=fragment.replace(":", "")):
        load_point_cloud(path)


def test_ply_parsing(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1 2 3\n"
    )
    cloud = load_point_cloud(path)
    np.testing.assert_array_equal(cloud, [[0, 0, 0], [1, 2, 3]])


def test_ply_truncated_vertices(tmp_path):
    path = tmp_path / "short.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n"
    )
    with pytest.raises(ParseError):
        load_point_cloud(path)


@pytest.mark.parametrize("vertex", ["4 nan 6", "4 5 inf", "4 5 zebra", "4 5"])
def test_ply_vertex_errors_carry_line_numbers(tmp_path, vertex):
    # the same per-line reader as XYZ: the second vertex is file line 9
    path = tmp_path / "bad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"end_header\n1 2 3\n{vertex}\n"
    )
    with pytest.raises(ParseError, match=re.escape(f"{path}:9: ")):
        load_point_cloud(path)


@pytest.mark.parametrize("count", ["abc", "-2", "2.5"])
def test_ply_bad_vertex_count(tmp_path, count):
    path = tmp_path / "bad.ply"
    path.write_text(
        f"ply\nformat ascii 1.0\nelement vertex {count}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1 2 3\n"
    )
    with pytest.raises(ParseError, match="vertex count"):
        load_point_cloud(path)


def test_voxelize_half_open_cells():
    bounds = GridBounds((0.0, 0.0, 0.0), 1.0)
    # a point exactly on an interior cell face belongs to the upper cell
    cloud = np.array([[1.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
    grid, outside = voxelize(cloud, (2, 2, 2), bounds)
    assert outside == 0
    assert grid.occupied[1, 0, 0] and grid.occupied[0, 0, 0]
    assert grid.occupied.sum() == 2


def test_voxelize_counts_outside_points():
    bounds = GridBounds((0.0, 0.0, 0.0), 1.0)
    cloud = np.array([[-0.1, 0, 0], [5, 5, 5], [0.5, 0.5, 0.5], [1e300, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no int cast of a cell index past int64
        grid, outside = voxelize(cloud, (2, 2, 2), bounds)
    assert outside == 3
    assert grid.occupied.sum() == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 3.999), st.floats(0.0, 3.999), st.floats(0.0, 3.999)
        ),
        min_size=1,
        max_size=20,
    )
)
def test_voxelize_marks_every_inside_point(points):
    bounds = GridBounds((0.0, 0.0, 0.0), 1.0)
    cloud = np.asarray(points)
    grid, outside = voxelize(cloud, (4, 4, 4), bounds)
    assert outside == 0
    for p in cloud:
        assert grid.occupied[grid.world_to_grid(p)]


def test_grid_coordinate_round_trip():
    grid = OccupancyGrid((4, 5, 6), GridBounds((1.0, -2.0, 0.5), 0.25), np.zeros((4, 5, 6), bool))
    for cell in [(0, 0, 0), (3, 4, 5), (1, 2, 3)]:
        center = grid.grid_to_world(cell)
        assert grid.world_to_grid(center) == cell


def test_world_to_grid_out_of_bounds():
    grid = OccupancyGrid((2, 2, 2), GridBounds((0, 0, 0), 1.0), np.zeros((2, 2, 2), bool))
    with pytest.raises(OutOfBounds, match=r"point \(2\.0, 0\.0, 0\.0\) outside"):
        grid.world_to_grid((2.0, 0.0, 0.0))  # exactly the upper face is outside


@pytest.mark.parametrize("p", [(np.nan, 0.5, 0.5), (0.5, 1e20, 0.5), (0.5, 0.5, -np.inf)])
def test_world_to_grid_refuses_nan_and_far_points_without_a_warning(p):
    grid = OccupancyGrid((2, 2, 2), GridBounds((0, 0, 0), 1.0), np.zeros((2, 2, 2), bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfBounds):
            grid.world_to_grid(p)


@pytest.mark.parametrize(
    "prim, inside, outside",
    [
        (Box((0, 0, 0), (1, 1, 1)), (0.5, 0.5, 0.5), (1.5, 0.5, 0.5)),
        (Sphere((0, 0, 0), 1.0), (0.5, 0, 0), (1.1, 0, 0)),
        (Plane(2, 0.5, "below"), (9, 9, 0.2), (9, 9, 0.8)),
        (Plane(0, 0.5, "above"), (0.8, 0, 0), (0.2, 0, 0)),
    ],
)
def test_primitive_containment(prim, inside, outside):
    assert prim.contains(np.asarray(inside, float))
    assert not prim.contains(np.asarray(outside, float))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_marking_matches_per_center_containment(data):
    dims = data.draw(st.tuples(*[st.integers(1, 8)] * 3))
    voxel = data.draw(st.sampled_from([0.1, 0.2, 0.25, 0.3, 1.0]))
    corner = data.draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    axes = [corner[k] + (np.arange(dims[k]) + 0.5) * voxel for k in range(3)]

    def coord(k):
        # anywhere around the grid, or exactly on a row of voxel centers
        near = st.floats(corner[k] - 1.0, corner[k] + dims[k] * voxel + 1.0)
        return st.one_of(near, st.sampled_from(axes[k].tolist()))

    kind = data.draw(st.sampled_from(["box", "sphere", "plane"]))
    if kind == "box":  # lo above hi on some axis gives an empty box
        prim = Box(*(tuple(data.draw(coord(k)) for k in range(3)) for _ in range(2)))
    elif kind == "sphere":
        center = tuple(data.draw(coord(k)) for k in range(3))
        on = np.asarray([data.draw(st.sampled_from(a.tolist())) for a in axes]) - center
        # either any radius, or one whose surface passes through a voxel center
        radius = data.draw(st.one_of(st.floats(0.01, 3.0), st.just(float(np.sqrt(on @ on)))))
        if not radius > 0:
            return
        prim = Sphere(center, radius)
    else:
        axis = data.draw(st.integers(0, 2))
        prim = Plane(axis, data.draw(coord(axis)), data.draw(st.sampled_from(["below", "above"])))
    occ = np.zeros(dims, bool)
    prim.mark(occ, axes)
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    np.testing.assert_array_equal(occ, prim.contains(centers))


def _spec(**kw):
    defaults = dict(
        primitives=(),
        effector_start=(0.5, 0.5, 2.5),
        object_position=(2.5, 0.5, 2.5),
        place_target=(2.5, 2.5, 2.5),
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


def test_synth_scene_voxelizes_centers():
    spec = _spec(primitives=(Box((0.0, 0.0, 0.0), (3.0, 3.0, 1.0)),))
    grid = synth_scene(spec, (3, 3, 3), GridBounds((0, 0, 0), 1.0))
    assert grid.occupied[:, :, 0].all()
    assert not grid.occupied[:, :, 1:].any()


def test_grasp_point_offset():
    spec = _spec(grasp_offset=(0.0, 0.0, 0.5))
    np.testing.assert_allclose(spec.grasp_point(), [2.5, 0.5, 3.0])
    assert np.array_equal(_spec().grasp_point(), [2.5, 0.5, 2.5])
