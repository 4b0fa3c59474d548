"""Distance transform exactness and continuous sampling behavior."""

import numpy as np
import pytest

from voxpick.distance_field import compute_edt, sentinel_distance
from voxpick.oracles import brute_force_edt, brute_force_edt_sq, finite_difference_gradient
from voxpick.scene import GridBounds, OccupancyGrid


def _grid(occ, voxel=0.1):
    occ = np.asarray(occ, bool)
    return OccupancyGrid(occ.shape, GridBounds((0.0, 0.0, 0.0), voxel), occ)


def test_single_voxel_distances():
    occ = np.zeros((3, 3, 3), bool)
    occ[1, 1, 1] = True
    fld = compute_edt(_grid(occ, voxel=1.0))
    assert fld.distance[1, 1, 1] == 0.0
    assert fld.distance[0, 1, 1] == pytest.approx(1.0)
    assert fld.distance[0, 0, 0] == pytest.approx(np.sqrt(3.0))


def test_matches_brute_force_on_random_grids(rng):
    for _ in range(20):
        dims = tuple(rng.integers(2, 9, size=3))
        occ = rng.random(dims) < 0.3
        if not occ.any():
            continue
        grid = _grid(occ)
        fld = compute_edt(grid)
        np.testing.assert_allclose(fld.distance, brute_force_edt(grid), atol=1e-12)
        got_sq = np.rint((fld.distance / grid.voxel_size) ** 2).astype(np.int64)
        np.testing.assert_array_equal(got_sq, brute_force_edt_sq(occ))


def test_empty_grid_uses_sentinel():
    grid = _grid(np.zeros((4, 5, 6), bool), voxel=0.5)
    fld = compute_edt(grid)
    want = sentinel_distance((4, 5, 6), 0.5)
    assert np.all(fld.distance == want)
    assert want == pytest.approx(np.sqrt(4**2 + 5**2 + 6**2) * 0.5)


def test_sample_at_voxel_centers_equals_lattice(rng):
    occ = rng.random((6, 6, 6)) < 0.25
    occ[0, 0, 0] = True
    grid = _grid(occ)
    fld = compute_edt(grid)
    cells = np.argwhere(np.ones((6, 6, 6), bool))
    centers = grid.min_corner + (cells + 0.5) * grid.voxel_size
    np.testing.assert_allclose(
        fld.sample(centers),
        fld.distance[cells[:, 0], cells[:, 1], cells[:, 2]],
        atol=1e-12,
    )


def test_sample_is_convex_combination_of_corners(rng):
    occ = rng.random((5, 5, 5)) < 0.3
    occ[2, 2, 2] = True
    fld = compute_edt(_grid(occ))
    for _ in range(200):
        p = rng.uniform(0.05, 0.45, size=3)
        val = fld.sample(p)
        assert fld.distance.min() - 1e-12 <= val <= fld.distance.max() + 1e-12


def test_out_of_bounds_queries_clamp():
    occ = np.zeros((4, 4, 4), bool)
    occ[0, 0, 0] = True
    fld = compute_edt(_grid(occ, voxel=1.0))
    far = fld.sample(np.array([100.0, 100.0, 100.0]))
    corner = fld.sample(np.array([3.5, 3.5, 3.5]))
    assert far == pytest.approx(corner)
    _, clamped = fld.sample(np.array([100.0, 0.5, 0.5]), return_clamped=True)
    assert clamped


def test_gradient_matches_finite_differences(rng):
    occ = rng.random((8, 8, 8)) < 0.2
    occ[4, 4, 4] = True
    grid = _grid(occ)
    fld = compute_edt(grid)
    # probe strictly inside interpolation cells so the interpolant is smooth
    cells = rng.integers(0, 7, size=(30, 3))
    frac = rng.uniform(0.1, 0.9, size=(30, 3))
    P = grid.min_corner + (cells + 0.5 + frac) * grid.voxel_size
    analytic = fld.gradient(P)
    numeric = finite_difference_gradient(
        lambda Q: float(np.sum(fld.sample(Q))), P, h=grid.voxel_size / 200.0
    )
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)
