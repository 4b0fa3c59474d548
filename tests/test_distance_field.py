"""Distance transform exactness and continuous sampling behavior."""

import math

import numpy as np
import pytest

from voxpick.distance_field import clearance_band, compute_edt
from voxpick.oracles import brute_force_edt_sq, finite_difference_gradient
from voxpick.scene import GridBounds, OccupancyGrid


def _grid(occ, voxel=0.1):
    occ = np.asarray(occ, bool)
    return OccupancyGrid(occ.shape, GridBounds((0.0, 0.0, 0.0), voxel), occ)


def _full_edt(grid):
    """The field with a band as wide as the grid diagonal: exact everywhere."""
    return compute_edt(grid, clearance_band(grid, math.inf))


def test_single_voxel_distances():
    occ = np.zeros((3, 3, 3), bool)
    occ[1, 1, 1] = True
    fld = _full_edt(_grid(occ, voxel=1.0))
    assert fld.distance[1, 1, 1] == 0.0
    assert fld.distance[0, 1, 1] == pytest.approx(1.0)
    assert fld.distance[0, 0, 0] == pytest.approx(np.sqrt(3.0))


def test_matches_brute_force_on_random_grids(rng):
    # d_safe inf: a band as wide as the grid diagonal, so every distance is
    # exact; otherwise the band the pipeline derives from d_safe
    for d_safe_voxels in (math.inf, 0.0, 2.0, 3.5) * 20:
        dims = tuple(rng.integers(1, 12, size=3))  # dims of 1 included
        occ = rng.random(dims) < rng.uniform(0.0, 0.3)
        grid = _grid(occ)
        band = clearance_band(grid, d_safe_voxels * grid.voxel_size)
        fld = compute_edt(grid, band)
        assert fld.band == band
        want_sq = brute_force_edt_sq(occ, band)
        want_m = np.sqrt(want_sq.astype(np.float64)) * grid.voxel_size
        np.testing.assert_allclose(fld.distance, want_m, atol=1e-12)
        got_sq = np.rint((fld.distance / grid.voxel_size) ** 2).astype(np.int64)
        np.testing.assert_array_equal(got_sq, want_sq)
        if occ.any() and math.isinf(d_safe_voxels):
            unbanded = brute_force_edt_sq(occ, np.iinfo(np.int32).max)
            np.testing.assert_array_equal(got_sq, unbanded)


def test_band_follows_d_safe_and_stops_at_the_grid_diagonal():
    grid = _grid(np.zeros((64, 64, 64), bool), voxel=0.2)
    assert clearance_band(grid, 1.6) == 11  # ceil(8 + sqrt(3)) + 1
    assert clearance_band(grid, 0.0) == 3
    assert clearance_band(grid, math.inf) == 111 == math.ceil(64 * math.sqrt(3))
    assert clearance_band(grid, 1e300) == 111


def test_empty_grid_saturates_at_the_band():
    grid = _grid(np.zeros((4, 5, 6), bool), voxel=0.5)
    for band in (3, clearance_band(grid, math.inf)):
        fld = compute_edt(grid, band)
        assert np.all(fld.distance == band * 0.5)
        assert fld.exact_below == (band - math.sqrt(3)) * 0.5
    assert clearance_band(grid, math.inf) == 9  # ceil(|(4, 5, 6)|)


def test_a_sample_below_exact_below_reads_no_saturated_corner(rng):
    # what lets the pipeline's band leave every refiner read exact
    for _ in range(10):
        occ = rng.random((10, 10, 10)) < 0.02
        occ.flat[rng.integers(occ.size)] = True
        grid = _grid(occ)
        full = _full_edt(grid)
        banded = compute_edt(grid, clearance_band(grid, 2 * grid.voxel_size))
        p = rng.uniform(-0.1, 1.1, size=(2000, 3))
        below = banded.sample(p) < banded.exact_below
        assert below.any() and not below.all()
        assert np.array_equal(banded.sample(p[below]), full.sample(p[below]))
        assert np.array_equal(banded.gradient(p[below]), full.gradient(p[below]))
        assert np.all(banded.sample(p[~below]) <= full.sample(p[~below]))


def test_sample_at_voxel_centers_equals_lattice(rng):
    occ = rng.random((6, 6, 6)) < 0.25
    occ[0, 0, 0] = True
    grid = _grid(occ)
    fld = _full_edt(grid)
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
    fld = _full_edt(_grid(occ))
    for _ in range(200):
        p = rng.uniform(0.05, 0.45, size=3)
        val = fld.sample(p)
        assert fld.distance.min() - 1e-12 <= val <= fld.distance.max() + 1e-12


def test_out_of_bounds_queries_clamp():
    occ = np.zeros((4, 4, 4), bool)
    occ[0, 0, 0] = True
    fld = _full_edt(_grid(occ, voxel=1.0))
    far = fld.sample(np.array([100.0, 100.0, 100.0]))
    corner = fld.sample(np.array([3.5, 3.5, 3.5]))
    assert far == pytest.approx(corner)


def test_gradient_matches_finite_differences(rng):
    occ = rng.random((8, 8, 8)) < 0.2
    occ[4, 4, 4] = True
    grid = _grid(occ)
    fld = _full_edt(grid)
    # probe strictly inside interpolation cells so the interpolant is smooth
    cells = rng.integers(0, 7, size=(30, 3))
    frac = rng.uniform(0.1, 0.9, size=(30, 3))
    P = grid.min_corner + (cells + 0.5 + frac) * grid.voxel_size
    analytic = fld.gradient(P)
    numeric = finite_difference_gradient(
        lambda Q: float(np.sum(fld.sample(Q))), P, h=grid.voxel_size / 200.0
    )
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def _sample_reference(fld, p):
    """Trilinear sample gathering one corner at a time: the arithmetic, in
    the order, that DistanceField.sample must reproduce bit for bit."""
    q, base, f, hi = _cell_reference(fld, p)
    val = np.zeros(q.shape[:-1], dtype=np.float64)
    for dx in (0, 1):
        wx = f[..., 0] if dx else 1.0 - f[..., 0]
        ix = np.minimum(base[..., 0] + dx, hi[0])
        for dy in (0, 1):
            wy = f[..., 1] if dy else 1.0 - f[..., 1]
            iy = np.minimum(base[..., 1] + dy, hi[1])
            for dz in (0, 1):
                wz = f[..., 2] if dz else 1.0 - f[..., 2]
                iz = np.minimum(base[..., 2] + dz, hi[2])
                val += wx * wy * wz * fld.distance[ix, iy, iz]
    return val


def _gradient_reference(fld, p):
    """Gradient of the trilinear interpolant written out per axis: the
    reference for DistanceField.gradient."""
    q, base, f, hi = _cell_reference(fld, p)
    c = np.empty(q.shape[:-1] + (2, 2, 2), dtype=np.float64)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                c[..., dx, dy, dz] = fld.distance[
                    np.minimum(base[..., 0] + dx, hi[0]),
                    np.minimum(base[..., 1] + dy, hi[1]),
                    np.minimum(base[..., 2] + dz, hi[2]),
                ]
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    gx = (
        (1 - fy) * (1 - fz) * (c[..., 1, 0, 0] - c[..., 0, 0, 0])
        + fy * (1 - fz) * (c[..., 1, 1, 0] - c[..., 0, 1, 0])
        + (1 - fy) * fz * (c[..., 1, 0, 1] - c[..., 0, 0, 1])
        + fy * fz * (c[..., 1, 1, 1] - c[..., 0, 1, 1])
    )
    gy = (
        (1 - fx) * (1 - fz) * (c[..., 0, 1, 0] - c[..., 0, 0, 0])
        + fx * (1 - fz) * (c[..., 1, 1, 0] - c[..., 1, 0, 0])
        + (1 - fx) * fz * (c[..., 0, 1, 1] - c[..., 0, 0, 1])
        + fx * fz * (c[..., 1, 1, 1] - c[..., 1, 0, 1])
    )
    gz = (
        (1 - fx) * (1 - fy) * (c[..., 0, 0, 1] - c[..., 0, 0, 0])
        + fx * (1 - fy) * (c[..., 1, 0, 1] - c[..., 1, 0, 0])
        + (1 - fx) * fy * (c[..., 0, 1, 1] - c[..., 0, 1, 0])
        + fx * fy * (c[..., 1, 1, 1] - c[..., 1, 1, 0])
    )
    return np.stack([gx, gy, gz], axis=-1) / fld.voxel_size


def _cell_reference(fld, p):
    """Lattice coords clamped to the voxel centers, the enclosing cell's
    base index and fractional offset, and the largest index per axis."""
    p = np.asarray(p, dtype=np.float64)
    q = (p - np.asarray(fld.bounds.min_corner)) / fld.voxel_size - 0.5
    q = np.clip(q, 0.0, np.asarray(fld.dims, dtype=np.float64) - 1.0)
    base = np.minimum(np.floor(q).astype(np.int64), np.maximum(np.asarray(fld.dims) - 2, 0))
    base = np.maximum(base, 0)
    return q, base, q - base, np.asarray(fld.dims) - 1


def test_sample_and_gradient_match_the_per_corner_reference(rng):
    # dims of 1 and 2 exercise the clamped upper corner; points reach past
    # every face of the grid
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
        occ = rng.random(dims) < 0.3
        occ.flat[rng.integers(occ.size)] = True
        fld = _full_edt(_grid(occ))
        extent = np.asarray(dims) * fld.voxel_size
        for shape in ((3,), (9, 3), (4, 5, 3)):
            p = rng.uniform(-0.15, 1.15, size=shape) * extent
            for got, want in (
                (fld.sample(p), _sample_reference(fld, p)),
                (fld.gradient(p), _gradient_reference(fld, p)),
            ):
                assert got.shape == want.shape
                assert np.array_equal(got, want)


@pytest.mark.parametrize("axis", range(3))
def test_a_nan_coordinate_reads_nan_and_does_not_raise(rng, axis):
    # floor(NaN) casts to the most negative int64; the clamped base must
    # still read a real corner, so the NaN comes out as a value, not an
    # IndexError, and a diverging refiner ends in NonFiniteLoss
    occ = rng.random((5, 7, 3)) < 0.3
    occ[2, 3, 1] = True
    fld = _full_edt(_grid(occ))
    p = np.array([[0.25, 0.35, 0.15], [0.05, 0.65, 0.25]])
    p[:, axis] = np.nan
    with np.errstate(invalid="ignore"):
        val, grad = fld.sample(p), fld.gradient(p)
        want_val, want_grad = _sample_reference(fld, p), _gradient_reference(fld, p)
    assert val.shape == (2,) and np.isnan(val).all()
    # the gradient across the NaN axis reads its weights, so it is NaN there
    others = [k for k in range(3) if k != axis]
    assert grad.shape == (2, 3) and np.isnan(grad[:, others]).all()
    assert np.array_equal(val, want_val, equal_nan=True)
    assert np.array_equal(grad, want_grad, equal_nan=True)


def test_no_points_give_empty_samples_and_gradients():
    fld = _full_edt(_grid(np.ones((5, 7, 3), bool)))
    none = np.zeros((0, 3))
    assert fld.sample(none).shape == (0,)
    assert fld.gradient(none).shape == (0, 3)
