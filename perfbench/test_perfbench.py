"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (9, None, None),  # the median leaves only 4 beyond
        (19, None, None),  # rank 10 leaves 9
        (20, 50.0, 10),
        (39, 50.0, 19),  # p75 is rank 30 and leaves 9
        (40, 75.0, 10),
        (99, 75.0, 24),  # p90 is rank 90 and leaves 9
        (100, 90.0, 10),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    got = stats.tail(values)
    if pct is None:
        assert got is None
    else:
        assert got == (pct, float(n - beyond), beyond)


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


def test_self_time_back_to_back_children():
    s = [span("op", 0.0, 10.0), span("a.x", 1.0, 3.0, 0), span("b.y", 3.0, 5.0, 0)]
    assert spans.self_times(s) == pytest.approx([6.0, 2.0, 2.0])


def test_self_time_nested_children_count_once():
    # grandchild lies inside its parent; it reduces only the child's self time
    s = [
        span("op", 0.0, 10.0),
        span("a.x", 2.0, 8.0, 0),
        span("b.y", 3.0, 4.0, 1),
        span("b.y", 4.0, 7.0, 1),
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_clips_and_merges_overlapping_children():
    s = [span("op", 0.0, 10.0), span("a.x", -1.0, 4.0, 0), span("a.x", 2.0, 6.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(4.0)


def test_layer_shares_sum_to_one():
    s = [span("op", 0.0, 10.0), span("pipeline.run", 0.0, 8.0, 0),
         span("distance_field.edt", 1.0, 6.0, 1)]
    shares = spans.layer_shares(s)
    assert shares["distance_field"] == pytest.approx(0.5)
    assert shares["pipeline"] == pytest.approx(0.3)
    assert shares["op"] == pytest.approx(0.2)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_useful_ratio():
    assert spans.useful_ratio(19, 19) == 1.0
    assert spans.useful_ratio(114, 92492) == pytest.approx(114 / 92492)
    assert spans.useful_ratio(5, 0) == 0.0


def test_kept_iter_frac():
    # trace = input, one total per iteration, final iterate (iterations + 2)
    trace = {
        "approach": [5.0, 5.0, 4.0, 3.0, 3.5],  # kept index 3 of 4
        "manipulate": [2.0, 2.0, 2.5, 2.2, 2.1],  # input kept: index 0
        "back_idle": [1.0],  # a two-point leg is not optimized
    }
    kept = {"approach": 3.0, "manipulate": 2.0, "back_idle": 1.0}
    assert spans.kept_iter_frac(trace, kept) == pytest.approx((3 / 4 + 0 / 4) / 2)
    assert spans.kept_iter_frac({"a": [1.0]}, {"a": 1.0}) == 0.0


def test_op_layer_metrics_counts_and_ratios():
    s = [
        span("op", 0.0, 10.0),
        span("grid_planner.plan", 0.0, 4.0, 0),
        span("grid_planner.dilate", 0.0, 1.0, 1),
    ]
    counts = spans.Counter({"grid_planner.nodes_expanded": 3_000_000,
                            "grid_planner.path_cells": 30})
    m = spans.op_layer_metrics(s, counts)
    assert m["grid_planner.plan_s"] == pytest.approx(4.0)
    assert m["grid_planner.us_per_expansion"] == pytest.approx(1.0)  # 3 s self / 3e6
    assert m["grid_planner.useful_ratio"] == pytest.approx(1e-5)
    assert m["losses.us_per_eval"] == 0.0  # no evaluations, no division by zero


def test_jitter_is_seeded_whole_voxels_and_leaves_effector():
    base = {
        "name": "w",
        "grid": {"voxel_size_m": 0.2},
        "scene": {
            "primitives": [],
            "effector_start_m": [6.8, 6.4, 8.6],
            "object_position_m": [3.2, 6.4, 5.0],
            "place_target_m": [10.4, 6.4, 5.0],
        },
    }
    a = inputs.jittered(base, 7, 1)
    assert a == inputs.jittered(base, 7, 1)
    assert a["scene"]["effector_start_m"] == base["scene"]["effector_start_m"]
    for key in ("object_position_m", "place_target_m"):
        moved = [(x - y) / 0.2 for x, y in zip(a["scene"][key], base["scene"][key])]
        assert all(abs(v - round(v)) < 1e-9 and abs(round(v)) <= 2 for v in moved[:2])
        assert moved[2] == 0.0
    seeds = {tuple(inputs.jittered(base, s, 0)["scene"]["place_target_m"]) for s in range(20)}
    assert len(seeds) > 1


def test_gauge_scales_by_mean_of_reference_before_and_after():
    probes = iter([9.0, 0.1, 0.2, 0.1, 0.05])  # the first call is a warm-up
    g = hostspeed.Gauge(True, probe=lambda: next(probes))
    nominal = hostspeed.NOMINAL_S
    assert g.scale(3.0) == pytest.approx(3.0 * nominal / 0.15)
    assert g.scale(3.0) == pytest.approx(3.0 * nominal / 0.15)
    assert g.scale(1.0) == pytest.approx(1.0 * nominal / 0.075)
    assert g.reference == [0.1, 0.2, 0.1, 0.05]


def test_disabled_gauge_keeps_wall_time_and_probes_nothing():
    g = hostspeed.Gauge(False, probe=lambda: pytest.fail("probed"))
    assert g.scale(3.0) == 3.0
    assert g.reference == []


def test_reference_search_reaches_every_cell():
    assert hostspeed.search_kernel(5) == 125
