"""Random scenes on a 16^3 copy of the sink scenario, planned end to end:
each plan writes its bundle or raises one ``VoxpickError`` (which the CLI
prints as one ``error:`` line), never a warning or another exception."""

import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from voxpick.errors import VoxpickError
from voxpick.pipeline import run, scenario_from_dict, scenario_to_dict, write_bundle
from voxpick.templates import sink_scenario

SIDE_M = 12.8  # the sink's extent, here 16 voxels of 0.8 m
TABLE_TOP_M = 2.4  # the floor of the first free voxel layer above the sink's 2 m table

_coord = st.floats(0.0, SIDE_M, exclude_max=True)
_point = st.tuples(_coord, _coord, st.floats(TABLE_TOP_M, SIDE_M, exclude_max=True))
_box = st.tuples(_point, st.tuples(*[st.floats(0.0, 4.0)] * 3))  # a corner and its size


def _small_sink() -> dict:
    """The sink at a quarter of its resolution, refined for 20 steps and
    drawn by a 64x64 camera with the same view."""
    d = scenario_to_dict(sink_scenario())
    d["grid"].update(dims=[16, 16, 16], voxel_size_m=0.8)
    d["planner"]["iterations"] = 20
    d["camera"].update(fx_px=75.0, fy_px=75.0, cx_px=32.0, cy_px=32.0, width_px=64, height_px=64)
    return d


@settings(max_examples=200, deadline=None)
@given(
    keypoints=st.tuples(_point, _point, _point),
    boxes=st.lists(_box, max_size=3),
    clearance=st.integers(0, 2),
    d_safe=st.floats(0.0, 4.0),
    learning_rate=st.sampled_from([1e-3, 1e-2, 1e-1, 1.0, 10.0]),
)
def test_random_scenes_plan_or_raise_one_voxpick_error(
    keypoints, boxes, clearance, d_safe, learning_rate
):
    # the sink's table stays, random boxes replace its rim and the
    # keypoints move anywhere above the table. On this grid
    # (5,832 padded cells) a leg builds its pruning bound after 6 pops, so
    # most legs plan with it
    d = _small_sink()
    table = d["scene"]["primitives"][0]
    d["scene"]["primitives"] = [table] + [
        {"type": "box", "min_m": list(lo), "max_m": [a + b for a, b in zip(lo, size)]}
        for lo, size in boxes
    ]
    for key, p in zip(("effector_start_m", "object_position_m", "place_target_m"), keypoints):
        d["scene"][key] = list(p)
    d["planner"].update(clearance_voxels=clearance, d_safe_m=d_safe, learning_rate=learning_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            bundle = run(scenario_from_dict(d))
        except VoxpickError:
            return
        with tempfile.TemporaryDirectory() as out:
            write_bundle(bundle, out)
