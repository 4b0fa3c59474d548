"""The benchmark's tracer (perfbench/spans.py) wraps voxpick names that
callers look up at call time; a rename or deletion of one of them must fail
here rather than in a traced benchmark run."""

import os
from dataclasses import replace

import numpy as np
import pytest

from voxpick import cli, grid_planner, pipeline
from voxpick.scene import GridBounds, OccupancyGrid
from voxpick.templates import empty_scenario

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    return spans


def test_tracer_finds_every_wrapped_name(spans):
    # _patches looks every name up with getattr: a missing one raises here
    patches = spans._patches(spans.Recorder())
    cli_names = {attr for owner, attr, _ in patches if owner.__name__ == "voxpick.cli"}
    assert cli_names == {"main", "render_guidance_masks", "write_pgm"}


def test_traced_run_records_each_stage(spans):
    scenario = empty_scenario()
    scenario = replace(scenario, config=replace(scenario.config, iterations=2))
    rec = spans.Recorder()
    with rec.op_span("op"), spans.traced(rec):
        pipeline.run(scenario)
    names = {name for name, *_ in rec.spans}
    assert {
        "distance_field.edt",
        "grid_planner.plan",
        "optimizer.optimize",
        "losses.eval",
        "losses.col",
        "losses.curv",
        "distance_field.sample",
        "distance_field.gradient",
        "time_alloc.reallocate",
        "projection.render",
    } <= names
    assert rec.counts["op"]["optimizer.iterations"] > 0
    # the three legs are refined stacked: one evaluation of the objective
    # for the input and one per iteration, not one per leg
    assert rec.counts["op"]["losses.eval_calls"] == 3


def test_traced_masks_op_records_render_and_writes(spans, tmp_path):
    # the remask workload's op: render and PGM writes must land in their
    # projection spans, and the render counter must see every frame's pixels
    scenario = empty_scenario()
    scenario = replace(scenario, config=replace(scenario.config, iterations=2))
    pipeline.write_bundle(pipeline.run(scenario), tmp_path / "bundle")
    rec = spans.Recorder()
    with rec.op_span("op"), spans.traced(rec):
        assert cli.main(["masks", str(tmp_path / "bundle"), "--out", str(tmp_path / "out")]) == 0
    names = [name for name, *_ in rec.spans]
    assert {"cli.main", "projection.render", "projection.write_pgm"} <= set(names)
    assert names.count("projection.write_pgm") == scenario.total_frames
    cam = scenario.camera
    counts = rec.counts["op"]
    assert counts["projection.pixels"] == scenario.total_frames * cam.width * cam.height
    assert counts["projection.actor_pixels"] > 0


def test_traced_heap_counts_survive_the_hop_bound(spans, monkeypatch):
    # a wall the path must climb over: the search pops past the trigger and
    # builds its hop bound; the counting heapq must still see every push and
    # pop, which it would not if the search bound heappush at import time
    occ = np.zeros((24, 24, 24), bool)
    occ[12, :, :20] = True
    grid = OccupancyGrid(occ.shape, GridBounds((0.0, 0.0, 0.0), 1.0), occ)
    built = []
    real = grid_planner._hop_bound
    monkeypatch.setattr(grid_planner, "_hop_bound", lambda *a: built.append(1) or real(*a))
    rec = spans.Recorder()
    with rec.op_span("op"), spans.traced(rec):
        grid_planner.plan_segment(grid, (2, 12, 2), (22, 12, 2), clearance_voxels=0)
    assert built
    trigger = 26**3 * grid_planner._BOUND_AFTER_POPS
    assert rec.counts["op"]["grid_planner.nodes_expanded"] > trigger
    assert rec.counts["op"]["grid_planner.nodes_pushed"] > 0
