"""End-to-end pipeline: scenario serialization, bundle invariants,
determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxpick import pipeline
from voxpick.cli import main
from voxpick.distance_field import clearance_band, compute_edt
from voxpick.errors import KeypointOccupied, ParseError, VoxpickError
from voxpick.grid_planner import Stage, SubTrajectory, Trajectory, plan_three_stage
from voxpick.optimizer import PlannerConfig, optimize_trajectory
from voxpick.pipeline import (
    Scenario,
    load_scenario,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_bundle,
)
from voxpick.projection import PALETTE, CameraModel, actor_frames
from voxpick.scene import Box, GridBounds, SceneSpec
from voxpick.templates import TEMPLATES, empty_scenario, make_template, sink_scenario

from pgm import read_pgm


def test_scenario_dict_round_trip():
    s = sink_scenario()
    s = replace(s, spec=replace(s.spec, grasp_offset=(0.0, 0.0, 0.4)))
    d = scenario_to_dict(s)
    back = scenario_from_dict(d)
    assert scenario_to_dict(back) == d


def test_scenario_file_round_trip(tmp_path):
    s = empty_scenario()
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    back = load_scenario(path)
    assert scenario_to_dict(back) == scenario_to_dict(s)


def test_scenario_defaults_fill_in():
    d = scenario_to_dict(sink_scenario())
    del d["planner"]
    del d["frames"]
    s = scenario_from_dict(d)
    assert s.total_frames == 49
    assert s.config.iterations == 200
    assert s.config.d_safe == pytest.approx(2 * s.bounds.voxel_size)


def test_scenario_rejects_out_of_bounds_keypoints():
    d = scenario_to_dict(sink_scenario())
    d["scene"]["effector_start_m"] = [-1.0, 0.0, 0.0]
    with pytest.raises(ParseError):
        scenario_from_dict(d)


def _column_scenario(z_cells, effector_z):
    # the empty template on a 0.1 m grid of z_cells layers, effector at effector_z
    d = scenario_to_dict(empty_scenario())
    d["grid"].update(dims=[64, 64, z_cells], voxel_size_m=0.1)
    d["planner"]["d_safe_m"] = 0.2
    d["scene"].update(effector_start_m=[3.0, 3.0, effector_z], object_position_m=[1.0, 3.0, 1.0],
                      place_target_m=[5.0, 3.0, 1.0])
    return d


def test_scenario_and_grid_share_one_in_grid_rule():
    # 1.7 < 17 * 0.1 = 1.7000000000000002, but 1.7 / 0.1 floors to cell 17
    with pytest.raises(ParseError, match="effector_start"):
        scenario_from_dict(_column_scenario(17, 1.7))
    # 4.3 == 43 * 0.1, but 4.3 / 0.1 = 42.99999999999999 floors to cell 42
    s = scenario_from_dict(_column_scenario(43, 4.3))
    grid, _ = pipeline.build_grid(s)
    assert grid.world_to_grid(s.spec.effector_start) == (30, 30, 42)


def test_scenario_rejects_garbage():
    with pytest.raises(ParseError):
        scenario_from_dict({"grid": {"dims": [2, 2]}})
    with pytest.raises(ParseError, match="scenario must be a JSON object"):
        scenario_from_dict([])


def test_every_config_field_has_exactly_one_file_key():
    # a field without a row would be dropped from scenario.json without a word
    parts = {"bounds": GridBounds, "config": PlannerConfig, "spec": SceneSpec,
             "camera": CameraModel}
    sink = sink_scenario()
    assert {f.name for f in fields(Scenario) if is_dataclass(getattr(sink, f.name))} == set(parts)
    want = [f.name for f in fields(Scenario) if f.name not in parts]
    want += [f"{part}.{f.name}" for part, cls in parts.items() for f in fields(cls)]
    rows = [attr for _, attr, _, _ in pipeline._FIELDS if attr is not None]
    assert sorted(rows) == sorted(want)


_SINK_JSON = json.dumps(scenario_to_dict(sink_scenario()))
_WRONG = [None, True, False, "1", "x", [], [1.0], {}, float("nan"), float("inf"), -float("inf"),
          -1, -0.5, 0, 2.5, 10**400]


def _entries(node, path=()):
    """(path of the enclosing object or list, key) of every entry below ``node``."""
    for k in list(node) if isinstance(node, dict) else range(len(node)):
        yield path, k
        if isinstance(node[k], (dict, list)):
            yield from _entries(node[k], path + (k,))


# every row's key, present in the sink or not, and every entry of the sink's
# sections, lists and primitives
_TARGETS = list(dict.fromkeys(
    [(tuple(key.split(".")[:-1]), key.split(".")[-1]) for key, *_ in pipeline._FIELDS]
    + list(_entries(json.loads(_SINK_JSON)))
))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_TARGETS), st.sampled_from(["replace", "delete", "add"]),
       st.sampled_from(_WRONG))
def test_one_mutated_field_parses_or_exits_2(target, action, wrong):
    path, k = target
    d = node = json.loads(_SINK_JSON)
    for p in path:
        node = node[p]
    if action == "replace":
        node[k] = wrong
    elif action == "delete" and (isinstance(node, list) or k in node):
        del node[k]
    elif action == "add":
        if isinstance(node, dict):
            node["bogus_key"] = wrong
        else:
            node.append(wrong)
    extra_key = action == "add" and isinstance(node, dict)
    try:
        scenario = scenario_from_dict(d)
    except VoxpickError as e:
        assert e.exit_code == 2, e.cli_line()
        assert "unknown key" in str(e) or not extra_key, e.cli_line()
    else:
        assert isinstance(scenario, Scenario) and not extra_key


def test_make_template_names():
    assert set(TEMPLATES) == {"sink", "empty"}
    with pytest.raises(ParseError):
        make_template("garage")


def test_bundle_shape(sink_bundle):
    b = sink_bundle
    assert b.timed_initial.n_frames == b.scenario.total_frames
    assert b.timed_optimized.n_frames == b.scenario.total_frames
    assert len(b.masks) == b.scenario.total_frames
    assert set(b.clearance_before) == {"approach", "manipulate", "back_idle"}
    assert b.points_outside == 0
    # junctions stay pinned through optimization
    for s0, s1 in zip(b.initial.subs, b.optimized.subs):
        np.testing.assert_array_equal(s0.points[0], s1.points[0])
        np.testing.assert_array_equal(s0.points[-1], s1.points[-1])


def test_actor_frames_object_rides_the_closed_gripper(sink_bundle):
    b = sink_bundle
    obj, grip = actor_frames(
        b.timed_optimized, b.scenario.spec.grasp_point(), b.scenario.spec.place_target
    )
    start = np.asarray(b.scenario.spec.object_position)
    target = np.asarray(b.scenario.spec.place_target)
    np.testing.assert_array_equal(grip, b.timed_optimized.positions)
    for k, stage in enumerate(b.timed_optimized.stages):
        want = {Stage.APPROACH: start, Stage.MANIPULATE: grip[k], Stage.BACK_IDLE: target}
        np.testing.assert_array_equal(obj[k], want[stage])


def test_empty_scene_plans_straight():
    bundle = run(empty_scenario())
    # free space: the optimizer has nothing to push against
    assert bundle.loss_report.after.col == 0.0
    assert bundle.clearance_after["manipulate"].min_m > bundle.scenario.config.d_safe


def test_endpoint_drift_is_an_error_not_an_assert(monkeypatch):
    real = pipeline.optimize_trajectory

    def drifting(traj, fld, config):
        opt, report = real(traj, fld, config)
        first = opt.subs[0]
        pts = np.array(first.points)
        pts[0] += 0.01  # the effector start moves; the junctions stay put
        moved = SubTrajectory(first.stage, pts, first.cost, first.clearance_used)
        return Trajectory(subs=(moved,) + opt.subs[1:]), report

    scenario = empty_scenario()
    scenario = replace(scenario, config=replace(scenario.config, iterations=1))
    monkeypatch.setattr(pipeline, "optimize_trajectory", drifting)
    with pytest.raises(VoxpickError, match="endpoint drift") as info:
        run(scenario)
    assert info.value.stage == "optimize"


# sha256 of the sink template's bundle, hashed as perfbench/run.py's
# tree_digest does; a change that alters any bundle byte must say so
SINK_BUNDLE_SHA256 = "5547f68321eda6b9e2cd7042894b2a4deab5b414e5afc43095eea9ee45a9e0d6"
# the same for the sink with its rim raised into a divider (the partition
# benchmark's scenario before keypoint jitter)
PARTITION_BUNDLE_SHA256 = "fc57b02e0f828be2bc3d936054a552b51021fb4d5edaf2d99eca165c8023f7a2"


def _tree_digest(root):
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            p = os.path.join(base, name)
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_sink_bundle_bytes_are_pinned(sink_bundle, tmp_path):
    write_bundle(sink_bundle, tmp_path / "bundle")
    assert _tree_digest(tmp_path / "bundle") == SINK_BUNDLE_SHA256


def test_sink_bundle_pin_holds_on_one_blas_thread(tmp_path):
    # the benchmark plans with OPENBLAS_NUM_THREADS=1; the refiner's matrix
    # products must give the same bytes there as under the default threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for args in (["synth", "--template", "sink", "--out", str(tmp_path / "sink.json")],
                 ["plan", str(tmp_path / "sink.json"), "--out", str(tmp_path / "bundle")]):
        proc = subprocess.run([sys.executable, "-m", "voxpick.cli", *args], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert _tree_digest(tmp_path / "bundle") == SINK_BUNDLE_SHA256


def _partition_scenario():
    d = scenario_to_dict(sink_scenario())
    (rim,) = [p for p in d["scene"]["primitives"] if p["name"] == "rim"]
    rim["min_m"][1] = 0.4
    rim["max_m"][1] = 12.4
    rim["max_m"][2] = 10.0
    return scenario_from_dict(d)


def test_partition_bundle_bytes_are_pinned(tmp_path):
    bundle = run(_partition_scenario())
    # the divider keeps approach and back_idle inside d_safe, so the bytes
    # pin the optimizer's fallback choice there; manipulate clears it
    col = {k: t.col for k, t in bundle.loss_report.per_stage_after.items()}
    assert col["approach"] > 0.0 and col["back_idle"] > 0.0 and col["manipulate"] == 0.0
    write_bundle(bundle, tmp_path / "bundle")
    assert _tree_digest(tmp_path / "bundle") == PARTITION_BUNDLE_SHA256


@pytest.mark.parametrize("make", [sink_scenario, _partition_scenario])
def test_refinement_is_bit_identical_at_the_pipeline_band(make):
    # every distance the refiner reads lies below the band, so a field
    # saturated there refines exactly as the full field does
    scenario = make()
    grid, _ = pipeline.build_grid(scenario)
    spec = scenario.spec
    initial = plan_three_stage(grid, spec.effector_start, spec.grasp_point(), spec.place_target,
                               clearance_voxels=scenario.config.clearance_voxels)
    banded, full = (compute_edt(grid, clearance_band(grid, d))
                    for d in (scenario.config.d_safe, math.inf))
    assert banded.band == 11 < full.band
    assert (banded.distance < full.distance).any()  # the band does saturate
    (legs0, rep0), (legs1, rep1) = (optimize_trajectory(initial, f, scenario.config)
                                    for f in (banded, full))
    assert [s.points.tobytes() for s in legs0.subs] == [s.points.tobytes() for s in legs1.subs]
    assert json.dumps(rep0.as_dict()) == json.dumps(rep1.as_dict())


def test_d_safe_may_reach_the_grid_diagonal():
    d = scenario_to_dict(sink_scenario())
    d["planner"]["d_safe_m"] = math.hypot(64, 64, 64) * 0.2
    assert scenario_from_dict(d).config.d_safe == d["planner"]["d_safe_m"]
    d["planner"]["d_safe_m"] = math.nextafter(d["planner"]["d_safe_m"], math.inf)
    with pytest.raises(ParseError, match="planner.d_safe_m .* exceeds the grid diagonal"):
        scenario_from_dict(d)


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_write_bundle_is_byte_deterministic(sink_bundle, tmp_path):
    d1 = tmp_path / "b1"
    d2 = tmp_path / "b2"
    write_bundle(sink_bundle, d1)
    write_bundle(sink_bundle, d2)
    t1, t2 = _tree_bytes(d1), _tree_bytes(d2)
    assert t1.keys() == t2.keys()
    assert all(t1[k] == t2[k] for k in t1)


def test_bundle_layout_and_contents(sink_bundle, tmp_path):
    out = tmp_path / "bundle"
    write_bundle(sink_bundle, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"schema_version", "scenario", "trajectories", "waypoints",
                             "metrics", "masks"}
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["losses"]["after"]["total"] <= metrics["losses"]["before"]["total"]

    lines = (out / "trajectory_optimized.jsonl").read_text().splitlines()
    assert len(lines) == sink_bundle.scenario.total_frames
    assert set(json.loads(lines[0])) == {"frame", "stage", "gripper", "x_m", "y_m", "z_m"}

    mask_manifest = json.loads((out / "masks" / "manifest.json").read_text())
    assert set(mask_manifest) == {"keep_first_frame", "palette", "files"}
    assert mask_manifest["palette"] == PALETTE
    assert len(mask_manifest["files"]) == sink_bundle.scenario.total_frames
    img = read_pgm(out / "masks" / mask_manifest["files"][10])
    np.testing.assert_array_equal(img, sink_bundle.masks[10].image)


def test_masks_are_drawn_one_frame_at_a_time(tmp_path):
    # a mask holds its circles, not its pixels: the bundle that run returns,
    # write_bundle and `voxpick masks` each stay under four frames of pixels
    # (61 frames would be 18.7 MB)
    scenario = sink_scenario()
    camera = replace(scenario.camera, fx=600.0, fy=600.0, cx=320.0, cy=240.0,
                     width=640, height=480)
    scenario = replace(scenario, camera=camera, total_frames=61)
    budget = 4 * camera.width * camera.height
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bundle = run(scenario)
        held = tracemalloc.get_traced_memory()[0] - start
        peaks = []
        for write in (
            lambda: write_bundle(bundle, tmp_path / "bundle"),
            lambda: main(["masks", str(tmp_path / "bundle"), "--out", str(tmp_path / "masks")]),
        ):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            write()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert held < budget and max(peaks) < budget, (held, peaks, budget)
    assert len(os.listdir(tmp_path / "masks")) == 61


def _manifest_names(node):
    """Every file name a manifest lists, in its values and lists."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, (list, dict)):
        for v in node.values() if isinstance(node, dict) else node:
            yield from _manifest_names(v)


def test_the_manifests_list_every_bundle_file(sink_bundle, tmp_path):
    # a file that no manifest names, such as a leftover speeds.csv, fails
    out = tmp_path / "bundle"
    write_bundle(sink_bundle, out)
    manifest = json.loads((out / "manifest.json").read_text())
    mask_files = json.loads((out / "masks" / "manifest.json").read_text())["files"]
    named = {"manifest.json", *_manifest_names(
        {k: v for k, v in manifest.items() if k != "schema_version"})}
    named |= {f"masks/{name}" for name in mask_files}
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert on_disk == named


def _waypoint_legs(out):
    """The refined and the initial waypoints of each leg, read from
    ``waypoints.jsonl``, in stage order."""
    recs = [json.loads(line) for line in (out / "waypoints.jsonl").read_text().splitlines()]
    legs = {}
    for rec in recs:
        assert set(rec) == {"stage", "x_m", "y_m", "z_m", "initial_x_m", "initial_y_m",
                            "initial_z_m"}
        legs.setdefault(rec["stage"], []).append(rec)
    assert list(legs) == [s.value for s in Stage]
    return [(np.array([[r[k] for k in ("x_m", "y_m", "z_m")] for r in leg]),
             np.array([[r[k] for k in ("initial_x_m", "initial_y_m", "initial_z_m")]
                       for r in leg]))
            for leg in legs.values()]


def test_waypoints_file_holds_both_plans_bit_for_bit(sink_bundle, tmp_path):
    out = tmp_path / "bundle"
    write_bundle(sink_bundle, out)
    legs = _waypoint_legs(out)
    for (refined, initial), sub0, sub1 in zip(legs, sink_bundle.initial.subs,
                                              sink_bundle.optimized.subs):
        assert refined.tobytes() == sub1.points.tobytes()
        assert initial.tobytes() == sub0.points.tobytes()

    # the path speeds come from the file: the legs joined, each junction once
    joined = np.concatenate([legs[0][0]] + [refined[1:] for refined, _ in legs[1:]])
    chords = np.linalg.norm(np.diff(joined, axis=0), axis=1)
    want = np.linalg.norm(np.diff(sink_bundle.optimized.waypoints(), axis=0), axis=1)
    assert chords.tobytes() == want.tobytes()
    metrics = json.loads((out / "metrics.json").read_text())
    assert float(np.sum(chords)) == metrics["arc_length_optimized_m"]

    # criterion 6's turn-backs, from the file alone
    for refined, _ in legs:
        d = np.diff(refined, axis=0)
        assert int((np.sum(d[:-1] * d[1:], axis=1) < 0).sum()) == 0


def test_bundle_schema_2_keeps_scenario_schema_1(sink_bundle, tmp_path):
    d = scenario_to_dict(sink_scenario())
    assert d["schema_version"] == pipeline.SCHEMA_VERSION == 1
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(d))
    assert scenario_to_dict(load_scenario(path)) == d
    out = tmp_path / "bundle"
    write_bundle(sink_bundle, out)
    assert json.loads((out / "scenario.json").read_text())["schema_version"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == pipeline.BUNDLE_SCHEMA_VERSION == 2


@pytest.mark.parametrize("name", ["effector start", "grasp point", "place target"])
def test_build_grid_rejects_buried_keypoints(name):
    s = empty_scenario()
    s = replace(s, spec=replace(s.spec, grasp_offset=(0.0, 0.0, 2.0)))
    p = {"effector start": s.spec.effector_start, "grasp point": s.spec.grasp_point(),
         "place target": s.spec.place_target}[name]
    # a small box around the center of the cell the keypoint lands in
    grid, _ = pipeline.build_grid(s)
    center = grid.grid_to_world(grid.world_to_grid(p))
    spec = replace(s.spec, primitives=(Box(tuple(center - 0.01), tuple(center + 0.01)),))
    with pytest.raises(KeypointOccupied, match=f"^{name} at "):
        pipeline.build_grid(replace(s, spec=spec))


def test_initial_trajectory_matches_serialized_initial(sink_bundle, tmp_path):
    out = tmp_path / "bundle"
    write_bundle(sink_bundle, out)
    lines = (out / "trajectory_initial.jsonl").read_text().splitlines()
    pos = np.array(
        [[json.loads(l)[k] for k in ("x_m", "y_m", "z_m")] for l in lines]
    )
    np.testing.assert_allclose(pos, sink_bundle.timed_initial.positions)
