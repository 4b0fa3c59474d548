"""Command-line interface: subcommands, exit codes, and error lines."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxpick
from voxpick import cli, losses
from voxpick.cli import MAX_CLUTTER, main, report_tables
from voxpick.pipeline import load_scenario, scenario_to_dict
from voxpick.templates import sink_scenario

from pgm import read_pgm


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """One synth + plan shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "sink.json"
    bundle = root / "bundle"
    assert main(["synth", "--template", "sink", "--out", str(scenario)]) == 0
    assert main(["plan", str(scenario), "--out", str(bundle)]) == 0
    return scenario, bundle


def test_synth_matches_template(planned):
    scenario, _ = planned
    assert scenario_to_dict(load_scenario(scenario)) == scenario_to_dict(sink_scenario())


def test_synth_clutter_is_seeded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    for path in (a, b):
        assert main(["synth", "--out", str(path), "--clutter", "4", "--seed", "11"]) == 0
    assert main(["synth", "--out", str(c), "--clutter", "4", "--seed", "12"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize(
    "flag, value", [("--seed", "-1"), ("--clutter", "-2"), ("--clutter", str(MAX_CLUTTER + 1))]
)
def test_synth_rejects_a_negative_seed_or_clutter(tmp_path, capsys, flag, value):
    argv = {"--out": str(tmp_path / "t.json"), "--clutter": "3", "--seed": "0", flag: value}
    rc = main(["synth"] + [a for item in argv.items() for a in item])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith(f"error:parse:parse: {flag} "), lines
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("command", ["plan", "masks", "synth"])
def test_an_out_that_cannot_be_written_is_one_error_line(planned, tmp_path, capsys, command):
    scenario, bundle = planned
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {
        "plan": ["plan", str(scenario), "--out", str(taken)],  # NotADirectoryError
        "masks": ["masks", str(bundle), "--out", str(taken)],  # FileExistsError
        "synth": ["synth", "--out", str(tmp_path / "missing" / "s.json")],  # FileNotFoundError
    }[command]
    capsys.readouterr()
    rc = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:write:cannot-write: "), lines


def test_an_unwritable_plan_out_fails_before_planning(planned, tmp_path, capsys, monkeypatch):
    # --out is made before the pipeline runs, so a file in its place costs
    # no planning
    scenario, _ = planned
    taken = tmp_path / "taken"
    taken.write_text("")
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args: calls.append(args))
    capsys.readouterr()
    rc = main(["plan", str(scenario), "--out", str(taken)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:write:"), lines
    assert calls == []


def test_plan_missing_scenario_exits_2(tmp_path, capsys):
    rc = main(["plan", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:parse:")


def test_an_integer_too_long_to_parse_is_one_error_line(planned, tmp_path, capsys):
    # json refuses an integer over 4300 digits with a plain ValueError
    scenario, bundle = planned
    long = "9" * 5000
    edited = tmp_path / "long.json"
    edited.write_text(scenario.read_text().replace('"iterations": 200', f'"iterations": {long}'))
    tampered = tmp_path / "tampered"
    shutil.copytree(bundle, tampered)
    metrics = tampered / "metrics.json"
    metrics.write_text(metrics.read_text().replace('"points_outside_bounds": 0',
                                                   f'"points_outside_bounds": {long}'))
    assert long in edited.read_text() and long in metrics.read_text()
    for argv, prefix in (
        (["plan", str(edited), "--out", str(tmp_path / "o")], "error:parse:parse:"),
        (["report", str(tampered)], "error:report:corrupt-bundle:"),
    ):
        rc = main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith(prefix), lines


def test_plan_reports_no_path(planned, tmp_path, capsys):
    scenario, _ = planned
    d = json.loads(scenario.read_text())
    # wall across the whole cross-section between pick and place
    d["scene"]["primitives"].append(
        {"type": "box", "name": "wall", "min_m": [8.0, 0.0, 0.0], "max_m": [8.8, 12.8, 12.8]}
    )
    walled = tmp_path / "walled.json"
    walled.write_text(json.dumps(d))
    rc = main(["plan", str(walled), "--out", str(tmp_path / "w")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:plan:no-path:")


def test_report_tables_and_csv(planned, capsys):
    _, bundle = planned
    assert main(["report", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("losses,col,len,acc,curv,total")
    assert "after,manipulate," in out
    metrics = json.loads((bundle / "metrics.json").read_text())
    assert out.endswith(f"\narc_length_timed_m,{metrics['arc_length_timed_m']!r}\n")
    tables = report_tables(str(bundle))
    assert len(tables["clearance"]) == 6
    assert "\nsine_fit,stage,initial_max_dev,optimized_max_dev\n" in out
    assert [stage for stage, _ in tables["sine_fit"]] == ["approach", "manipulate", "back_idle"]
    # the grid-planned legs are straight, so their chords track the sine
    # within check_velocity_profile's bound
    assert all(initial < 0.05 for _, (initial, _) in tables["sine_fit"])
    (before, after) = (dict(tables["losses"])[k][-1] for k in ("before", "after"))
    assert after <= before


def test_report_prints_each_legs_stop_step(planned, capsys):
    # one row per leg, read from its trace: the input's total, then one per step
    _, bundle = planned
    assert main(["report", str(bundle)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line.startswith("stop_iteration,")]
    trace = json.loads((bundle / "metrics.json").read_text())["losses"]["trace"]
    stages = ["approach", "manipulate", "back_idle"]
    assert rows == [["stop_iteration", s, str(len(trace[s]) - 1)] for s in stages]
    # every sink leg converges before the cap of 200 steps
    assert all(0 < int(step) < 200 for *_, step in rows), rows


def test_report_on_a_stage_that_never_moves_prints_nan_without_a_warning(planned, tmp_path,
                                                                          capsys):
    # every approach frame sits at the first manipulate position, so each
    # approach chord has zero length and there is no top speed to divide by
    _, bundle = planned
    still = tmp_path / "still"
    shutil.copytree(bundle, still)
    for phase in ("initial", "optimized"):
        path = still / f"trajectory_{phase}.jsonl"
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        first = next(r for r in recs if r["stage"] == "manipulate")
        for r in recs:
            if r["stage"] == "approach":
                r.update((key, first[key]) for key in ("x_m", "y_m", "z_m"))
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["report", str(still)])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert "\nsine_fit,approach,nan,nan\n" in captured.out


@pytest.mark.parametrize("trace", [[], "12", 3, None, "missing"])
def test_a_trace_that_is_not_a_list_of_totals_is_a_corrupt_bundle(planned, tmp_path, capsys,
                                                                  trace):
    _, bundle = planned
    tampered = tmp_path / "tampered"
    shutil.copytree(bundle, tampered)
    path = tampered / "metrics.json"
    m = json.loads(path.read_text())
    if trace == "missing":
        del m["losses"]["trace"]["manipulate"]
    else:
        m["losses"]["trace"]["manipulate"] = trace
    path.write_text(json.dumps(m))
    rc = main(["report", str(tampered)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:report:corrupt-bundle:"), lines


def _clearance_report(bundle):
    """The band and the clearance rows of ``voxpick report``, as printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", str(bundle)]) == 0
    lines = out.getvalue().splitlines()
    start = lines.index("clearance,stage,min_m,interior_min_m")
    (band,) = [line.split(",")[1] for line in lines if line.startswith("clearance_band_m,")]
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:]
            for line in lines[start + 1 : start + 7]}
    return band, rows


def test_sink_clearance_above_the_band_prints_as_a_lower_bound(planned):
    # the EDT saturates at 11 voxels (d_safe 8 voxels), so a sample is exact
    # only below (11 - sqrt(3)) voxels; approach and back_idle stay above it
    _, bundle = planned
    metrics = json.loads((bundle / "metrics.json").read_text())
    assert metrics["clearance_band_m"] == (11 - math.sqrt(3)) * 0.2
    assert "mean_m" not in json.dumps(metrics)
    band, rows = _clearance_report(bundle)
    assert band == repr(metrics["clearance_band_m"])
    for phase in ("before", "after"):
        for stage in ("approach", "back_idle"):
            assert rows[phase, stage] == [">=" + band] * 2
            assert metrics[f"clearance_{phase}"][stage]["min_m"] == float(band)
        assert all(float(v) < float(band) for v in rows[phase, "manipulate"])


def test_empty_scene_clearance_prints_as_a_lower_bound(tmp_path, capsys):
    # with nothing in the grid every distance reads the band: no clearance
    # may print as if it were exact
    scenario, bundle = tmp_path / "empty.json", tmp_path / "bundle"
    assert main(["synth", "--template", "empty", "--out", str(scenario)]) == 0
    assert main(["plan", str(scenario), "--out", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "; min clearance (manipulate) >=1.8536 -> >=1.8536 m\n" in out
    band, rows = _clearance_report(bundle)
    assert len(rows) == 6 and all(values == [">=" + band] * 2 for values in rows.values())


def test_report_corrupt_bundle(tmp_path, capsys):
    os.makedirs(tmp_path / "junk")
    (tmp_path / "junk" / "manifest.json").write_text("{}")
    rc = main(["report", str(tmp_path / "junk")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:report:corrupt-bundle:")


def _reopen_gripper_mid_manipulate(recs):
    k = [r["stage"] for r in recs].index("manipulate") + 1
    recs[k]["gripper"] = "open"


def _approach_after_manipulate(recs):
    k = [r["stage"] for r in recs].index("manipulate") + 1
    recs[k].update(stage="approach", gripper="open")


def _renumber_frame(recs):
    recs[3]["frame"] = 7


def _list_record(recs):
    recs[2] = []


def _position(key, literal):
    # json writes and reads NaN, Infinity and -Infinity as floats
    def edit(recs):
        recs[5][key] = float(literal)

    return edit


def _record(k, key, value):
    def edit(recs):
        recs[k][key] = value

    return edit


@pytest.mark.parametrize("command", ["report", "masks"])
@pytest.mark.parametrize(
    "edit",
    [_reopen_gripper_mid_manipulate, _approach_after_manipulate, _renumber_frame, _list_record,
     _position("x_m", "NaN"), _position("y_m", "Infinity"), _position("z_m", "-Infinity"),
     _position("x_m", "1e308"), _position("y_m", "-1.0000001e150"),
     _record(5, "x_m", "6.8"), _record(5, "y_m", True), _record(1, "frame", True),
     _record(1, "frame", 1.0)],
    ids=["gripper-not-of-stage", "stage-out-of-order", "frame-not-row", "record-not-object",
         "x-NaN", "y-Infinity", "z--Infinity", "x-1e308", "y-beyond-bound",
         "x-string", "y-true", "frame-true",
         "frame-float"],
)
def test_inconsistent_trajectory_is_a_corrupt_bundle(planned, tmp_path, capsys, command, edit):
    _, bundle = planned
    tampered = tmp_path / "tampered"
    shutil.copytree(bundle, tampered)
    path = tampered / "trajectory_optimized.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    out = ["--out", str(tmp_path / "masks")] if command == "masks" else []
    rc = main([command, str(tampered)] + out)
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:report:corrupt-bundle:"), lines


@pytest.mark.parametrize("command", ["report", "masks"])
def test_a_non_ascii_trajectory_byte_is_a_corrupt_bundle(planned, tmp_path, capsys, command):
    _, bundle = planned
    tampered = tmp_path / "tampered"
    shutil.copytree(bundle, tampered)
    path = tampered / "trajectory_optimized.jsonl"
    path.write_bytes(b"\xff" + path.read_bytes())
    out = ["--out", str(tmp_path / "masks")] if command == "masks" else []
    rc = main([command, str(tampered)] + out)
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:report:corrupt-bundle:"), err
    assert f"{path} line 1:" in lines[0]


@pytest.fixture(scope="module")
def trajectory_bundle(planned, tmp_path_factory):
    """The bundle files that ``report`` and ``masks`` read, without the masks."""
    _, bundle = planned
    root = tmp_path_factory.mktemp("records")
    for name in ("scenario.json", "metrics.json", "trajectory_initial.jsonl",
                 "trajectory_optimized.jsonl"):
        shutil.copy(bundle / name, root / name)
    return root


_RECORD_KEYS = ["frame", "stage", "gripper", "x_m", "y_m", "z_m", "extra"]
_RECORD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 60), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.sampled_from(["approach", "manipulate", "back_idle", "open", "closed", "6.8"]),
    st.lists(st.integers(0, 2), max_size=3), st.dictionaries(st.text(max_size=2), st.none()),
)


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(["trajectory_initial.jsonl", "trajectory_optimized.jsonl"]),
    k=st.integers(0, 48),
    key=st.sampled_from(_RECORD_KEYS),
    value=st.one_of(st.just("delete"), _RECORD_VALUES),
)
def test_one_edited_record_field_is_ok_or_a_corrupt_bundle(trajectory_bundle, tmp_path_factory,
                                                           name, k, key, value):
    path = trajectory_bundle / name
    text = path.read_text()
    recs = [json.loads(line) for line in text.splitlines()]
    if value == "delete":
        recs[k].pop(key, None)
    else:
        recs[k][key] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    out = str(tmp_path_factory.getbasetemp() / "record-masks")
    try:
        for argv in (["report", str(trajectory_bundle)], ["masks", str(trajectory_bundle),
                                                          "--out", out]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            lines = err.getvalue().splitlines()
            if rc == 0:
                assert lines == []
            else:
                assert rc == 2
                assert len(lines) == 1 and lines[0].startswith("error:report:corrupt-bundle:")
    finally:
        path.write_text(text)


@pytest.mark.parametrize(
    "name, edit, corrupt",
    [
        ("metrics.json", lambda m: {k: v for k, v in m.items() if k != "arc_length_timed_m"},
         True),
        ("metrics.json", lambda m: dict(m, losses=[]), True),
        ("metrics.json", lambda m: {k: v for k, v in m.items() if k != "clearance_band_m"},
         True),
        ("metrics.json", lambda m: dict(m, clearance_band_m="2.2"), True),
        ("metrics.json",
         lambda m: dict(m, losses=dict(m["losses"], after=dict(m["losses"]["after"], col="x"))),
         True),
        ("metrics.json", lambda m: dict(m, arc_length_initial_m=None), True),
        ("manifest.json", lambda m: [], False),
        ("manifest.json", lambda m: {"metrics": 5}, False),
    ],
    ids=["metrics-without-timed-arc", "losses-a-list", "metrics-without-band", "band-a-string",
         "loss-term-a-string", "arc-length-null",
         "manifest-a-list", "manifest-metrics-5"],
)
def test_report_reads_metrics_by_name(planned, tmp_path, capsys, name, edit, corrupt):
    # report never reads manifest.json, so an edit there changes nothing
    _, bundle = planned
    assert main(["report", str(bundle)]) == 0
    untouched = capsys.readouterr().out
    tampered = tmp_path / "tampered"
    shutil.copytree(bundle, tampered)
    path = tampered / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    rc = main(["report", str(tampered)])
    captured = capsys.readouterr()
    if corrupt:
        lines = captured.err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("error:report:corrupt-bundle:"), lines
    else:
        assert (rc, captured.out, captured.err) == (0, untouched, "")


def test_masks_rerender_matches_bundle(planned, tmp_path):
    _, bundle = planned
    out = tmp_path / "masks"
    assert main(["masks", str(bundle), "--out", str(out)]) == 0
    for k in (0, 17, 48):
        a = read_pgm(out / f"frame_{k:04d}.pgm")
        b = read_pgm(bundle / "masks" / f"frame_{k:04d}.pgm")
        np.testing.assert_array_equal(a, b)


def _assert_same_bundle(bundle, again):
    for base, _, files in os.walk(bundle):
        rel = os.path.relpath(base, bundle)
        for name in files:
            p1 = os.path.join(base, name)
            p2 = os.path.join(again, rel, name)
            assert open(p1, "rb").read() == open(p2, "rb").read(), name


def test_plan_is_byte_deterministic(planned, tmp_path):
    scenario, bundle = planned
    again = tmp_path / "again"
    assert main(["plan", str(scenario), "--out", str(again)]) == 0
    _assert_same_bundle(bundle, again)


def test_plan_under_python_O_writes_the_same_bundle(planned, tmp_path):
    # -O strips asserts; the run's invariants must not depend on them
    scenario, bundle = planned
    again = tmp_path / "optimized"
    src = os.path.dirname(os.path.dirname(os.path.abspath(voxpick.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "voxpick.cli", "plan", str(scenario), "--out", str(again)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    _assert_same_bundle(bundle, again)


def _plan_edited(planned, tmp_path, edit):
    scenario, _ = planned
    d = json.loads(scenario.read_text())
    edit(d)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(d))
    return main(["plan", str(path), "--out", str(tmp_path / "out")])


def _assert_one_parse_error(capsys, field):
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1, err
    assert lines[0].startswith("error:parse:parse:") and field in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [-3, 2.7, 1.0, "1", True, None])
def test_plan_rejects_bad_clearance_voxels(planned, tmp_path, capsys, value):
    rc = _plan_edited(planned, tmp_path, lambda d: d["planner"].update(clearance_voxels=value))
    assert rc == 2
    _assert_one_parse_error(capsys, "planner.clearance_voxels")


@pytest.mark.parametrize(
    "key, value",
    [
        ("object_radius_m", -1.0),
        ("object_radius_m", float("nan")),
        ("gripper_radius_m", 0.0),
        ("gripper_radius_m", float("inf")),
    ],
)
def test_plan_rejects_bad_actor_radius(planned, tmp_path, capsys, key, value):
    rc = _plan_edited(planned, tmp_path, lambda d: d["actors"].update({key: value}))
    assert rc == 2
    _assert_one_parse_error(capsys, f"actors.{key}")


@pytest.mark.parametrize("value", [0, -0.2])
def test_plan_rejects_a_non_positive_voxel_size(planned, tmp_path, capsys, value):
    rc = _plan_edited(planned, tmp_path, lambda d: d["grid"].update(voxel_size_m=value))
    assert rc == 2
    _assert_one_parse_error(capsys, "grid.voxel_size_m")


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("planner", "iterations", 2.7, "planner.iterations"),
        ("frames", "total_frames", 49.9, "frames.total_frames"),
        ("grid", "dims", [64.5, 64, 64], "grid.dims"),
        ("camera", "width_px", 256.7, "camera.width_px"),
        ("camera", "height_px", 256.5, "camera.height_px"),
    ],
)
def test_plan_rejects_fractional_integer_fields(planned, tmp_path, capsys, section, key,
                                                value, field):
    rc = _plan_edited(planned, tmp_path, lambda d: d[section].update({key: value}))
    assert rc == 2
    _assert_one_parse_error(capsys, field)


@pytest.mark.parametrize(
    "key, value",
    [("learning_rate", float("nan")), ("learning_rate", -1.0), ("eps_curv", float("nan"))],
)
def test_plan_rejects_bad_step_settings(planned, tmp_path, capsys, key, value):
    rc = _plan_edited(planned, tmp_path, lambda d: d["planner"].update({key: value}))
    assert rc == 2
    _assert_one_parse_error(capsys, key)


@pytest.mark.parametrize("value", [1e300, 22.171])
def test_plan_rejects_a_d_safe_beyond_the_grid_diagonal(planned, tmp_path, capsys, value):
    # the sink grid's diagonal is |(64, 64, 64)| * 0.2 = 22.1703 m; 1e300
    # used to overflow in loss_col's square, warn, and exit 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _plan_edited(planned, tmp_path, lambda d: d["planner"].update(d_safe_m=value))
    assert rc == 2
    _assert_one_parse_error(capsys, "planner.d_safe_m")
    assert not (tmp_path / "out").exists()


def test_a_diverging_refiner_exits_4_with_one_line_and_no_warning(planned, tmp_path, capsys):
    # w_len 1e8 overshoots until the curvature term overflows; the refiner
    # ends in NonFiniteLoss without a numpy RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _plan_edited(planned, tmp_path, lambda d: d["planner"].update(w_len=1e8))
    lines = capsys.readouterr().err.splitlines()
    assert rc == 4
    assert len(lines) == 1 and lines[0].startswith("error:optimize:non-finite:"), lines


@pytest.mark.parametrize("dims", [[10**7] * 3, [257, 256, 256]])
def test_plan_refuses_a_grid_over_the_cell_cap(planned, tmp_path, capsys, dims):
    # refused while parsing, before numpy is asked for the array
    rc = _plan_edited(planned, tmp_path, lambda d: d["grid"].update(dims=dims))
    assert rc == 2
    _assert_one_parse_error(capsys, "grid.dims")


@pytest.mark.parametrize(
    "body",
    [None, b"1 2 3\n4 5 \xe9\n", b"1 2 3\n4 5\n"],
    ids=["missing", "non-ascii", "two-numbers"],
)
def test_plan_refuses_a_bad_cloud_file_with_one_parse_line(planned, tmp_path, capsys, body):
    cloud = tmp_path / "cloud.xyz"
    if body is not None:
        cloud.write_bytes(body)
    assert _plan_edited(planned, tmp_path, lambda d: d.update(cloud_path=str(cloud))) == 2
    _assert_one_parse_error(capsys, str(cloud))


def test_plan_reads_its_settings_from_the_file(planned, tmp_path):
    def edit(d):
        d["planner"]["iterations"] = 5
        d["frames"]["total_frames"] = 25

    assert _plan_edited(planned, tmp_path, edit) == 0
    out = tmp_path / "out"
    saved = json.loads((out / "scenario.json").read_text())
    assert saved["planner"]["iterations"] == 5
    assert saved["frames"]["total_frames"] == 25
    assert len((out / "trajectory_optimized.jsonl").read_text().splitlines()) == 25


def test_out_of_bounds_keypoint_prints_plain_floats(planned, tmp_path, capsys):
    rc = _plan_edited(
        planned, tmp_path, lambda d: d["scene"].update(effector_start_m=[6.8, 6.4, 13.0])
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:parse:parse: effector_start (6.8, 6.4, 13.0) outside")
    assert "np.float64" not in err


def _assert_one_keypoint_error(capsys, name):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error:scene:keypoint-occupied: {name} at ("), lines
    assert "np.float64" not in lines[0]


def test_an_effector_start_in_the_cloud_exits_2_as_with_primitives(planned, tmp_path, capsys):
    # occupancy from a point cloud gets the same keypoint check as from primitives
    def edit(d):
        cloud = tmp_path / "cloud.xyz"
        cloud.write_text(" ".join(repr(v) for v in d["scene"]["effector_start_m"]) + "\n")
        d["cloud_path"] = str(cloud)

    assert _plan_edited(planned, tmp_path, edit) == 2
    _assert_one_keypoint_error(capsys, "effector start")


def test_a_grasp_point_in_the_rim_exits_2(planned, tmp_path, capsys):
    # the object center is free; the grasp point it is offset to is not
    rc = _plan_edited(
        planned, tmp_path, lambda d: d["scene"].update(grasp_offset_m=[3.2, 0.0, -1.0])
    )
    assert rc == 2
    _assert_one_keypoint_error(capsys, "grasp point")


def _nan_first(key):
    def edit(d):
        d["scene"][key][0] = float("nan")

    return edit


def _rotation_entry(row, col, value):
    def edit(d):
        d["camera"]["rotation"][row][col] = value

    return edit


def _add_primitive(prim):
    return lambda d: d["scene"]["primitives"].append(prim)


def _set(section, key, value):
    return lambda d: (d[section] if section else d).update({key: value})


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["camera"].update(width_px=0),
        lambda d: d["camera"].update(height_px=0),
        lambda d: d["camera"].update(fx_px=float("nan")),
        lambda d: d["camera"].update(cx_px=float("inf")),
        lambda d: d["camera"].update(fx_px=1e200),
        lambda d: d["camera"].update(fy_px=1e200),
        lambda d: d["camera"].update(translation_m=[float("nan"), 0.0, 0.0]),
        lambda d: d["camera"].update(rotation=[[float("nan")] * 3] * 3),
        lambda d: d["camera"].update(cx_px=1e300),
        lambda d: d["camera"].update(cy_px=-1e300),
        _rotation_entry(0, 0, 1e149),
        _rotation_entry(2, 1, -1e149),
        _nan_first("effector_start_m"),
        _nan_first("place_target_m"),
        lambda d: d["scene"].update(grasp_offset_m=[0.0, 0.0, 100.0]),
        lambda d: d["scene"].update(grasp_offset_m=[float("nan"), 0.0, 0.0]),
        lambda d: d["grid"].update(min_corner_m=[float("nan"), 0.0, 0.0]),
        lambda d: d["scene"].update(effector_start_m=[6.8]),
        lambda d: d["scene"].update(object_position_m=[3.2, 6.4, 5.0, 1.0]),
        lambda d: d["scene"].update(place_target_m="10.4, 6.4, 5.0"),
        lambda d: d["scene"].update(grasp_offset_m=[0.0, 0.4]),
        lambda d: d["grid"].update(dims=[0, 64, 64]),
        lambda d: d["grid"].update(dims=[64, 64]),
        _add_primitive({"type": "plane", "axis": 3, "offset_m": 1.0}),
        _add_primitive({"type": "plane", "axis": 1.7, "offset_m": 1.0}),
        _add_primitive({"type": "plane", "axis": 2, "offset_m": 100.0, "side": "up"}),
        _add_primitive({"type": "plane", "axis": 2, "offset_m": float("nan")}),
        _add_primitive({"type": "box", "min_m": [0.0, 0.0], "max_m": [1.0, 1.0]}),
        _add_primitive({"type": "box", "min_m": [0.0, 0.0, 0.0], "max_m": "abc"}),
        _add_primitive({"type": "sphere", "center_m": "abc", "radius_m": 1.0}),
        _add_primitive({"type": "sphere", "center_m": [1.0, 1.0, 1.0], "radius_m": -1.0}),
        _add_primitive({"type": "sphere", "center_m": [1.0, 1.0, 1.0], "radius_m": 1e308}),
        _add_primitive({"type": "sphere", "center_m": [1e300, 0.0, 0.0], "radius_m": 1e200}),
        _add_primitive({"type": "sphere", "center_m": [1e300, 0.0, 0.0], "radius_m": 1.0}),
        lambda d: (d["grid"].update(voxel_size_m=1e200), _add_primitive(
            {"type": "sphere", "center_m": [1.0, 1.0, 1.0], "radius_m": 1.0})(d)),
        _set(None, "planner", []),
        _set(None, "scene", []),
        _set(None, "frames", "sine"),
        _set("planner", "w_len", "1.0"),
        _set("planner", "w_acc", True),
        _set("planner", "w_curv", "0.1"),
        _set("planner", "w_col", 10**400),
        _set("planner", "d_safe_m", "1.6"),
        _set("planner", "learning_rate", True),
        _set("planner", "eps_curv", "0"),
        _set("grid", "voxel_size_m", "0.2"),
        _set("camera", "fx_px", "300"),
        _set("camera", "fy_px", True),
        _set("camera", "cx_px", "128"),
        _set("camera", "cy_px", False),
        _set("actors", "object_radius_m", "1"),
        _set("actors", "gripper_radius_m", True),
        _set(None, "name", ["x"]),
        _set(None, "cloud_path", 5),
        _set(None, "cloud_path", 0),
        _add_primitive({"type": "box", "name": 5, "min_m": [0.0, 0.0, 0.0],
                        "max_m": [1.0, 1.0, 1.0]}),
        _add_primitive({"type": "sphere", "name": 5, "center_m": [1.0, 1.0, 1.0],
                        "radius_m": 0.5}),
        _add_primitive({"type": "plane", "name": 5, "axis": 2, "offset_m": 0.0}),
        _set("planner", "w_coll", 3.0),
        _set(None, "bogus", 1),
        _set("camera", "fov", 60.0),
        _add_primitive({"type": "box", "min_m": [0.0, 0.0, 0.0], "max_m": [1.0, 1.0, 1.0],
                        "size_m": [1.0, 1.0, 1.0]}),
        _set("grid", "min_corner_m", [True, 0, 0]),
        _set("grid", "min_corner_m", ["0", "0", "0"]),
        _set("camera", "rotation", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        _set("camera", "rotation", [[True, False, False], [False, True, False],
                                    [False, False, True]]),
        _set("camera", "translation_m", ["0", "0", "20"]),
        _set(None, "schema_version", 2),
        _set(None, "schema_version", "1"),
        _set(None, "schema_version", True),
    ],
    ids=[
        "width-0", "height-0", "fx-nan", "cx-inf", "fx-1e200", "fy-1e200",
        "translation-nan", "rotation-nan", "cx-1e300", "cy-minus-1e300",
        "rotation-entry-1e149", "rotation-entry-minus-1e149",
        "effector-start-nan", "place-target-nan", "grasp-point-outside", "grasp-offset-nan",
        "min-corner-nan", "effector-start-1-number", "object-position-4-numbers",
        "place-target-string", "grasp-offset-2-numbers", "dims-0", "dims-2-numbers",
        "plane-axis-3", "plane-axis-1.7", "plane-side-up", "plane-offset-nan",
        "box-2-element-corner", "box-corner-string", "sphere-center-string", "sphere-radius-neg",
        "sphere-radius-1e308", "sphere-center-1e300-radius-1e200", "sphere-center-1e300",
        "voxel-size-1e200",
        "planner-a-list", "scene-a-list", "frames-a-string", "w-len-string", "w-acc-true",
        "w-curv-string", "w-col-huge-int", "d-safe-string", "learning-rate-true",
        "eps-curv-string", "voxel-size-string", "fx-string", "fy-true", "cx-string",
        "cy-false", "object-radius-string", "gripper-radius-true", "name-list",
        "cloud-path-5", "cloud-path-0", "box-name-5", "sphere-name-5", "plane-name-5",
        "unknown-planner-w_coll", "unknown-top-bogus", "unknown-camera-fov", "unknown-box-size_m",
        "min-corner-true", "min-corner-strings", "rotation-strings", "rotation-bools",
        "translation-strings", "schema-version-2", "schema-version-string", "schema-version-true",
    ],
)
def test_plan_rejects_bad_camera_keypoints_and_primitives(planned, tmp_path, capsys, edit):
    # a numpy RuntimeWarning on the way to the error would be a second line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _plan_edited(planned, tmp_path, edit)
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_check_detects_injected_gradient_fault(monkeypatch, capsys):
    original = losses.loss_acc

    def off_by_one(*args, **kwargs):
        value, grad = original(*args, **kwargs)
        grad = grad.copy()
        grad.flat[0] += 1.0
        return value, grad

    monkeypatch.setattr(losses, "loss_acc", off_by_one)
    rc = main(["check"])
    captured = capsys.readouterr()
    assert rc == 6
    assert "FAIL gradient-correctness" in captured.out
    assert captured.err.startswith("error:check:oracle-mismatch:")
