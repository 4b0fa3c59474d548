"""Clip-size caps and degenerate keypoints: each ends in one ``error:``
line and exit 2, never a traceback."""

import json

import pytest

from voxpick.cli import main
from voxpick.errors import ParseError
from voxpick.pipeline import (
    MAX_FRAMES,
    MAX_ITERATIONS,
    MAX_PIXELS,
    scenario_from_dict,
    scenario_to_dict,
)
from voxpick.templates import sink_scenario


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d["frames"].update(total_frames=MAX_FRAMES + 1), "frames.total_frames"),
        (lambda d: d["frames"].update(total_frames=10**9), "frames.total_frames"),
        (lambda d: d["camera"].update(width_px=MAX_PIXELS // 4096 + 1, height_px=4096),
         "camera.width_px"),
        (lambda d: d["camera"].update(width_px=10**7, height_px=10**7), "camera.width_px"),
    ],
    ids=["frames-over-cap", "frames-1e9", "pixels-over-cap", "camera-1e7-square"],
)
def test_a_clip_over_a_cap_is_one_parse_error_naming_its_key(edit, key):
    # refused while parsing: nothing is planned or allocated for the clip
    d = scenario_to_dict(sink_scenario())
    edit(d)
    with pytest.raises(ParseError) as info:
        scenario_from_dict(d)
    line = info.value.cli_line()
    assert line.startswith("error:parse:parse:") and key in line and "\n" not in line


def test_a_clip_at_the_caps_parses():
    d = scenario_to_dict(sink_scenario())
    d["frames"]["total_frames"] = MAX_FRAMES
    d["camera"].update(width_px=4096, height_px=MAX_PIXELS // 4096)
    s = scenario_from_dict(d)
    assert (s.total_frames, s.camera.width * s.camera.height) == (MAX_FRAMES, MAX_PIXELS)


@pytest.mark.parametrize("iterations", [MAX_ITERATIONS + 1, 10**12], ids=["over-cap", "1e12"])
def test_refiner_iterations_over_the_cap_exit_2_with_one_parse_line(tmp_path, capsys, iterations):
    # refused while parsing: the refiner never starts its loop
    d = scenario_to_dict(sink_scenario())
    d["planner"]["iterations"] = iterations
    path = tmp_path / "long.json"
    path.write_text(json.dumps(d))
    rc = main(["plan", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:parse:parse:"), lines
    assert "planner.iterations" in lines[0]
    assert not (tmp_path / "out").exists()


def test_refiner_iterations_at_the_cap_parse():
    d = scenario_to_dict(sink_scenario())
    d["planner"]["iterations"] = MAX_ITERATIONS
    assert scenario_from_dict(d).config.iterations == MAX_ITERATIONS


def test_coincident_keypoints_exit_2_with_one_degenerate_path_line(tmp_path, capsys):
    d = scenario_to_dict(sink_scenario())
    start = d["scene"]["effector_start_m"]
    d["scene"].update(object_position_m=start, place_target_m=start)
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(d))
    rc = main(["plan", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:time-alloc:degenerate-path:"), err
