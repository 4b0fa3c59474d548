"""The run bundle has one owner: ``pipeline`` writes every bundle file and
reads each one back, and ``cli`` only prints what the readers return."""

import ast
import pathlib

from voxpick.optimizer import LOSS_KEYS
from voxpick.pipeline import (
    read_bundle_scenario,
    read_metrics,
    read_timed,
    scenario_to_dict,
    write_bundle,
)

CLI = pathlib.Path(__file__).resolve().parent.parent / "src" / "voxpick" / "cli.py"


def test_a_written_bundle_reads_back_bit_identical(sink_bundle, tmp_path):
    write_bundle(sink_bundle, tmp_path)
    for phase, timed in (("initial", sink_bundle.timed_initial),
                         ("optimized", sink_bundle.timed_optimized)):
        back = read_timed(tmp_path, phase)
        assert back.positions.tobytes() == timed.positions.tobytes()
        assert back.stages == timed.stages
    metrics = read_metrics(tmp_path)
    rep = sink_bundle.loss_report
    assert metrics["losses"] == [(phase, [getattr(rep, phase).as_dict()[k] for k in LOSS_KEYS])
                                 for phase in ("before", "after")]
    assert metrics["clearance_band_m"] == sink_bundle.clearance_band_m
    assert metrics["clearance"] == [
        (phase, stage, [stats.min_m, stats.interior_min_m])
        for phase, by_stage in (("before", sink_bundle.clearance_before),
                                ("after", sink_bundle.clearance_after))
        for stage, stats in by_stage.items()
    ]
    assert scenario_to_dict(read_bundle_scenario(tmp_path)) == scenario_to_dict(
        sink_bundle.scenario)


def _bundle_file_literals(tree: ast.Module):
    # an f-string's literal parts are Constant nodes too
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.endswith((".json", ".jsonl", ".pgm"))]


def test_cli_spells_no_bundle_file_name():
    found = _bundle_file_literals(ast.parse(CLI.read_text(encoding="utf-8")))
    assert not found, "\n".join(f"cli.py:{line}: {value!r}" for line, value in found)


def test_the_scan_finds_a_file_name_in_an_f_string():
    tree = ast.parse('a = "m.json"\nb = f"frame_{k:04d}.pgm"\nc = "x.jsonl.gz"\n')
    assert _bundle_file_literals(tree) == [(1, "m.json"), (2, ".pgm")]
