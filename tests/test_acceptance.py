"""Acceptance harness: the ten headline criteria, one test (and one
pass/fail line under ``pytest -v``) each.

Criteria 1-8 delegate to the same oracle-backed checks that back
``voxpick check``; 9 and 10 exercise the CLI end to end.
"""

import os
import time
from dataclasses import replace

from voxpick.cli import main
from voxpick.pipeline import run
from voxpick.selfcheck import (
    check_astar_optimality,
    check_circle_curvature,
    check_edt_exactness,
    check_gradients,
    check_mask_contract,
    check_projection_fidelity,
    check_sink_avoidance,
    check_velocity_profile,
)
from voxpick.templates import sink_scenario


def _timed(fn, budget_s):
    t0 = time.perf_counter()
    detail = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    return detail


def test_criterion_01_edt_exact_on_100_random_grids():
    # exact match with the brute-force oracle in squared-integer space
    _timed(check_edt_exactness, budget_s=10.0)


def test_criterion_02_astar_matches_dijkstra_on_50_grids():
    _timed(check_astar_optimality, budget_s=10.0)


def test_criterion_03_analytic_gradients_match_finite_differences():
    # 100 random 20-point paths per loss; rel error < 1e-4 (1e-3 collision)
    _timed(check_gradients, budget_s=30.0)


def test_criterion_04_circle_curvature_identity():
    # N=50 points at 0.02 rad on R in {0.5, 1, 2}: L_curv = (N-2)/(2 R^2)
    check_circle_curvature()


def test_criterion_05_sink_obstacle_avoidance(sink_bundle):
    # initial manipulate leg violates d_safe; the refined leg clears it,
    # keeps its endpoints bit-identical, lowers the objective, and lifts
    # its apex upward over the rim
    _timed(lambda: check_sink_avoidance(sink_bundle), budget_s=30.0)


def test_criterion_06_sine_velocity_profile(sink_bundle):
    # per-stage chord speeds of the initial and the optimized timed
    # trajectory track sin(pi (k+1/2)/(n-1)) within 0.05, no optimized leg
    # turns back, frame counts match arc-length shares within 1, arc
    # length within 1%
    check_velocity_profile(sink_bundle)


def test_criterion_07_projection_fidelity():
    # 200 random spheres, Z > 4R: rasterized circle vs ray-cast oracle
    # IoU >= 0.95; on-axis case exact
    check_projection_fidelity()


def test_criterion_08_mask_contract(sink_bundle):
    # palette-only values, single close/open transitions at the stage
    # junctions, blank first frame, per-pixel two-actor oracle equality
    check_mask_contract(sink_bundle)


def test_criterion_08_mask_contract_at_the_remask_camera():
    # the benchmark's remask camera; the sink's own camera is 256x256
    scenario = sink_scenario()
    camera = replace(scenario.camera, fx=600.0, fy=600.0, cx=320.0, cy=240.0,
                     width=640, height=480)
    bundle = run(replace(scenario, camera=camera, total_frames=61))
    assert bundle.masks[1].image.shape == (480, 640)
    check_mask_contract(bundle)


def test_criterion_09_plan_is_deterministic_and_fast(tmp_path):
    scenario = tmp_path / "sink.json"
    assert main(["synth", "--template", "sink", "--out", str(scenario)]) == 0

    t0 = time.perf_counter()
    assert main(["plan", str(scenario), "--out", str(tmp_path / "b1")]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"full pipeline took {elapsed:.1f}s"
    assert main(["plan", str(scenario), "--out", str(tmp_path / "b2")]) == 0

    files = []
    for base, _, names in os.walk(tmp_path / "b1"):
        rel = os.path.relpath(base, tmp_path / "b1")
        files.extend(os.path.join(rel, n) for n in names)
    assert files, "bundle came out empty"
    for rel in files:
        a = open(os.path.join(tmp_path / "b1", rel), "rb").read()
        b = open(os.path.join(tmp_path / "b2", rel), "rb").read()
        assert a == b, f"{rel} differs between runs"


def test_criterion_10_check_subcommand_green(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all 8 checks passed" in out
    assert "FAIL" not in out
