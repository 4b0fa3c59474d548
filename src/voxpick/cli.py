"""Command-line front end.

Subcommands: ``synth`` writes a scenario file from a template, ``plan``
executes the full pipeline on a scenario file into a run-bundle
directory (every run setting lives in that file), ``report``
summarizes a bundle as tables/CSV, ``masks`` re-renders guidance masks
from a bundle, and ``check`` runs the oracle self-test harness.

Exit codes: 0 ok, 2 parse/input, 3 no path, 4 optimizer non-finite,
6 oracle mismatch. Every failure line starts with
``error:<stage>:<code>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .errors import CorruptBundle, DegeneratePath, OracleMismatch, ParseError, VoxpickError
from .grid_planner import STAGE_ORDER, Stage
from .pipeline import (
    Scenario,
    _finite,
    _non_negative_int,
    load_scenario,
    run,
    save_scenario,
    write_bundle,
)
from .projection import render_guidance_masks, write_pgm
from .scene import Box
from .selfcheck import run_checks
from .templates import TEMPLATES, make_template
from .time_alloc import STAGE_GRIPPER, GripperState, TimedTrajectory, sine_fit


def _random_clutter(scenario: Scenario, count: int, seed: int) -> Scenario:
    """Sprinkle small random boxes that avoid a margin around keypoints."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(scenario.bounds.min_corner)
    extent = np.asarray(scenario.dims) * scenario.bounds.voxel_size
    keypoints = np.asarray(
        [
            scenario.spec.effector_start,
            scenario.spec.object_position,
            scenario.spec.place_target,
        ]
    )
    margin = 6.0 * scenario.bounds.voxel_size
    boxes = []
    attempts = 0
    while len(boxes) < count and attempts < 200 * max(count, 1):
        attempts += 1
        size = rng.uniform(2.0, 4.0, size=3) * scenario.bounds.voxel_size
        corner = lo + rng.uniform(0.0, 1.0, size=3) * (extent - size)
        center = corner + size / 2.0
        if np.any(np.linalg.norm(keypoints - center, axis=1) < margin):
            continue
        boxes.append(Box(tuple(corner), tuple(corner + size), name=f"clutter_{len(boxes)}"))
    spec = replace(scenario.spec, primitives=scenario.spec.primitives + tuple(boxes))
    return replace(scenario, spec=spec)


def cmd_synth(args) -> int:
    scenario = make_template(args.template)
    count = _non_negative_int(args.clutter, "--clutter")
    seed = _non_negative_int(args.seed, "--seed")
    if count:
        scenario = _random_clutter(scenario, count, seed)
    save_scenario(scenario, args.out)
    print(f"wrote scenario {scenario.name!r} -> {args.out}")
    return 0


def _clearance_text(value: float, band: float, fmt=repr) -> str:
    """A clearance as printed: one at the band is only a lower bound."""
    return ">=" + fmt(band) if value >= band else fmt(value)


def cmd_plan(args) -> int:
    bundle = run(load_scenario(args.scenario))
    write_bundle(bundle, args.out)
    rep = bundle.loss_report
    print(f"bundle -> {args.out}")
    before, after = (
        _clearance_text(c["manipulate"].min_m, bundle.clearance_band_m, "{:.4f}".format)
        for c in (bundle.clearance_before, bundle.clearance_after)
    )
    print(
        f"objective {rep.before.total:.6f} -> {rep.after.total:.6f}; "
        f"min clearance (manipulate) {before} -> {after} m"
    )
    return 0


# --- report -----------------------------------------------------------------

LOSS_COLUMNS = ("col", "len", "acc", "curv", "total")
CLEARANCE_COLUMNS = ("min_m", "interior_min_m")
ARC_LENGTH_KEYS = ("arc_length_initial_m", "arc_length_optimized_m", "arc_length_timed_m")


def _load_bundle_json(bundle_dir: str, name: str) -> dict:
    path = os.path.join(bundle_dir, name)
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except OSError as e:
        raise CorruptBundle(f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer over Python's digit limit
        raise CorruptBundle(f"{path}: invalid JSON: {e}") from e


def report_tables(bundle_dir: str) -> dict:
    """Structured report data read back from a bundle directory."""
    metrics = _load_bundle_json(bundle_dir, "metrics.json")
    try:
        losses = metrics["losses"]
        loss_rows = [
            (phase, [_finite(losses[phase][c], c) for c in LOSS_COLUMNS])
            for phase in ("before", "after")
        ]
        clearance_rows = []
        for phase in ("before", "after"):
            for stage in ("approach", "manipulate", "back_idle"):
                stats = metrics[f"clearance_{phase}"][stage]
                clearance_rows.append(
                    (phase, stage, [_finite(stats[c], c) for c in CLEARANCE_COLUMNS])
                )
        arc_lengths = [(k, _finite(metrics[k], k)) for k in ARC_LENGTH_KEYS]
        band = _finite(metrics["clearance_band_m"], "clearance_band_m")
    except (KeyError, TypeError, ParseError) as e:
        raise CorruptBundle(f"metrics.json: missing or malformed entry: {e}") from e
    initial = _timed_from_bundle(bundle_dir, "trajectory_initial.jsonl")
    optimized = _timed_from_bundle(bundle_dir, "trajectory_optimized.jsonl")
    sine_fit_rows = [
        (stage.value, [sine_fit(initial, stage), sine_fit(optimized, stage)])
        for stage in Stage
    ]
    return {
        "losses": loss_rows,
        "clearance_band_m": band,
        "clearance": clearance_rows,
        "sine_fit": sine_fit_rows,
        "arc_lengths": arc_lengths,
    }


def cmd_report(args) -> int:
    tables = report_tables(args.bundle)
    out = sys.stdout
    print("losses," + ",".join(LOSS_COLUMNS), file=out)
    for phase, values in tables["losses"]:
        print(phase + "," + ",".join(repr(v) for v in values), file=out)
    band = tables["clearance_band_m"]
    print(f"clearance_band_m,{band!r}", file=out)
    print("clearance,stage," + ",".join(CLEARANCE_COLUMNS), file=out)
    for phase, stage, values in tables["clearance"]:
        texts = (_clearance_text(v, band) for v in values)
        print(f"{phase},{stage}," + ",".join(texts), file=out)
    print("sine_fit,stage,initial_max_dev,optimized_max_dev", file=out)
    for stage, values in tables["sine_fit"]:
        print(f"sine_fit,{stage}," + ",".join(repr(v) for v in values), file=out)
    for key, value in tables["arc_lengths"]:
        print(f"{key},{value!r}", file=out)
    return 0


def _timed_from_bundle(bundle_dir: str, name: str) -> TimedTrajectory:
    """Read a trajectory file; record k must be frame k, carry the gripper
    state of its stage, and the stages must run approach -> manipulate ->
    back_idle."""
    path = os.path.join(bundle_dir, name)
    positions, stages = [], []
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh):
                # decoded here, not by the file, so a bad byte names its line
                rec = json.loads(line.decode("ascii"))
                stage = Stage(rec["stage"])
                if _non_negative_int(rec["frame"], "frame") != line_no:
                    raise ValueError(f"frame {rec['frame']!r}, expected {line_no}")
                if GripperState(rec["gripper"]) is not STAGE_GRIPPER[stage]:
                    raise ValueError(f"gripper {rec['gripper']!r} in stage {stage.value!r}")
                if stages and STAGE_ORDER.index(stage) < STAGE_ORDER.index(stages[-1]):
                    raise ValueError(f"stage {stage.value!r} after {stages[-1].value!r}")
                positions.append([_finite(rec[k], k) for k in ("x_m", "y_m", "z_m")])
                stages.append(stage)
    except OSError as e:
        raise CorruptBundle(f"cannot read {path}: {e}") from e
    except (KeyError, TypeError, ValueError, ParseError) as e:
        raise CorruptBundle(f"{path} line {line_no + 1}: {e}") from e
    if not stages:
        raise CorruptBundle(f"{path}: no frames")
    try:
        return TimedTrajectory(np.array(positions), tuple(stages))
    except DegeneratePath as e:
        raise CorruptBundle(f"{path}: {e}") from e


def cmd_masks(args) -> int:
    scenario = load_scenario(os.path.join(args.bundle, "scenario.json"))
    timed = _timed_from_bundle(args.bundle, "trajectory_optimized.jsonl")
    spec = scenario.spec
    masks = render_guidance_masks(
        timed, spec.grasp_point(), spec.place_target,
        scenario.object_radius, scenario.gripper_radius, scenario.camera,
    )
    os.makedirs(args.out, exist_ok=True)
    for k, m in enumerate(masks):
        write_pgm(os.path.join(args.out, f"frame_{k:04d}.pgm"), m.image)
    print(f"{len(masks)} masks -> {args.out}")
    return 0


def cmd_check(args) -> int:
    results = run_checks()
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.2f}s): {r.detail}")
    if failed:
        err = OracleMismatch(", ".join(r.name for r in failed))
        print(err.cli_line(), file=sys.stderr)
        return err.exit_code
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voxpick",
        description="Voxel-grid pick-and-place trajectory planner and mask renderer.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="write a scenario file from a template")
    sp.add_argument("--template", choices=list(TEMPLATES), default="sink")
    sp.add_argument("--out", required=True, help="scenario JSON output path")
    sp.add_argument("--clutter", type=int, default=0, help="random clutter boxes")
    sp.add_argument("--seed", type=int, default=0, help="clutter randomization seed")
    sp.set_defaults(func=cmd_synth)

    pp = sub.add_parser("plan", help="run the pipeline into a bundle directory")
    pp.add_argument("scenario", help="scenario JSON path")
    pp.add_argument("--out", required=True, help="bundle output directory")
    pp.set_defaults(func=cmd_plan)

    rp = sub.add_parser("report", help="summarize a bundle as CSV tables")
    rp.add_argument("bundle", help="bundle directory")
    rp.set_defaults(func=cmd_report)

    mp = sub.add_parser("masks", help="re-render guidance masks from a bundle")
    mp.add_argument("bundle", help="bundle directory")
    mp.add_argument("--out", required=True, help="mask output directory")
    mp.set_defaults(func=cmd_masks)

    cp = sub.add_parser("check", help="run the oracle self-test harness")
    cp.set_defaults(func=cmd_check)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VoxpickError as e:
        print(e.cli_line(), file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
