"""Outside-in tracing of voxpick: spans around the calls into each module.

The traced run swaps the names that callers look up (module globals such
as ``voxpick.pipeline.compute_edt`` and the ``DistanceField`` methods) for
wrappers that record a span per call, and swaps ``voxpick.grid_planner``'s
``heapq`` for a counting shim. Everything is restored when the ``traced``
block ends, so untraced ops run the unmodified program.

A span is (name, start, end, parent index, op id); the layer is the part
of the name before the first dot. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import os
import statistics
import time
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

LAYERS = (
    "scene",
    "distance_field",
    "grid_planner",
    "losses",
    "optimizer",
    "time_alloc",
    "projection",
    "pipeline",
    "cli",
)
ROOT_SPAN = "op"  # the benchmark's own span around one whole op


class Recorder:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op]
        self.counts: Dict[str, Counter] = {}
        self._stack: List[int] = []
        self.op = ""

    def count(self, key: str, n=1) -> None:
        self.counts[self.op][key] += n

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op: str):
        """Root span of one benchmark op; counts start afresh for it."""
        self.op = op
        self.counts[op] = Counter()
        with self.span(ROOT_SPAN):
            yield

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording a span per call; ``counter(rec, args, kwargs, result)``
        runs after the span has closed."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                    )
                )
                fh.write("\n")


class CountingHeapq:
    """Stand-in for the ``heapq`` module inside ``voxpick.grid_planner``:
    every pop is one node taken off the open set (stale duplicates
    included), every push one node put on it."""

    def __init__(self):
        self.pushed = 0
        self.popped = 0

    def heappush(self, heap, item):
        self.pushed += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.popped += 1
        return heapq.heappop(heap)


# --- counters taken from arguments and results ------------------------------


def _count_grid(rec, args, kwargs, grid):
    rec.count("scene.occupied_voxels", int(grid.occupied.sum()))


def _count_edt(rec, args, kwargs, fld):
    rec.count("distance_field.voxels", int(fld.distance.size))


def _count_sample(rec, args, kwargs, result):
    rec.count("distance_field.sample_calls")
    rec.count("distance_field.sample_points", int(np.asarray(args[1]).size) // 3)


def _count_dilate(rec, args, kwargs, result):
    rec.count("grid_planner.dilate_calls")


def _count_plan(rec, args, kwargs, traj):
    rec.count("grid_planner.path_cells", sum(len(s.points) for s in traj.subs))


def _count_eval(rec, args, kwargs, result):
    rec.count("losses.eval_calls")


def _count_optimize(rec, args, kwargs, result):
    report = result[1]
    rec.count("optimizer.iterations", sum(max(len(t) - 2, 0) for t in report.trace.values()))
    rec.count("optimizer.feasible_legs", sum(t.col == 0.0 for t in report.per_stage_after.values()))
    rec.counts[rec.op]["optimizer.kept_iter_frac"] = kept_iter_frac(
        report.trace, {k: v.total for k, v in report.per_stage_after.items()}
    )


def _count_realloc(rec, args, kwargs, timed):
    rec.count("time_alloc.frames", timed.n_frames)


def _count_render(rec, args, kwargs, masks):
    for m in masks:
        rec.count("projection.pixels", int(m.image.size))
        rec.count("projection.actor_pixels", int((m.image != 0).sum()))


def _count_write(rec, args, kwargs, result):
    rec.count("pipeline.bytes_written", tree_bytes(args[1]))


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _patches(rec: Recorder) -> List[Tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced entry point."""
    from voxpick import cli, grid_planner, optimizer, pipeline, scene
    from voxpick.distance_field import DistanceField

    table = [
        (scene, "synth_scene", "scene.build", _count_grid),
        (pipeline, "compute_edt", "distance_field.edt", _count_edt),
        (DistanceField, "sample", "distance_field.sample", _count_sample),
        (DistanceField, "gradient", "distance_field.gradient", None),
        (pipeline, "plan_three_stage", "grid_planner.plan", _count_plan),
        (grid_planner, "dilate_chebyshev", "grid_planner.dilate", _count_dilate),
        (pipeline, "optimize_trajectory", "optimizer.optimize", _count_optimize),
        (optimizer, "evaluate_losses", "losses.eval", _count_eval),
        (optimizer, "loss_col", "losses.col", None),
        (optimizer, "loss_curv", "losses.curv", None),
        (pipeline, "reallocate", "time_alloc.reallocate", _count_realloc),
        (pipeline, "render_guidance_masks", "projection.render", _count_render),
        (cli, "render_guidance_masks", "projection.render", _count_render),
        (pipeline, "write_pgm", "projection.write_pgm", None),
        (cli, "write_pgm", "projection.write_pgm", None),
        (pipeline, "load_scenario", "pipeline.load", None),
        (pipeline, "run", "pipeline.run", None),
        (pipeline, "write_bundle", "pipeline.write", _count_write),
        (cli, "main", "cli.main", None),
    ]
    return [(owner, attr, rec.wrap(name, getattr(owner, attr), counter))
            for owner, attr, name, counter in table]


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block; the heap counts
    go to the op that was recording when it ends."""
    from voxpick import grid_planner

    shim = CountingHeapq()
    patches = _patches(rec) + [(grid_planner, "heapq", shim)]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
        rec.count("grid_planner.nodes_pushed", shim.pushed)
        rec.count("grid_planner.nodes_expanded", shim.popped)


# --- arithmetic over spans ---------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it that its direct children
    cover (children clipped to the parent, overlaps counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def useful_ratio(path_cells: int, nodes_expanded: int) -> float:
    """Path cells per A* expansion; 0 when nothing was expanded."""
    return path_cells / nodes_expanded if nodes_expanded else 0.0


def kept_iter_frac(trace: Dict[str, List[float]], kept: Dict[str, float]) -> float:
    """Mean over optimized legs of (index of the kept iterate) / (iterates
    after the input), read from ``LossReport.trace``: 0 keeps the input, 1
    keeps the final iterate. Legs without iterations are skipped."""
    fracs = []
    for stage, totals in trace.items():
        if len(totals) < 2:
            continue
        fracs.append(totals.index(kept[stage]) / (len(totals) - 1))
    return statistics.fmean(fracs) if fracs else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def op_layer_metrics(spans: Sequence[Sequence], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics of one traced op from its spans and counts."""
    selfs = self_times(spans)
    total: Counter = Counter()
    self_by_name: Counter = Counter()
    for (name, start, end, _, _), s in zip(spans, selfs):
        total[name] += end - start
        self_by_name[name] += s
    expanded = counts["grid_planner.nodes_expanded"]
    plan_self = self_by_name["grid_planner.plan"]
    return {
        "scene.build_s": total["scene.build"],
        "scene.occupied_voxels": counts["scene.occupied_voxels"],
        "distance_field.edt_s": total["distance_field.edt"],
        "distance_field.edt_ns_per_voxel": _ratio(
            total["distance_field.edt"], counts["distance_field.voxels"], 1e9
        ),
        "distance_field.sample_calls": counts["distance_field.sample_calls"],
        "distance_field.sample_points": counts["distance_field.sample_points"],
        "distance_field.sample_s": total["distance_field.sample"],
        "distance_field.gradient_s": total["distance_field.gradient"],
        "grid_planner.plan_s": total["grid_planner.plan"],
        "grid_planner.dilate_s": total["grid_planner.dilate"],
        "grid_planner.dilate_calls": counts["grid_planner.dilate_calls"],
        "grid_planner.nodes_expanded": expanded,
        "grid_planner.nodes_pushed": counts["grid_planner.nodes_pushed"],
        "grid_planner.path_cells": counts["grid_planner.path_cells"],
        "grid_planner.useful_ratio": useful_ratio(counts["grid_planner.path_cells"], expanded),
        "grid_planner.us_per_expansion": _ratio(plan_self, expanded, 1e6),
        "losses.eval_calls": counts["losses.eval_calls"],
        "losses.eval_s": total["losses.eval"],
        "losses.col_s": total["losses.col"],
        "losses.curv_s": total["losses.curv"],
        "losses.us_per_eval": _ratio(total["losses.eval"], counts["losses.eval_calls"], 1e6),
        "optimizer.optimize_s": total["optimizer.optimize"],
        "optimizer.self_s": self_by_name["optimizer.optimize"],
        "optimizer.iterations": counts["optimizer.iterations"],
        "optimizer.kept_iter_frac": counts["optimizer.kept_iter_frac"],
        "optimizer.feasible_legs": counts["optimizer.feasible_legs"],
        "time_alloc.reallocate_s": total["time_alloc.reallocate"],
        "time_alloc.frames": counts["time_alloc.frames"],
        "projection.render_s": total["projection.render"],
        "projection.pixels": counts["projection.pixels"],
        "projection.ns_per_pixel": _ratio(
            total["projection.render"], counts["projection.pixels"], 1e9
        ),
        "projection.actor_pixels": counts["projection.actor_pixels"],
        "projection.write_pgm_s": total["projection.write_pgm"],
        "pipeline.load_s": total["pipeline.load"],
        "pipeline.run_self_s": self_by_name["pipeline.run"],
        "pipeline.write_s": total["pipeline.write"],
        "pipeline.bytes_written": counts["pipeline.bytes_written"],
        "cli.masks_self_s": self_by_name["cli.main"],
    }


def layer_shares(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Each layer's self time as a share of the op's root span; the
    benchmark's own glue is ``op``."""
    selfs = self_times(spans)
    root = [end - start for name, start, end, _, _ in spans if name == ROOT_SPAN]
    shares: Counter = Counter()
    for (name, *_), s in zip(spans, selfs):
        shares[name.split(".")[0]] += s
    return {layer: shares[layer] / root[0] for layer in LAYERS + (ROOT_SPAN,)}


def ops_of(rec: Recorder) -> Dict[str, List[list]]:
    """Spans grouped by op id, parent indexes renumbered within each op."""
    by_op: Dict[str, List[int]] = {}
    for i, s in enumerate(rec.spans):
        by_op.setdefault(s[4], []).append(i)
    out = {}
    for op, idxs in by_op.items():
        local = {g: j for j, g in enumerate(idxs)}
        out[op] = [
            [s[0], s[1], s[2], local.get(s[3]), s[4]] for s in (rec.spans[g] for g in idxs)
        ]
    return out


def median_metrics(per_op: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}


def unit(name: str) -> str:
    """A per-layer metric's unit, from its name's last word."""
    last = name.rsplit("_", 1)[-1]
    return {"s": "s", "voxel": "ns", "pixel": "ns", "expansion": "us", "eval": "us",
            "written": "bytes", "frac": "1", "ratio": "1"}.get(last, "count")
