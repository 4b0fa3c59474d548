"""voxpick benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload partition --seed 0 --seconds 45 --trace 0

Set-up writes the workload's inputs from the seed (``inputs.py``, run as a
fresh process several times; ``setup_s`` is the median). The run then
times ops in-process for ``--seconds``, every second op replaced by the
same op as a fresh ``python -m voxpick.cli`` process. Every op's output is
checked. On ``partition`` the end-to-end times (ops, CLI ops, set-up) are
seconds at the reference host speed: each wall time is scaled by a
reference computation timed right before and right after it
(``hostspeed.py``); the wall times are printed too. With ``--trace 1`` the
run instead alternates untraced and traced in-process ops on the same
input and reports per-layer metrics, in wall time, from the traced ones
(see ``spans.py``).

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Outputs go to ``.perfbench_work/<workload>/`` in the checkout, one
directory per kind of op, emptied before each op.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402  (sets the BLAS/OpenMP thread caps before numpy loads)
import hostspeed  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S of set-up is timed
SETUP_MIN_S = 3.0
CLI_EVERY = 2  # every second op of an untraced run is a fresh CLI process
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
WORK = os.path.join(inputs.ROOT, ".perfbench_work")
RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = inputs.SRC
    return env


def tree_digest(path: str) -> str:
    """SHA-256 over every file under ``path``: relative name, then bytes."""
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(path)):
        for f in sorted(files):
            full = os.path.join(d, f)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_setup(workload: str, seed: int, out: str, repeats: int, min_s: float,
              gauge: hostspeed.Gauge):
    """Time at least ``repeats`` fresh set-up processes, and more until
    their wall times add up to ``min_s``; return the wall times and the
    times at the reference speed."""
    times, scaled = [], []
    while len(times) < repeats or sum(times) < min_s:
        fresh_dir(out)
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "inputs.py"),
               "--workload", workload, "--seed", str(seed), "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        scaled.append(gauge.scale(times[-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    return times, scaled


class Workload:
    """The op of one workload, its checks and its quality figures."""

    def __init__(self, name: str, paths, work: str):
        from voxpick import cli, pipeline
        from voxpick.projection import PALETTE

        self.name = name
        self.kind = inputs.WORKLOADS[name]["op"]
        self.paths = paths
        self.work = work
        self.cli = cli
        self.pipeline = pipeline
        self.palette = sorted(PALETTE.values())
        self.reference = {}  # input index -> digest of its first output
        self.quality = {}  # input index -> (objective_after, clearance_min_m)

    def op(self, k: int, out: str):
        """One op on input ``k``; names are looked up at call time so a
        traced run sees its wrappers."""
        if self.kind == "plan":
            pipeline = self.pipeline
            bundle = pipeline.run(pipeline.load_scenario(self.paths[k]))
            pipeline.write_bundle(bundle, out)
            return bundle
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["masks", self.paths[k], "--out", out])

    def cli_argv(self, k: int, out: str):
        return [sys.executable, "-m", "voxpick.cli", self.kind, self.paths[k], "--out", out]

    def check(self, k: int, out: str, result) -> list:
        """Problems with an op's output (empty when it is correct)."""
        if self.kind == "masks":
            return self._check_masks(k, out, result)
        problems = self._same_as_first(k, out)
        if result is not None:  # in-process op: check the bundle object too
            problems += self._check_bundle(k, result)
        return problems

    def _same_as_first(self, k: int, out: str) -> list:
        digest = tree_digest(out)
        first = self.reference.setdefault(k, digest)
        return [] if digest == first else [f"input {k}: bundle digest {digest} != first {first}"]

    def _check_bundle(self, k: int, bundle) -> list:
        problems = []
        spec = bundle.scenario.spec
        keys = [spec.effector_start, spec.grasp_point(), spec.place_target, spec.effector_start]
        keys = [numpy.asarray(p, dtype=numpy.float64) for p in keys]
        for i, sub in enumerate(bundle.optimized.subs):
            if not (numpy.array_equal(sub.points[0], keys[i])
                    and numpy.array_equal(sub.points[-1], keys[i + 1])):
                problems.append(f"input {k}: leg {sub.stage.value} moved a keypoint")
        rep = bundle.loss_report
        if not rep.after.total <= rep.before.total:
            problems.append(f"input {k}: objective rose {rep.before.total} -> {rep.after.total}")
        frames = bundle.scenario.total_frames
        if len(bundle.masks) != frames:
            problems.append(f"input {k}: {len(bundle.masks)} masks for {frames} frames")
        if not all(numpy.isin(m.image, self.palette).all() for m in bundle.masks):
            problems.append(f"input {k}: mask pixel outside the palette")
        self.quality.setdefault(k, (
            rep.after.total,
            min(c.interior_min_m for c in bundle.clearance_after.values()),
        ))
        return problems

    def _check_masks(self, k: int, out: str, rc) -> list:
        if rc != 0:
            return [f"input {k}: masks exited {rc}"]
        src = os.path.join(self.paths[k], "masks")
        want = sorted(f for f in os.listdir(src) if f.endswith(".pgm"))
        got = sorted(f for f in os.listdir(out) if f.endswith(".pgm"))
        if want != got:
            return [f"input {k}: wrote {len(got)} masks, bundle has {len(want)}"]
        for f in want:
            with open(os.path.join(src, f), "rb") as a, open(os.path.join(out, f), "rb") as b:
                if a.read() != b.read():
                    return [f"input {k}: {f} differs from the bundle's"]
        return []

    def quality_figures(self):
        """(objective_after, clearance_min_m), each the mean over inputs."""
        if self.kind == "masks":
            for k, path in enumerate(self.paths):
                with open(os.path.join(path, "metrics.json"), encoding="ascii") as fh:
                    m = json.load(fh)
                self.quality[k] = (
                    m["losses"]["after"]["total"],
                    min(c["interior_min_m"] for c in m["clearance_after"].values()),
                )
        vals = list(self.quality.values())
        return statistics.fmean(v[0] for v in vals), statistics.fmean(v[1] for v in vals)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems = []

    @property
    def failed(self) -> int:
        return len({p[0] for p in self.problems})

    def record(self, op_id, problems):
        self.attempted += 1
        self.problems += [(op_id, p) for p in problems]


def timed_op(wl: Workload, k: int, out: str, tally: Tally, op_id, rec=None):
    """Run and check one in-process op; return its wall time (None if it
    raised)."""
    fresh_dir(out)
    try:
        if rec is None:
            t0 = time.perf_counter()
            result = wl.op(k, out)
            dt = time.perf_counter() - t0
        else:
            with spans.traced(rec), rec.op_span(op_id):
                t0 = time.perf_counter()
                result = wl.op(k, out)
                dt = time.perf_counter() - t0
    except Exception as e:  # an op that raises is a failed op, not a crash
        tally.record(op_id, [f"input {k}: {type(e).__name__}: {e}"])
        return None
    tally.record(op_id, wl.check(k, out, result))
    return dt


def cli_op(wl: Workload, k: int, out: str, tally: Tally, op_id):
    fresh_dir(out)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(wl.cli_argv(k, out), env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(op_id, [f"input {k}: CLI timed out"])
        return None
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.record(op_id, [f"input {k}: CLI exit {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace').strip()}"])
        return None
    tally.record(op_id, wl.check(k, out, 0 if wl.kind == "masks" else None))
    return dt


def measure(wl: Workload, seconds: float, tally: Tally, gauge: hostspeed.Gauge):
    """Untraced closed loop: {"op": [...], "cli": [...]} of wall times and
    the same of times at the reference speed."""
    op_out = os.path.join(wl.work, "op")
    cli_out = os.path.join(wl.work, "cli")
    wall = {"op": [], "cli": []}
    scaled = {"op": [], "cli": []}
    n_in = n_cli = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or n_in < MIN_SAMPLES or n_cli < MIN_SAMPLES:
        if i % CLI_EVERY == CLI_EVERY - 1:
            kind = "cli"
            dt = cli_op(wl, n_cli % len(wl.paths), cli_out, tally, f"cli{n_cli}")
            n_cli += 1
        else:
            kind = "op"
            n_in += 1  # the warm-up op took input 0
            dt = timed_op(wl, n_in % len(wl.paths), op_out, tally, f"op{n_in}")
        ref_dt = gauge.scale(dt if dt is not None else 0.0)
        if dt is not None:
            wall[kind].append(dt)
            scaled[kind].append(ref_dt)
        i += 1
    return wall, scaled


def measure_traced(wl: Workload, seconds: float, tally: Tally, rec: spans.Recorder):
    """Pairs of one untraced and one traced op on the same input, the
    order alternating: (untraced times, traced times by op id)."""
    out = os.path.join(wl.work, "op")
    plain, traced = [], {}
    deadline = time.perf_counter() + seconds
    j = 0
    while time.perf_counter() < deadline or len(traced) < MIN_SAMPLES:
        k = (1 + j) % len(wl.paths)
        for tracing in ((False, True) if j % 2 == 0 else (True, False)):
            op_id = f"pair{j}-{'traced' if tracing else 'plain'}"
            dt = timed_op(wl, k, out, tally, op_id, rec if tracing else None)
            if dt is not None and tracing:
                traced[op_id] = dt
            elif dt is not None:
                plain.append(dt)
        j += 1
    return plain, traced


def canonical_sink_digest(work: str) -> str:
    """Digest of the unmodified sink template's bundle, as information."""
    import voxpick
    from voxpick.templates import sink_scenario

    out = fresh_dir(os.path.join(work, "canonical"))
    voxpick.write_bundle(voxpick.run(sink_scenario()), out)
    return tree_digest(out)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seconds: float, tally: Tally, setup, gauge: hostspeed.Gauge):
    wall, scaled = measure(wl, seconds, tally, gauge)
    ops, clis = scaled["op"], scaled["cli"]
    if not ops or not clis:
        return None
    objective, clearance = wl.quality_figures()
    metrics = {
        "ops_per_s": metric(len(ops) / sum(ops), "1/s"),
        "op_s.p50": metric(statistics.median(ops), "s"),
        "cli_s.p50": metric(statistics.median(clis), "s"),
        "setup_s": metric(statistics.median(setup[1]), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "objective_after": metric(objective, "1"),
        "clearance_min_m": metric(clearance, "m"),
    }
    for label, times in (("set-up", setup[0]), ("in-process op", wall["op"]),
                         ("CLI op", wall["cli"])):
        print(f"  {label} wall times (s): {' '.join(f'{t:.3f}' for t in times)}")
    print(f"  wall medians (s): op {statistics.median(wall['op']):.4g}, "
          f"CLI op {statistics.median(wall['cli']):.4g}, set-up {statistics.median(setup[0]):.4g}")
    ref = gauge.reference
    print(f"  host speed: reference {hostspeed.NOMINAL_S:g} s nominal, median "
          f"{statistics.median(ref):.4g} s (min {min(ref):.4g}, max {max(ref):.4g}) over "
          f"{len(ref)} timings; times below are at the nominal speed" if ref else
          "  times below are wall times")
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    t = stats.tail(ops)
    print(f"  {'op_s.tail':<18} " + (
        f"p{t[0]:g} = {t[1]:.6g} s ({t[2]} of {len(ops)} samples beyond it)" if t else
        f"n/a: no percentile from p50 up leaves {stats.MIN_BEYOND} of {len(ops)} samples beyond it"))
    return metrics


def per_layer(wl: Workload, seconds: float, tally: Tally):
    rec = spans.Recorder()
    plain, traced = measure_traced(wl, seconds, tally, rec)
    if not plain or not traced:
        return None
    rec.write(os.path.join(wl.work, "spans.jsonl"))
    per_op = {op: s for op, s in spans.ops_of(rec).items() if op in traced}
    values = spans.median_metrics(
        [spans.op_layer_metrics(s, rec.counts[op]) for op, s in per_op.items()])
    values["trace.overhead_s"] = statistics.median(traced.values()) - statistics.median(plain)
    shares = [spans.layer_shares(s) for s in per_op.values()]
    shares = {layer: statistics.median(sh[layer] for sh in shares) for layer in shares[0]}
    print(f"  {len(traced)} traced and {len(plain)} untraced ops")
    print("  self-time share per layer (median over traced ops):")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<16} {share:7.1%}")
    want = inputs.WORKLOADS[wl.name]["why"]
    top = max(spans.LAYERS, key=shares.get)
    print(f"  largest layer: {top}; the workload is meant to load {want}: "
          f"{'holds' if top == want else 'DOES NOT HOLD'}")
    metrics = {k: metric(v, spans.unit(k)) for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    digest = canonical_sink_digest(wl.work)
    with open(RECORDED, encoding="ascii") as fh:
        recorded = json.load(fh)["canonical_sink_bundle_sha256"]
    print(f"  canonical sink bundle sha256 {digest} "
          f"({'same as' if digest == recorded else 'differs from'} the recorded {recorded})")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="voxpick benchmark (one workload, one seed)")
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        inputs.import_voxpick()
    except inputs.ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    in_dir = os.path.join(work, "inputs")
    gauge = hostspeed.Gauge(inputs.WORKLOADS[args.workload]["scaled"] and not args.trace)
    try:
        setup = run_setup(args.workload, args.seed, in_dir, 1 if args.trace else SETUP_REPEATS,
                          0.0 if args.trace else SETUP_MIN_S, gauge)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    paths = sorted(os.path.join(in_dir, f) for f in os.listdir(in_dir))
    wl = Workload(args.workload, paths, work)
    tally = Tally()
    timed_op(wl, 0, os.path.join(work, "op"), tally, "warm-up")  # fills caches, sets input 0's digest

    print(f"workload {args.workload} seed {args.seed}: {len(paths)} inputs; python "
          f"{sys.version.split()[0]}, numpy {numpy.__version__}, {os.cpu_count()} cpus")
    if args.trace == 0:
        metrics = end_to_end(wl, args.seconds, tally, setup, gauge)
    else:
        metrics = per_layer(wl, args.seconds, tally)
    if metrics is None:
        print("error: no op succeeded, nothing to report", file=sys.stderr)
        return 1

    for op_id, problem in tally.problems:
        print(f"  FAILED {op_id}: {problem}")
    print(f"  error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
