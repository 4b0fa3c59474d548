"""Workload inputs for the voxpick benchmark, made from a seed.

Every workload starts from the sink template's scenario dict. The seed
jitters the object and place keypoints of each input by whole voxels of
the workload's own grid, -2..2 in x and y; the farthest jitter stays many
voxels from every wall, so no keypoint changes side. The program under
test only ever sees the scenario files (and, for ``remask``, the bundles)
written here.

Run as a script it writes one workload's inputs; the benchmark times that
script as its set-up:

    python3 perfbench/inputs.py --workload partition --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import copy
import os
import random
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# "why" is the layer the workload is meant to load; the traced run checks
# it against the self-time shares. "scaled": its end-to-end times are
# scaled to the reference host speed (hostspeed.py). "sink" and
# "sink-fine" are runnable but not in BENCHMARK.json (see workloads.json).
WORKLOADS = {
    "sink": {"op": "plan", "why": "optimizer", "scaled": False},
    "sink-fine": {"op": "plan", "why": "distance_field", "scaled": False},
    "partition": {"op": "plan", "why": "grid_planner", "scaled": True},
    "remask": {"op": "masks", "why": "projection", "scaled": False},
}
N_INPUTS = 8  # inputs per run, cycled by the ops; averages out the jitter
JITTER_VOXELS = 2


class ProgramMissing(RuntimeError):
    """The checkout has no voxpick sources next to the benchmark."""


def import_voxpick():
    """Put the checkout's ``src`` first on the path and import voxpick from
    it, refusing any other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "voxpick", "__init__.py")):
        raise ProgramMissing(f"no voxpick sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import voxpick

    if os.path.dirname(os.path.dirname(os.path.abspath(voxpick.__file__))) != SRC:
        raise ProgramMissing(f"voxpick imported from {voxpick.__file__}, not {SRC}")
    return voxpick


def workload_dict(name: str) -> dict:
    """The workload's scenario dict before keypoint jitter."""
    import_voxpick()
    from voxpick.pipeline import scenario_to_dict
    from voxpick.templates import sink_scenario

    d = scenario_to_dict(sink_scenario())
    if name == "sink-fine":
        # same world and keypoints in meters on a grid twice as fine
        d["grid"]["dims"] = [128, 128, 128]
        d["grid"]["voxel_size_m"] = 0.1
    elif name == "partition":
        # raise the rim into a divider the legs must climb over
        (rim,) = [p for p in d["scene"]["primitives"] if p["name"] == "rim"]
        rim["min_m"][1] = 0.4
        rim["max_m"][1] = 12.4
        rim["max_m"][2] = 10.0
    elif name == "remask":
        d["camera"].update(
            fx_px=600.0, fy_px=600.0, cx_px=320.0, cy_px=240.0, width_px=640, height_px=480
        )
        d["frames"]["total_frames"] = 241
    elif name != "sink":
        raise KeyError(name)
    return d


def _inside_box(p, prim) -> bool:
    return prim["type"] == "box" and all(
        lo <= v <= hi for v, lo, hi in zip(p, prim["min_m"], prim["max_m"])
    )


def jittered(d: dict, seed: int, k: int) -> dict:
    """Input ``k`` of a run: ``d`` with its object and place keypoints moved
    by whole voxels, drawn from (seed, k) only."""
    rng = random.Random(f"voxpick-bench:{seed}:{k}")
    voxel = d["grid"]["voxel_size_m"]
    out = copy.deepcopy(d)
    scene = out["scene"]
    for key in ("object_position_m", "place_target_m"):
        p = list(scene[key])
        for axis in (0, 1):
            p[axis] += rng.randint(-JITTER_VOXELS, JITTER_VOXELS) * voxel
        if any(_inside_box(p, prim) for prim in scene["primitives"]):
            raise ValueError(f"jittered {key} {p} lands inside an obstacle")
        scene[key] = p
    out["name"] = f"{d['name']}-{seed}-{k}"
    return out


def make_inputs(workload: str, seed: int, out_dir: str) -> list:
    """Write the run's inputs under ``out_dir`` and return their paths:
    scenario files for plan workloads, bundle directories for ``remask``."""
    voxpick = import_voxpick()
    from voxpick.pipeline import save_scenario, scenario_from_dict

    base = workload_dict(workload)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k in range(N_INPUTS):
        scenario = scenario_from_dict(jittered(base, seed, k))
        if WORKLOADS[workload]["op"] == "plan":
            path = os.path.join(out_dir, f"scenario_{k}.json")
            save_scenario(scenario, path)
        else:
            path = os.path.join(out_dir, f"bundle_{k}")
            voxpick.write_bundle(voxpick.run(scenario), path)
        paths.append(path)
    return paths


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    try:
        make_inputs(args.workload, args.seed, args.out)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
