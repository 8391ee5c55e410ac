"""Time a one-mesh path, a spatial sample and a sample stack on two checkouts.

Usage, from the root of a checkout::

    python3 tools/path_timing.py PARENT CHANGE [--pairs N] [--runs R]

PARENT and CHANGE are the roots of two checkouts.  Each pair starts one
fresh interpreter per side, with BLAS pinned to one thread, and the side
that goes first alternates from pair to pair.  Each process imports
fracch from its side's ``src/`` and times R runs of

* ``run_path`` on a temporal_rough-sized path: mesh 256, 1280 steps,
  alpha 0.75, gamma 0.8, eps 0.1, case "b" and the m = 1 track of
  sample 0 (a fixed seed), built before the clock starts;
* sample 0 of the spatial plan through the harness's sample driver:
  ``_batch(plan, [0])``, a batch of one;
* ``run_path`` on STACK copies of the first job's config, cut to its
  first STACK_STEPS steps, with the tracks of samples 0 to STACK - 1, in
  lockstep (on one shared LU where the solver shares it); its time is
  reported per sample (the run's time over STACK),

the plans read from ``perfbench/run.py`` ``WORKLOADS`` of the checkout
this script sits in, so both sides run the same workload.  It prints
each process's minima, then per workload the median of the minima of
each side, the pairs in which CHANGE was faster, and the spread between
the quartiles of PARENT's minima.  Each process also runs every member of
the stack alone, once, and reports how many of the STACK members have
their own run's states and Newton reports bit for bit.

Run with the same checkout on both sides, it reads the noise floor: a
difference between two checkouts means something only where it is
larger than that spread, and where CHANGE wins clearly more pairs than
an A/A run does.  The minimum of a process is used because the load of a
shared machine only ever adds time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
JOBS = ("path", "sample", "stack")
STACK, STACK_STEPS = 16, 320
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child(src: str, runs: int) -> None:
    """Time the jobs with fracch from ``src``; print their minima and the
    number of stack members bit-identical to their own runs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS as PLANS

    sys.path.insert(0, src)
    from fracch import harness
    from fracch.fem1d import UniformMesh1D
    from fracch.noise import NoiseSpec, path_stream, project_increments, sample_path
    from fracch.solver import SchemeConfig, run_path

    rough = harness.plan_from_json(dict(PLANS["temporal_rough"]["plan"], workers=1))
    spatial = harness.plan_from_json(dict(PLANS["spatial"]["plan"], workers=1))
    mesh, steps = UniformMesh1D(rough.mesh_size), rough.reference
    config = SchemeConfig(mesh=mesh, alpha=rough.alpha, gamma=rough.gamma,
                          epsilon=rough.resolved_epsilon, tau=rough.t_final / steps,
                          num_steps=steps)
    spec = NoiseSpec(rough.decay_exponent, rough.resolved_modes, rough.t_final, steps)
    tracks = [
        project_increments(sample_path(spec, path_stream(rough.master_seed, rough.row_key, k)),
                           mesh)
        for k in range(STACK)
    ]
    short = replace(config, num_steps=STACK_STEPS)
    jobs = {
        "path": lambda: run_path(config, rough.case, tracks[0]),
        "sample": lambda: harness._batch(spatial, [0]),
        "stack": lambda: run_path([short] * STACK, rough.case, tracks),
    }
    best = {}
    for name, job in jobs.items():
        job()  # warm caches and lazy imports
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            job()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    best["stack"] /= STACK
    stack = jobs["stack"]()
    best["identical"] = 0
    for k, track in enumerate(tracks):
        alone = run_path(short, rough.case, track)
        best["identical"] += bool(
            np.array_equal(stack.states_array()[:, stack.workspace.nodes[k]],
                           alone.states_array())
            and stack.reports[k::STACK] == alone.reports
        )
    print(json.dumps(best))


def timed(root: Path, runs: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root / "src"), "--runs", str(runs)],
        capture_output=True, text=True, env=dict(os.environ, **THREADS),
    )
    if proc.returncode:
        sys.exit(f"timing {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.runs)
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.pairs < 2 or args.runs < 1:
        parser.error("--pairs must be >= 2 and --runs >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    minima = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            minima[side].append(timed(sides[side], args.runs))
        print(f"pair {pair + 1} ({order[0]} first): " + "  ".join(
            f"{name} {minima['parent'][-1][name]:.4f} / {minima['change'][-1][name]:.4f} s"
            for name in JOBS
        ), flush=True)
    for name in JOBS:
        parent = [m[name] for m in minima["parent"]]
        change = [m[name] for m in minima["change"]]
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        won = sum(c < p for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        print(f"{name}: median of minima {mid_p:.4f} -> {mid_c:.4f} s "
              f"({(mid_c / mid_p - 1) * 100:+.1f}%), change faster in {won} of "
              f"{args.pairs} pairs, parent quartile spread {q3 - q1:.4f} s")
    print("stack members bit-identical to their own runs: " + ", ".join(
        f"{side} {sorted({m['identical'] for m in minima[side]})} of {STACK}" for side in sides
    ))


if __name__ == "__main__":
    main()
