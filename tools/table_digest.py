"""Print the byte-stable outputs of the study engine as one JSON document.

Usage, from the root of a checkout::

    python3 tools/table_digest.py > digest.json

Run it on two commits and compare the outputs with ``cmp``: a change that
must not move any number leaves them byte-identical.  The document holds

* ``table_text`` of the three ``perfbench`` workload plans at seed 2026,
  each with the total Newton iterations of its study, summed over every
  mesh, so a change that must keep the iterates can show that it did
  even where the last digits of a table move, the number of stacked
  Newton solves (``lockstep_iters``: one ``gbtrs`` call each, fewer than
  the iterations where meshes run in lockstep; the samples of a batch
  run in lockstep too, so one call solves for every sample and mesh of
  the batch) and the number of LU factorizations (``factorizations``:
  one ``gbtrf`` call each, one per stack plus one per refresh of the
  Newton matrix; a batch's stack factors once);
* ``table_text`` of three small plans (temporal, temporal with the
  resolution equal to the reference, spatial) at ``workers`` 1 and 2;
* ``table_text`` of the linear oracle table at alpha 0.5, and at the
  ``ORACLE_CASES`` below, whose exact solutions take the three routes
  of the Mittag-Leffler evaluation (z = -49.3 on the branch-cut
  integral, z = -0.39 on the series, and z = -4.93, inside the series
  range but on the integral, because the series would cancel there);
* a SHA-256 digest of the states and Newton residual traces of one path
  (mesh 8, tau 1e-3, alpha 0.3, gamma 0, eps 0.5, 131 steps, noise seed
  41, case "b") on which the line search halves the Newton step, which
  none of the workloads does, with that path's total and largest
  per-step Newton iteration counts, its numbers of solves and
  factorizations, each mesh's mass drift bound and the largest drift.
  A change that must move the residual traces (and so the digest) can
  still show that the Newton work did not change;
* the same digest and counts for the same path without phi on meshes 2,
  8 and 16 stacked in lockstep, where the cubic must act neither on the
  pseudo-elements joining two meshes nor anywhere else.

The fracch sources come from ``src/`` of the checkout the script sits in,
and BLAS is pinned to one thread so that its sums keep one order.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402

from fracch import harness, solver  # noqa: E402
from fracch.fem1d import UniformMesh1D  # noqa: E402
from fracch.noise import NoiseSpec, project_increments, sample_path  # noqa: E402
from fracch.solver import SchemeConfig, run_path  # noqa: E402

SEED = 2026
SMALL_TEMPORAL = {
    "study": "temporal", "case": "b", "alpha": 0.75, "gamma": 0.8, "m": 1.0,
    "t_final": 0.02, "resolutions": [4, 8], "reference": 16, "samples": 3,
    "seed": 5, "mesh_size": 16,
}
SMALL_PLANS = {
    "temporal": SMALL_TEMPORAL,
    "temporal_at_reference": dict(SMALL_TEMPORAL, resolutions=[16], samples=1),
    "spatial": {
        "study": "spatial", "case": "a", "alpha": 0.5, "gamma": 0.5, "m": 2.0,
        "t_final": 0.02, "resolutions": [4, 8], "reference": 16,
        "num_steps": 8, "samples": 2, "seed": 9,
    },
}

# (alpha, epsilon) of the extra linear oracle tables, t_final 0.01
ORACLE_CASES = ((0.75, 1.0), (0.5, 0.05), (0.25, 0.1))


def study_text(doc: dict) -> str:
    return harness.table_text(harness.run_study(harness.plan_from_json(doc)))


def counting_lapack(run) -> tuple:
    """``run()``'s result and its numbers of ``gbtrs`` solves and ``gbtrf``
    factorizations; it must run in this process."""
    counts = {"_gbtrs": 0, "_gbtrf": 0}
    real = {name: getattr(solver, name) for name in counts}

    def counted(name):
        def call(*args, **kwargs):
            counts[name] += 1
            return real[name](*args, **kwargs)
        return call

    for name in counts:
        setattr(solver, name, counted(name))
    try:
        return run(), counts["_gbtrs"], counts["_gbtrf"]
    finally:
        for name, fun in real.items():
            setattr(solver, name, fun)


def newton_iters_of_study(doc: dict) -> tuple:
    """The study's table text, the Newton iterations of all its meshes'
    steps and its numbers of stacked Newton solves and factorizations;
    the plan must run in this process (``workers`` 1)."""
    step, iters = solver.step, [0]

    def counting_step(hist, known):
        reports = step(hist, known)
        iters[0] += sum(report.newton_iters for report in reports)
        return reports

    solver.step = counting_step
    try:
        text, solves, factorizations = counting_lapack(lambda: study_text(doc))
    finally:
        solver.step = step
    return text, iters[0], solves, factorizations


def path_digest(name: str, sizes, include_phi: bool) -> dict:
    """SHA-256 of the states and residual traces of the halving path's
    settings on the meshes ``sizes`` in lockstep, its Newton totals, each
    mesh's mass drift bound and the largest drift."""
    tau, steps = 1e-3, 131
    spec = NoiseSpec(2.0, 15, tau * steps, steps)
    path = sample_path(spec, 41)
    configs = [
        SchemeConfig(mesh=UniformMesh1D(size), alpha=0.3, gamma=0.0, epsilon=0.5,
                     tau=tau, num_steps=steps, include_phi=include_phi)
        for size in sizes
    ]
    tracks = [project_increments(path, c.mesh) for c in configs]
    hist, solves, factorizations = counting_lapack(lambda: run_path(configs, "b", tracks))
    digest = hashlib.sha256(np.ascontiguousarray(hist.states_array()).tobytes())
    for report in hist.reports:
        digest.update(np.array(report.residual_trace).tobytes())
    iters = [report.newton_iters for report in hist.reports]
    return {
        f"{name}_sha256": digest.hexdigest(),
        f"{name}_newton_iters": sum(iters),
        f"{name}_max_newton_iters": max(iters),
        f"{name}_lockstep_iters": solves,
        f"{name}_factorizations": factorizations,
        f"{name}_mass_tol": [float(bound) for bound in hist.mass_tol],
        f"{name}_max_mass_drift": float(hist.max_mass_drift),
    }


def main() -> None:
    out = {}
    for name in sorted(WORKLOADS):
        doc = dict(WORKLOADS[name]["plan"], policy="drop", workers=1, seed=SEED)
        (
            out[f"workload/{name}"],
            out[f"workload/{name}/newton_iters"],
            out[f"workload/{name}/lockstep_iters"],
            out[f"workload/{name}/factorizations"],
        ) = newton_iters_of_study(doc)
    for name, doc in SMALL_PLANS.items():
        for workers in (1, 2):
            out[f"small/{name}/workers={workers}"] = study_text(dict(doc, workers=workers))
    out["linear_oracle"] = harness.table_text(harness.linear_oracle_table(alpha=0.5))
    for alpha, epsilon in ORACLE_CASES:
        table = harness.linear_oracle_table(alpha=alpha, epsilon=epsilon)
        out[f"linear_oracle/alpha={alpha},epsilon={epsilon}"] = harness.table_text(table)
    out.update(path_digest("halving_path", [8], include_phi=True))
    out.update(path_digest("phi_off_stack", [2, 8, 16], include_phi=False))
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
