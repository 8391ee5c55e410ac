"""Print the byte-stable outputs of the study engine as one JSON document.

Usage, from the root of a checkout::

    python3 tools/table_digest.py > digest.json

Run it on two commits and compare the outputs with ``cmp``: a change that
must not move any number leaves them byte-identical.  The document holds

* ``table_text`` of the three ``perfbench`` workload plans at seed 2026;
* ``table_text`` of three small plans (temporal, temporal with the
  resolution equal to the reference, spatial) at ``workers`` 1 and 2;
* ``table_text`` of the linear oracle table;
* a SHA-256 digest of the states and Newton residual traces of one path
  (mesh 8, tau 1e-3, alpha 0.3, gamma 0, eps 0.5, 131 steps, noise seed
  41, case "b") on which the line search halves the Newton step, which
  none of the workloads does.

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

from fracch import harness  # noqa: E402
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


def study_text(doc: dict) -> str:
    return harness.table_text(harness.run_study(harness.plan_from_json(doc)))


def halving_path_digest() -> str:
    mesh = UniformMesh1D(8)
    tau, steps = 1e-3, 131
    spec = NoiseSpec(2.0, 15, tau * steps, steps)
    track = project_increments(sample_path(spec, 41), mesh)
    config = SchemeConfig(mesh=mesh, alpha=0.3, gamma=0.0, epsilon=0.5,
                          tau=tau, num_steps=steps)
    hist = run_path(config, "b", track)
    digest = hashlib.sha256(np.ascontiguousarray(hist.states_array()).tobytes())
    for report in hist.reports:
        digest.update(np.array(report.residual_trace).tobytes())
    return digest.hexdigest()


def main() -> None:
    out = {}
    for name in sorted(WORKLOADS):
        doc = dict(WORKLOADS[name]["plan"], policy="drop", workers=1, seed=SEED)
        out[f"workload/{name}"] = study_text(doc)
    for name, doc in SMALL_PLANS.items():
        for workers in (1, 2):
            out[f"small/{name}/workers={workers}"] = study_text(dict(doc, workers=workers))
    out["linear_oracle"] = harness.table_text(harness.linear_oracle_table(alpha=0.5))
    out["halving_path_sha256"] = halving_path_digest()
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
