"""Time-to-table benchmark of ``fracch.harness.run_study``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload temporal_smooth --seed 2026 --seconds 30 --trace 0

Each workload is one row of the paper's study (criteria 5, 6 and 7 of the
acceptance suite) at a reduced sample count.  The run is single-process
(``workers=1``) with BLAS pinned to one thread.  It repeats the same study
until ``--seconds`` have passed (at least ``MIN_REPS`` times), checks the
error table of every repetition, and reports medians.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
``SETUP_RUNS`` fresh interpreters), study wall time, peak RSS and the
share of samples that completed.  ``--trace 1`` alternates untraced and
traced repetitions (see ``tracer.py``) and reports
the per-layer metrics plus the tracing overhead; the spans go to
``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (environment, plan, tables, failure reasons).
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import TARGETS, Tracer  # noqa: E402

_TEMPORAL = {
    "study": "temporal",
    "t_final": 0.01,
    "mesh_size": 256,
    "reference": 1280,
    "resolutions": [20, 40, 80, 160],
}

# Plans of acceptance criteria 5, 6 and 7 with fewer samples.  ``monotone``
# says whether the errors of a study this small decrease with resolution
# for every seed: with one sample of smooth noise (criterion 5) the
# single-path temporal error is not monotone (seeds 1 and 5 are not), so
# only the recorded table and the other invariants guard that row.
WORKLOADS = {
    "temporal_smooth": {
        "plan": dict(_TEMPORAL, case="a", alpha=0.5, gamma=0.5, m=2.0, samples=1),
        "monotone": False,
    },
    "temporal_rough": {
        "plan": dict(
            _TEMPORAL, case="b", alpha=0.75, gamma=0.8, m=1.0, epsilon=0.1, samples=1
        ),
        "monotone": True,
    },
    "spatial": {
        "plan": {
            "study": "spatial",
            "case": "a",
            "alpha": 0.5,
            "gamma": 0.6,
            "m": 1.0,
            "t_final": 0.01,
            "reference": 640,
            "resolutions": [20, 40, 80, 160],
            "num_steps": 256,
            "samples": 2,
        },
        "monotone": True,
    },
}
COMMON = {"policy": "drop", "workers": 1}

DEFAULT_SEED = 2026
TABLES = HERE / "tables.json"
# Relative tolerance on each recorded error, measured at the default seed.
# Solving to a tighter newton_tol (1e-12 against the plans' 1e-10) moves
# the errors by up to 1.1e-5 (temporal_rough; spatial 9.6e-6).  Dropping
# the oldest term of the lagged history sum moves them by at least 1.1e-4
# (spatial; 3.7e-3 and 0.77 on the temporal rows), and dropping the newest
# by more than 0.5.
RTOL = 3e-5

MIN_REPS = 3
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fracch\n"
    "from fracch.harness import ensure_valid, plan_from_json\n"
    "ensure_valid(plan_from_json(sys.argv[2]))\n"
    "print('ready', flush=True)\n"
)

# the O(N^2) memory terms, and the work done once per Newton iteration
MEMORY_LAYERS = ("solver.history_rhs", "noise.frac_integrated_noise")
ITERATION_LAYERS = ("fem1d.nonlinear_load", "fem1d.nonlinear_jacobian", "solver.solve_banded")

END_TO_END_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}


def plan_document(workload: str, seed: int) -> dict:
    return dict(WORKLOADS[workload]["plan"], **COMMON, seed=seed)


def one_line(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return " ".join(text.split())[:300]


def measure_setup(plan_json: str) -> list:
    """Seconds from interpreter start to a validated plan, per fresh process.

    The first process only warms the file cache and bytecode and is not
    counted.
    """
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), plan_json],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = child.communicate()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed: {err.strip()[-300:]}")
        if k:
            times.append(elapsed)
    return times


def study_once(harness, plan, traced: bool) -> dict:
    """One timed run_study; an escaping exception becomes a reason."""
    rep = {"s": None, "table": None, "error": None, "tracer": None}
    with Tracer() if traced else contextlib.nullcontext() as tracer:
        start = time.perf_counter()
        try:
            table = harness.run_study(plan)
        except Exception as exc:  # the benchmark reports it and goes on
            traceback.print_exc(file=sys.stderr)
            rep["error"] = one_line(exc)
            table = None
        rep["s"] = time.perf_counter() - start
    rep["table"] = table
    rep["tracer"] = tracer
    return rep


def study_reps(harness, plan, seconds: float, modes: tuple) -> list:
    """Repeat the study, cycling through ``modes`` (traced or not), until
    ``seconds`` have passed and each mode has run ``MIN_REPS`` times.
    Alternating the modes exposes both to the same machine load."""
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        reps.append(study_once(harness, plan, modes[len(reps) % len(modes)]))
        if reps[-1]["error"]:
            break  # the plan is deterministic: a repeat fails the same way
        if (
            len(reps) >= MIN_REPS * len(modes)
            and len(reps) % len(modes) == 0
            and time.perf_counter() >= deadline
        ):
            break
    return reps


def load_recorded() -> dict:
    with open(TABLES, encoding="ascii") as fh:
        return json.load(fh)


def check_table(workload: str, seed: int, table, recorded: dict) -> list:
    """Problems with one study's table; an empty list means it passed.

    At the recorded seed every error must match the recorded one to RTOL.
    At any seed the errors must be finite and positive with no sample
    dropped, and at other seeds they must decrease with resolution where
    the workload is ``monotone``.  Mass drift above 1e-10 (1 + |U^0|)
    makes run_path raise, which counts as a failure; traced runs also
    check every path's drift themselves (``check_drift``).
    """
    problems = []
    plan = WORKLOADS[workload]["plan"]
    errors = list(table.errors)
    if tuple(table.dropped):
        problems.append(f"dropped samples {tuple(table.dropped)}")
    if not all(math.isfinite(e) and e > 0.0 for e in errors):
        problems.append(f"non-finite or non-positive errors {errors}")
    entry = recorded.get(workload)
    if entry is not None and entry["seed"] == seed and entry["samples"] == plan["samples"]:
        want = entry["errors"]
        if len(want) != len(errors) or any(
            not abs(e - w) <= RTOL * abs(w) for e, w in zip(errors, want)
        ):
            problems.append(f"errors {errors} differ from recorded {want} (rtol {RTOL})")
    elif WORKLOADS[workload]["monotone"] and not all(
        a > b for a, b in zip(errors, errors[1:])
    ):
        problems.append(f"errors do not decrease with resolution: {errors}")
    return problems


def check_drift(tracer: Tracer) -> list:
    """Mass drift of every traced path against run_path's own bound.

    A drift or bound the history no longer exposes reads as NaN and is
    skipped; a non-finite solution already fails the table check.
    """
    return [
        f"mass drift {drift:.3e} above {bound:.3e}"
        for _, _, drift, bound in tracer.paths
        if drift > bound
    ]


def check_reps(workload, seed, reps, recorded) -> tuple:
    """(problems, reasons): table checks across all reps, escaped errors."""
    problems, reasons, checked = [], [], set()
    for rep in reps:
        if rep["error"]:
            reasons.append(rep["error"])
            continue
        if rep["text"] not in checked:
            checked.add(rep["text"])
            problems += check_table(workload, seed, rep["table"], recorded)
        if rep["tracer"] is not None:
            problems += check_drift(rep["tracer"])
    if len(checked) > 1:
        problems.append(f"{len(checked)} different tables from one plan")
    return sorted(set(problems)), sorted(set(reasons))


def account(plan, reps, problems) -> tuple:
    """(attempted, failed) samples: dropped ones, every sample of a study
    that raised, and every sample of the run if a check failed."""
    attempted = plan.samples * len(reps)
    if problems:
        return attempted, attempted
    failed = 0
    for rep in reps:
        if rep["error"]:
            failed += plan.samples
        else:
            failed += len(rep["table"].dropped)
    return attempted, failed


def layer_metrics(traced: list, untraced_s: float) -> dict:
    """Per-layer metrics, each the median over the traced repetitions."""
    per_rep = []
    for rep in traced:
        tracer = rep["tracer"]
        summary = tracer.summary()
        m = {}
        for name, _, _, kind in TARGETS:
            if kind == "span":
                m[f"{name}.s"] = (summary[name]["s"], "s")
            if kind != "sample":
                m[f"{name}.calls"] = (summary[name]["calls"], "count")
        m["solver.step.self_s"] = (summary["solver.step"]["self_s"], "s")
        m["harness.self_s"] = (summary["harness.run_study"]["self_s"], "s")
        iters = sum(p[0] for p in tracer.paths)
        steps = sum(p[1] for p in tracer.paths)
        m["solver.newton_iters"] = (iters, "count")
        m["solver.newton_iters_per_step"] = (iters / steps if steps else 0.0, "iters/step")
        m["solver.max_mass_drift"] = (max((p[2] for p in tracer.paths), default=0.0), "mass")
        memory = sum(summary[n]["s"] for n in MEMORY_LAYERS)
        iteration = sum(summary[n]["s"] for n in ITERATION_LAYERS)
        m["layers.memory_share"] = (memory / rep["s"], "share")
        m["layers.iteration_share"] = (iteration / rep["s"], "share")
        per_rep.append(m)
    out = {
        name: {"value": statistics.median(r[name][0] for r in per_rep), "unit": unit}
        for name, (_, unit) in per_rep[0].items()
    }
    traced_s = statistics.median(rep["s"] for rep in traced)
    out["trace.overhead"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
    return out


def write_spans(workload: str, seed: int, traced: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="ascii") as fh:
        for k, rep in enumerate(traced):
            for span in rep["tracer"].spans:
                fh.write(json.dumps([k, *span]) + "\n")
    return path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracch" / "__init__.py").is_file():
        print(f"error: no fracch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracch
    from fracch import harness

    if not Path(fracch.__file__).resolve().is_relative_to(SRC):
        print(f"error: fracch imported from {fracch.__file__}", file=sys.stderr)
        return 2

    doc = plan_document(args.workload, args.seed)
    plan_json = json.dumps(doc)
    plan = harness.plan_from_json(plan_json)
    harness.ensure_valid(plan)
    recorded = load_recorded()

    metrics = {}
    record = {
        "workload": args.workload,
        "plan": doc,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
    }
    if args.trace:
        reps = study_reps(harness, plan, args.seconds, modes=(False, True))
    else:
        setup = measure_setup(plan_json)
        record["setup_runs_s"] = setup
        reps = study_reps(harness, plan, args.seconds, modes=(False,))
    untraced = [rep for rep in reps if rep["tracer"] is None]
    traced = [rep for rep in reps if rep["tracer"] is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    for rep in reps:
        rep["text"] = harness.table_text(rep["table"]) if rep["table"] else None
    problems, reasons = check_reps(args.workload, args.seed, reps, recorded)
    attempted, failed = account(plan, reps, problems)
    untraced_s = statistics.median(rep["s"] for rep in untraced)

    if args.trace:
        record["absent"] = traced[0]["tracer"].absent if traced else []
        finished = [rep for rep in traced if not rep["error"]]
        if finished:
            metrics = layer_metrics(finished, untraced_s)
            spans = write_spans(args.workload, args.seed, finished)
            record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "study_s": untraced_s,
            "peak_rss_mb": peak_rss_mb,
            "completed_share": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    record["study_runs_s"] = [rep["s"] for rep in untraced]
    record["traced_runs_s"] = [rep["s"] for rep in traced]
    record["table"] = next((rep["text"] for rep in reps if rep["text"]), None)
    record["problems"] = problems
    record["failure_reasons"] = reasons
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    for line in problems + reasons:
        print(f"FAILED: {line}")
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems and not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
