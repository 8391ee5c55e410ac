"""Command line front end.

Subcommands:

* ``study``    run a convergence study from a JSON plan (plus overrides)
* ``validate`` check a plan without running it
* ``weights``  print convolution quadrature weights
* ``oracle``   deterministic linear cross-check against the exact
  Mittag-Leffler solution
* ``simulate`` run a single path, optionally dumping trajectory and
  noise increments as CSV

Exit code 0 on success; failures print one ``error: ...`` line on
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from fracch import harness
from fracch.fem1d import FeFunction, UniformMesh1D, l2_norm
from fracch.fracops import cq_weights
from fracch.noise import (
    NoiseSpec,
    increments_csv,
    path_stream,
    project_increments,
    sample_path,
)
from fracch.solver import SchemeConfig, run_path, trajectory_csv


def _write_text(dest: str, text: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    # every dest but config's is the ExperimentPlan field the flag sets
    p.add_argument("--config", help="JSON plan file; flags override its fields")
    p.add_argument("--study", choices=["temporal", "spatial"])
    p.add_argument("--case", choices=["a", "b"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=float, dest="decay_exponent",
                   help="mode variance decay exponent")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--resolutions", help="comma separated, e.g. 20,40,80,160")
    p.add_argument("--reference", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--mesh", type=int, dest="mesh_size",
                   help="fixed mesh size of temporal studies")
    p.add_argument("--steps", type=int, dest="num_steps",
                   help="fixed step count of spatial studies")
    p.add_argument("--modes", type=int, dest="num_modes")
    p.add_argument("--policy", choices=["abort", "drop"])
    p.add_argument("--workers", type=int)


def _plan_from_args(args) -> harness.ExperimentPlan:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise harness.ConfigError(f"{args.config} does not hold a JSON object")
    flags = dict(vars(args))
    if args.resolutions:
        flags["resolutions"] = [int(t) for t in args.resolutions.split(",")]
    overrides = {
        f.name: flags[f.name]
        for f in fields(harness.ExperimentPlan)
        if flags.get(f.name) is not None
    }
    # plan_from_json applies keys in order, so the flags, placed last,
    # also beat a file key that is an alias of the same field
    data = {k: v for k, v in data.items() if k not in overrides}
    return harness.plan_from_json({**data, **overrides})


def _cmd_study(args) -> int:
    plan = _plan_from_args(args)
    table = harness.run_study(plan)
    _write_text(args.out, harness.table_text(table))
    if table.dropped:
        print(f"dropped samples: {list(table.dropped)}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    plan = _plan_from_args(args)
    diags = harness.validate_config(plan)
    for d in diags:
        print(f"{d.level}: {d.message}")
    if any(d.level == "error" for d in diags):
        return 1
    if not diags:
        print("ok")
    return 0


def _cmd_weights(args) -> int:
    w = cq_weights(args.order, args.n)
    lines = ["j,weight"]
    lines += [f"{j},{wj:.17g}" for j, wj in enumerate(w.weights)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    table = harness.linear_oracle_table(
        alpha=args.alpha,
        epsilon=args.epsilon,
        mesh_size=args.mesh,
        resolutions=[int(t) for t in args.resolutions.split(",")],
        t_final=args.t_final,
    )
    _write_text(args.out, harness.table_text(table))
    return 0


def _cmd_simulate(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    if not (math.isfinite(args.t_final) and args.t_final > 0.0):
        raise ValueError(f"--t-final must be positive, got {args.t_final}")
    if args.dump_noise and args.no_noise:
        raise ValueError("--dump-noise needs noise (drop --no-noise)")
    mesh = UniformMesh1D(args.mesh)
    config = SchemeConfig(mesh=mesh, alpha=args.alpha, gamma=args.gamma, epsilon=args.epsilon,
                          tau=args.t_final / args.steps, num_steps=args.steps)
    track = None
    path = None
    if not args.no_noise:
        modes = args.modes if args.modes else args.mesh - 1
        spec = NoiseSpec(args.m, modes, args.t_final, args.steps)
        path = sample_path(spec, path_stream(args.seed, 0, 0))
        track = project_increments(path, mesh)
    hist = run_path(config, args.case, track)
    if args.dump_trajectory:
        _write_text(args.dump_trajectory, trajectory_csv(hist))
    if args.dump_noise:
        _write_text(args.dump_noise, increments_csv(path))
    iters = max(r.newton_iters for r in hist.reports)
    norm = l2_norm(FeFunction(mesh, hist.terminal))
    print(
        f"steps={config.num_steps} newton_max_iters={iters} "
        f"terminal_l2={norm:.6e} mass_drift={hist.max_mass_drift:.3e}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frac-ch",
        description="Convergence studies for a time-fractional stochastic "
        "Cahn-Hilliard solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("study", help="run a convergence study")
    _add_plan_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_study)

    p = sub.add_parser("validate", help="check a plan without running it")
    _add_plan_flags(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("weights", help="print convolution quadrature weights")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("oracle", help="linear cross-check vs exact solution")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--mesh", type=int, default=256)
    p.add_argument("--resolutions", default="20,40,80,160")
    p.add_argument("--t-final", type=float, default=0.01)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("simulate", help="run one path, dump CSVs")
    p.add_argument("--case", choices=["a", "b"], default="a")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--t-final", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--mesh", type=int, default=64)
    p.add_argument("--modes", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--dump-trajectory")
    p.add_argument("--dump-noise")
    p.set_defaults(fn=_cmd_simulate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
