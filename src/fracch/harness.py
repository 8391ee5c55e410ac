"""Monte Carlo convergence studies and rate bookkeeping.

A study runs the solver over many independent noise paths at several
resolutions against a common-path reference solution, aggregates the
terminal errors in the root-mean-square sense over samples, and fits
convergence rates.  Temporal sweeps coarsen one fine increment matrix,
so every resolution sees the same Brownian path; spatial sweeps share
the mode-space increments across nested meshes and compare after nodal
injection into the reference space.

Theoretical exponents follow the strong error analysis of the scheme:
for noise regularity beta the spatial order is min(2, beta) - r and the
temporal order at fixed final time is min(mu, zeta, 1), where

    eta   = alpha (1 + beta) / 4 + gamma - 1/2
    sigma = eta + alpha / 4,   mu = min(sigma, 1)
    xi    = alpha + gamma - 1/2,   zeta = min(xi, 1)

and r > 0 only when gamma is too small to compensate rough noise.  The
strict uniform-in-time temporal exponent min(alpha/2, mu, zeta) is
computed alongside; at fixed final time the alpha/2 term does not bind.
"""

from __future__ import annotations

import json
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields
from io import StringIO

import numpy as np

from fracch.fem1d import FeFunction, UniformMesh1D, l2_norm
from fracch.mlf import SpectralState, case_b_modes, spectral_linear_solution, synthesize_modes
from fracch.noise import (
    NoiseSpec,
    coarsen,
    path_stream,
    project_increments,
    sample_path,
)
from fracch.solver import (
    MassDriftError,
    NewtonDivergence,
    SchemeConfig,
    initial_state,
    run_path,
)


class ConfigError(ValueError):
    """A plan failed validation."""


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    message: str


@dataclass(frozen=True)
class RateSummary:
    """Predicted convergence exponents and their ingredients."""

    spatial: float
    temporal: float
    temporal_fixed_time: float
    eta: float
    sigma: float
    mu: float
    xi: float
    zeta: float
    reduction: float


def theoretical_rate(alpha: float, gamma: float, beta: float) -> RateSummary:
    """Predicted spatial and temporal orders for noise regularity beta.

    The spatial reduction r is positive only when the fractional noise
    integral is too weak for the given regularity: for beta <= 2 when
    gamma + alpha/2 < 1/2, for beta > 2 when gamma + alpha*beta/4 < 1/2.
    At the threshold the analysis loses an arbitrarily small epsilon,
    which is reported as 0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not 1.0 <= beta <= 3.0:
        raise ValueError(f"beta must be in [1, 3], got {beta}")
    eta = alpha * (1.0 + beta) / 4.0 + gamma - 0.5
    sigma = eta + alpha / 4.0
    mu = min(sigma, 1.0)
    xi = alpha + gamma - 0.5
    zeta = min(xi, 1.0)
    if beta <= 2.0:
        reduction = max(0.0, (4.0 / alpha) * ((1.0 - alpha) / 2.0 - gamma))
    else:
        reduction = max(0.0, (4.0 / alpha) * ((2.0 - alpha * beta) / 4.0 - gamma))
    return RateSummary(
        spatial=min(2.0, beta) - reduction,
        temporal=min(alpha / 2.0, mu, zeta),
        temporal_fixed_time=min(mu, zeta, 1.0),
        eta=eta,
        sigma=sigma,
        mu=mu,
        xi=xi,
        zeta=zeta,
        reduction=reduction,
    )


def nominal_regularity(decay_exponent: float) -> float:
    """Noise regularity implied by the variance decay gamma_j = j^{-m}."""
    return min((decay_exponent + 3.0) / 2.0, 3.0)


def effective_regularity(decay_exponent: float) -> float:
    """nominal_regularity backed off by 0.01; the trace condition is
    strict, so the nominal value itself is just outside the admissible
    range."""
    return min((decay_exponent + 3.0) / 2.0 - 0.01, 3.0)


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one convergence study."""

    study: str = "temporal"
    case: str = "a"
    alpha: float = 0.5
    gamma: float = 0.5
    decay_exponent: float = 2.0
    epsilon: float | None = None
    t_final: float = 0.01
    resolutions: tuple = (20, 40, 80, 160)
    reference: int = 1280
    samples: int = 100
    master_seed: int = 2026
    mesh_size: int = 256
    num_steps: int = 256
    num_modes: int | None = None
    newton_tol: float = 1e-10
    newton_max: int = 50
    policy: str = "abort"
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "resolutions", tuple(int(r) for r in self.resolutions)
        )

    @property
    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return 1.0 if self.case == "a" else 0.1

    @property
    def resolved_modes(self) -> int:
        if self.num_modes is not None:
            return self.num_modes
        if self.study == "spatial":
            return (min(self.resolutions) - 1) if self.resolutions else 1
        return self.mesh_size - 1

    @property
    def row_key(self) -> int:
        """Stable key for the per-path RNG streams of this study row."""
        parts = [
            self.study,
            self.case,
            f"alpha={self.alpha!r}",
            f"gamma={self.gamma!r}",
            f"m={self.decay_exponent!r}",
            f"eps={self.resolved_epsilon!r}",
            f"T={self.t_final!r}",
            f"ref={self.reference}",
            "res=" + ",".join(str(r) for r in self.resolutions),
            f"mesh={self.mesh_size}",
            f"steps={self.num_steps}",
            f"modes={self.resolved_modes}",
        ]
        return zlib.crc32("|".join(parts).encode("ascii"))


_PLAN_ALIASES = {"m": "decay_exponent", "seed": "master_seed", "T": "t_final"}


def plan_from_json(source) -> ExperimentPlan:
    """Build a plan from a JSON document, dict, or file-like object."""
    if isinstance(source, ExperimentPlan):
        return source
    if isinstance(source, dict):
        data = dict(source)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = json.loads(source)
    known = {f.name for f in fields(ExperimentPlan)}
    kwargs = {}
    for key, value in data.items():
        name = _PLAN_ALIASES.get(key, key)
        if name not in known:
            raise ConfigError(f"unknown config field {key!r}")
        kwargs[name] = value
    return ExperimentPlan(**kwargs)


def validate_config(plan: ExperimentPlan) -> list:
    """Range, divisibility and Newton checks; returns diagnostics.

    Violated hard constraints come back level "error"; a non-positive
    moment exponent eta (theory not applicable) is a warning only.
    """
    out: list[Diagnostic] = []

    def err(msg):
        out.append(Diagnostic("error", msg))

    if plan.study not in ("temporal", "spatial"):
        err(f"study must be temporal or spatial, got {plan.study!r}")
    if plan.case not in ("a", "b"):
        err(f"case must be a or b, got {plan.case!r}")
    if not 0.0 < plan.alpha <= 1.0:
        err(f"alpha must be in (0, 1], got {plan.alpha}")
    if not 0.0 <= plan.gamma <= 1.0:
        err(f"gamma must be in [0, 1], got {plan.gamma}")
    if plan.decay_exponent < 0.0:
        err(f"m must be >= 0, got {plan.decay_exponent}")
    if plan.epsilon is not None and plan.epsilon <= 0.0:
        err(f"epsilon must be positive, got {plan.epsilon}")
    if plan.t_final <= 0.0:
        err(f"t_final must be positive, got {plan.t_final}")
    if plan.samples < 1:
        err(f"samples must be >= 1, got {plan.samples}")
    if not plan.resolutions:
        err("resolutions must be nonempty")
    elif list(plan.resolutions) != sorted(set(plan.resolutions)):
        err(f"resolutions must be strictly increasing, got {plan.resolutions}")
    if plan.reference < 1:
        err(f"reference must be >= 1, got {plan.reference}")
    if plan.num_modes is not None and plan.num_modes < 1:
        err(f"num_modes must be >= 1, got {plan.num_modes}")
    if plan.policy not in ("abort", "drop"):
        err(f"policy must be abort or drop, got {plan.policy!r}")
    if plan.workers < 1:
        err(f"workers must be >= 1, got {plan.workers}")
    if plan.newton_tol <= 0.0:
        err(f"newton_tol must be positive, got {plan.newton_tol}")
    if plan.newton_max < 1:
        err(f"newton_max must be >= 1, got {plan.newton_max}")

    if plan.study == "temporal":
        if plan.mesh_size < 2:
            err(f"mesh_size must be >= 2, got {plan.mesh_size}")
        for n in plan.resolutions:
            if n < 1:
                err(f"temporal resolution must be >= 1, got {n}")
            elif plan.reference % n != 0:
                err(f"resolution {n} does not divide reference {plan.reference}")
    elif plan.study == "spatial":
        if plan.num_steps < 1:
            err(f"num_steps must be >= 1, got {plan.num_steps}")
        for m_sz in plan.resolutions:
            if m_sz < 2:
                err(f"spatial resolution must be >= 2, got {m_sz}")
            elif plan.reference % m_sz != 0:
                err(f"mesh {m_sz} is not nested in reference {plan.reference}")

    if not any(d.level == "error" for d in out):
        beta = effective_regularity(plan.decay_exponent)
        summary = theoretical_rate(plan.alpha, plan.gamma, min(max(beta, 1.0), 3.0))
        if summary.eta <= 0.0:
            out.append(
                Diagnostic(
                    "warning",
                    f"eta = {summary.eta:.3f} <= 0 at effective regularity "
                    f"beta = {beta:.2f}; the convergence theory does not "
                    f"cover this configuration",
                )
            )
    return out


def ensure_valid(plan: ExperimentPlan) -> list:
    """validate_config, raising ConfigError on any error-level finding."""
    diags = validate_config(plan)
    problems = [d.message for d in diags if d.level == "error"]
    if problems:
        raise ConfigError("; ".join(problems))
    return diags


@dataclass(frozen=True)
class ErrorTable:
    """One study row: RMS errors per resolution plus fitted rates."""

    resolutions: tuple
    errors: tuple
    pairwise_rates: tuple
    fitted_rate: float
    theoretical_rate: float
    samples: int = 0
    dropped: tuple = ()


def error_norm(errors) -> float:
    """Root-mean-square of the spatial L2 norms of the sample errors."""
    errors = list(errors)
    if not errors:
        raise ValueError("empty sample set")
    sq = [l2_norm(e) ** 2 for e in errors]
    return float(np.sqrt(np.mean(sq)))


def _rms_columns(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(np.square(rows), axis=0))


def fit_rate(resolutions, errors) -> float:
    """Least-squares slope of log error against log resolution, negated."""
    x = np.log(np.asarray(resolutions, dtype=float))
    y = np.asarray(errors, dtype=float)
    if len(x) < 2 or np.any(y <= 0.0):
        return float("nan")
    slope = np.polyfit(x, np.log(y), 1)[0]
    return float(-slope)


def pairwise_rates(resolutions, errors) -> tuple:
    out = []
    for k in range(1, len(errors)):
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.log(errors[k - 1] / errors[k])
            den = np.log(resolutions[k] / resolutions[k - 1])
        out.append(float(num / den))
    return tuple(out)


def _solve_terminal(config, case, track, context):
    try:
        return run_path(config, case, track).terminal
    except NewtonDivergence as exc:
        raise NewtonDivergence(exc.step_index, exc.residuals, context=context) from exc


def _temporal_sample(plan: ExperimentPlan, index: int):
    """Terminal errors of one sample against its own fine reference."""
    mesh = UniformMesh1D(plan.mesh_size)
    spec = NoiseSpec(
        plan.decay_exponent, plan.resolved_modes, plan.t_final, plan.reference
    )
    path = sample_path(spec, path_stream(plan.master_seed, plan.row_key, index))
    eps = plan.resolved_epsilon

    def config(n):
        return SchemeConfig(
            mesh=mesh,
            alpha=plan.alpha,
            gamma=plan.gamma,
            epsilon=eps,
            tau=plan.t_final / n,
            num_steps=n,
            newton_tol=plan.newton_tol,
            newton_max=plan.newton_max,
        )

    try:
        ref = _solve_terminal(
            config(plan.reference),
            plan.case,
            project_increments(path, mesh),
            f"sample {index}, reference {plan.reference}",
        )
        norms = []
        for n in plan.resolutions:
            track = project_increments(coarsen(path, plan.reference // n), mesh)
            term = _solve_terminal(
                config(n), plan.case, track, f"sample {index}, resolution {n}"
            )
            norms.append(l2_norm(FeFunction(mesh, term - ref)))
        return np.array(norms)
    except (NewtonDivergence, MassDriftError):
        if plan.policy == "drop":
            return None
        raise


def _spatial_sample(plan: ExperimentPlan, index: int):
    """Terminal errors of one sample on each mesh against the fine mesh."""
    spec = NoiseSpec(
        plan.decay_exponent, plan.resolved_modes, plan.t_final, plan.num_steps
    )
    path = sample_path(spec, path_stream(plan.master_seed, plan.row_key, index))
    eps = plan.resolved_epsilon
    tau = plan.t_final / plan.num_steps

    def config(mesh):
        return SchemeConfig(
            mesh=mesh,
            alpha=plan.alpha,
            gamma=plan.gamma,
            epsilon=eps,
            tau=tau,
            num_steps=plan.num_steps,
            newton_tol=plan.newton_tol,
            newton_max=plan.newton_max,
        )

    mesh_ref = UniformMesh1D(plan.reference)
    try:
        ref = _solve_terminal(
            config(mesh_ref),
            plan.case,
            project_increments(path, mesh_ref),
            f"sample {index}, reference mesh {plan.reference}",
        )
        x_ref = mesh_ref.nodes()
        norms = []
        for m_sz in plan.resolutions:
            mesh = UniformMesh1D(m_sz)
            term = _solve_terminal(
                config(mesh),
                plan.case,
                project_increments(path, mesh),
                f"sample {index}, mesh {m_sz}",
            )
            injected = np.interp(x_ref, mesh.nodes(), term)
            norms.append(l2_norm(FeFunction(mesh_ref, injected - ref)))
        return np.array(norms)
    except (NewtonDivergence, MassDriftError):
        if plan.policy == "drop":
            return None
        raise


def _collect(plan: ExperimentPlan, worker) -> tuple:
    """Run the per-sample worker over all indices; deterministic order."""
    results = {}
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            futures = {
                pool.submit(worker, plan, s): s for s in range(plan.samples)
            }
            for fut in as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for s in range(plan.samples):
            results[s] = worker(plan, s)
    kept = [results[s] for s in sorted(results) if results[s] is not None]
    dropped = tuple(s for s in sorted(results) if results[s] is None)
    if not kept:
        raise RuntimeError("every sample path was dropped")
    return np.vstack(kept), dropped


def _finish_table(plan: ExperimentPlan, rows: np.ndarray, dropped) -> ErrorTable:
    errs = _rms_columns(rows)
    beta = nominal_regularity(plan.decay_exponent)
    summary = theoretical_rate(plan.alpha, plan.gamma, beta)
    display = (
        summary.spatial if plan.study == "spatial" else summary.temporal_fixed_time
    )
    return ErrorTable(
        resolutions=tuple(plan.resolutions),
        errors=tuple(float(e) for e in errs),
        pairwise_rates=pairwise_rates(plan.resolutions, errs),
        fitted_rate=fit_rate(plan.resolutions, errs),
        theoretical_rate=display,
        samples=rows.shape[0],
        dropped=dropped,
    )


def run_temporal_study(plan: ExperimentPlan) -> ErrorTable:
    if plan.study != "temporal":
        raise ConfigError(f"plan.study is {plan.study!r}, expected temporal")
    ensure_valid(plan)
    rows, dropped = _collect(plan, _temporal_sample)
    return _finish_table(plan, rows, dropped)


def run_spatial_study(plan: ExperimentPlan) -> ErrorTable:
    if plan.study != "spatial":
        raise ConfigError(f"plan.study is {plan.study!r}, expected spatial")
    ensure_valid(plan)
    rows, dropped = _collect(plan, _spatial_sample)
    return _finish_table(plan, rows, dropped)


def run_study(plan: ExperimentPlan) -> ErrorTable:
    if plan.study == "spatial":
        return run_spatial_study(plan)
    return run_temporal_study(plan)


def emit_table(table: ErrorTable, dest) -> None:
    """Write the fixed CSV layout; refuses to write an empty table.

    Header ``resolution,error,pairwise_rate``, one line per resolution
    (first pairwise slot empty), then exactly two footer lines with the
    fitted and theoretical rates.  Full float precision keeps reruns
    byte-identical.
    """
    if not table.errors:
        raise ValueError("refusing to write an empty table")
    lines = ["resolution,error,pairwise_rate"]
    for k, (res, err) in enumerate(zip(table.resolutions, table.errors)):
        rate = "" if k == 0 else f"{table.pairwise_rates[k - 1]:.17g}"
        lines.append(f"{res},{err:.17g},{rate}")
    lines.append(f"fitted_rate,{table.fitted_rate:.17g},")
    lines.append(f"theoretical_rate,{table.theoretical_rate:.17g},")
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)


def read_table(source) -> ErrorTable:
    """Parse a file produced by emit_table."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "resolution,error,pairwise_rate":
        raise ValueError("not an error-table file")
    resolutions, errors, pw = [], [], []
    fitted = theory = float("nan")
    for ln in lines[1:]:
        first, second, third = ln.split(",")
        if first == "fitted_rate":
            fitted = float(second)
        elif first == "theoretical_rate":
            theory = float(second)
        else:
            resolutions.append(int(first))
            errors.append(float(second))
            if third:
                pw.append(float(third))
    return ErrorTable(
        resolutions=tuple(resolutions),
        errors=tuple(errors),
        pairwise_rates=tuple(pw),
        fitted_rate=fitted,
        theoretical_rate=theory,
    )


def table_text(table: ErrorTable) -> str:
    buf = StringIO()
    emit_table(table, buf)
    return buf.getvalue()


def linear_oracle_table(
    alpha: float,
    epsilon: float = 1.0,
    mesh_size: int = 256,
    resolutions=(20, 40, 80, 160),
    t_final: float = 0.01,
    num_modes: int = 64,
) -> ErrorTable:
    """Deterministic cross-check of the stepper against the exact
    eigenfunction expansion of the linear problem (phi and noise off,
    cosine initial datum).

    First-order temporal convergence of the terminal error is the
    expected outcome; the spatial projection error is shared by both
    sides and cancels to leading order.
    """
    mesh = UniformMesh1D(mesh_size)
    state = SpectralState(alpha=alpha, epsilon=epsilon, modes=case_b_modes(num_modes))
    exact_nodes = synthesize_modes(
        spectral_linear_solution(state, t_final), mesh.nodes()
    )
    errs = []
    for n in resolutions:
        config = SchemeConfig(
            mesh=mesh,
            alpha=alpha,
            gamma=0.0,
            epsilon=epsilon,
            tau=t_final / n,
            num_steps=n,
            include_phi=False,
            newton_tol=1e-12,
        )
        term = run_path(config, "b").terminal
        errs.append(l2_norm(FeFunction(mesh, term - exact_nodes)))
    errs = np.array(errs)
    return ErrorTable(
        resolutions=tuple(int(n) for n in resolutions),
        errors=tuple(float(e) for e in errs),
        pairwise_rates=pairwise_rates(tuple(resolutions), errs),
        fitted_rate=fit_rate(resolutions, errs),
        theoretical_rate=1.0,
        samples=1,
    )
