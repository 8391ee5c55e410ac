"""Monte Carlo convergence studies and rate bookkeeping.

A study runs the solver over many independent noise paths at several
resolutions against a common-path reference solution, aggregates the
terminal errors in the root-mean-square sense over samples, and fits
convergence rates.  One driver serves both refinement axes: temporal
sweeps coarsen one fine increment matrix on a fixed mesh, so every
resolution sees the same Brownian path; spatial sweeps share the
mode-space increments across nested meshes at a fixed step.  Terminal
states are compared after nodal injection into the reference mesh,
which on the temporal axis is the same mesh and leaves them unchanged.

Theoretical exponents follow the strong error analysis of the scheme:
for noise regularity beta the spatial order is min(2, beta) - r and the
temporal order at fixed final time is min(mu, zeta, 1), where

    eta   = alpha (1 + beta) / 4 + gamma - 1/2
    sigma = eta + alpha / 4,   mu = min(sigma, 1)
    xi    = alpha + gamma - 1/2,   zeta = min(xi, 1)

and r > 0 only when gamma is too small to compensate rough noise.  (The
strict uniform-in-time exponent adds an alpha/2 cap, which does not
bind at fixed final time.)
"""

from __future__ import annotations

import json
import math
import numbers
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

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
from fracch.solver import NewtonDivergence, PathFailure, SchemeConfig, run_path


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


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _type_problem(kind: str, value):
    """What a JSON value for a plan field of annotated type ``kind`` must
    be, or None if it fits."""
    if value is None and kind.endswith("| None"):
        return None
    if kind == "tuple":
        fits = isinstance(value, (list, tuple)) and all(map(_is_integer, value))
        return None if fits else "a list of integers"
    if kind.startswith("int"):
        return None if _is_integer(value) else "an integer"
    if kind.startswith("float"):
        fits = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
        return None if fits else "a finite number"
    return None


def plan_from_json(source) -> ExperimentPlan:
    """Build a plan from a JSON document, dict, or file-like object.

    Unknown fields, integer fields holding anything but an integer, and
    float fields holding anything but a finite number raise ConfigError;
    ranges are left to :func:`validate_config`.
    """
    if isinstance(source, dict):
        data = dict(source)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = json.loads(source)
    if not isinstance(data, dict):
        raise ConfigError(f"a plan is a JSON object, got {type(data).__name__}")
    known = {f.name: f.type for f in fields(ExperimentPlan)}
    kwargs = {}
    for key, value in data.items():
        name = _PLAN_ALIASES.get(key, key)
        if name not in known:
            raise ConfigError(f"unknown config field {key!r}")
        problem = _type_problem(known[name], value)
        if problem:
            raise ConfigError(f"config field {key!r} must be {problem}, got {value!r}")
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


def _sample(plan: ExperimentPlan, index: int):
    """Terminal errors of one sample at each resolution against its own
    reference solve, or None if the path failed under policy "drop".

    The path is drawn once on the fine grid of the study: the reference
    step count on the temporal axis, the fixed step count on the spatial
    axis.  Temporal resolutions coarsen it; spatial ones reuse it on
    coarser meshes.
    """
    spatial = plan.study == "spatial"
    spec = NoiseSpec(
        plan.decay_exponent,
        plan.resolved_modes,
        plan.t_final,
        plan.num_steps if spatial else plan.reference,
    )
    path = sample_path(spec, path_stream(plan.master_seed, plan.row_key, index))

    def solve(resolution, noise, context):
        mesh = UniformMesh1D(resolution if spatial else plan.mesh_size)
        config = SchemeConfig(
            mesh=mesh,
            alpha=plan.alpha,
            gamma=plan.gamma,
            epsilon=plan.resolved_epsilon,
            tau=plan.t_final / noise.num_steps,
            num_steps=noise.num_steps,
            newton_tol=plan.newton_tol,
            newton_max=plan.newton_max,
        )
        track = project_increments(noise, mesh)
        try:
            return mesh, run_path(config, plan.case, track).terminal
        except NewtonDivergence as exc:
            raise NewtonDivergence(
                exc.step_index, exc.residuals, context=f"sample {index}, {context}"
            ) from exc

    axis = "mesh" if spatial else "steps"
    try:
        mesh_ref, ref = solve(plan.reference, path, f"reference {axis} {plan.reference}")
        x_ref = mesh_ref.nodes()
        norms = []
        for res in plan.resolutions:
            noise = path if spatial else coarsen(path, plan.reference // res)
            mesh, term = solve(res, noise, f"{axis} {res}")
            injected = np.interp(x_ref, mesh.nodes(), term)
            norms.append(l2_norm(FeFunction(mesh_ref, injected - ref)))
        return np.array(norms)
    except PathFailure:
        if plan.policy == "drop":
            return None
        raise


def _collect(plan: ExperimentPlan) -> tuple:
    """Error rows of the kept samples and the indices of the dropped ones.

    Results arrive in index order for any worker count, so under policy
    "abort" the lowest failing index is the one reported.
    """
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(partial(_sample, plan), range(plan.samples)))
    else:
        results = [_sample(plan, s) for s in range(plan.samples)]
    kept = [r for r in results if r is not None]
    dropped = tuple(s for s, r in enumerate(results) if r is None)
    if not kept:
        raise RuntimeError("every sample path was dropped")
    return np.vstack(kept), dropped


def _table(resolutions, errors, theory: float, samples: int, dropped=()) -> ErrorTable:
    return ErrorTable(
        resolutions=tuple(resolutions),
        errors=tuple(float(e) for e in errors),
        pairwise_rates=pairwise_rates(resolutions, errors),
        fitted_rate=fit_rate(resolutions, errors),
        theoretical_rate=theory,
        samples=samples,
        dropped=dropped,
    )


def run_study(plan: ExperimentPlan) -> ErrorTable:
    ensure_valid(plan)
    rows, dropped = _collect(plan)
    summary = theoretical_rate(
        plan.alpha, plan.gamma, nominal_regularity(plan.decay_exponent)
    )
    theory = summary.spatial if plan.study == "spatial" else summary.temporal_fixed_time
    rms = np.sqrt(np.mean(np.square(rows), axis=0))
    return _table(plan.resolutions, rms, theory, rows.shape[0], dropped)


def table_text(table: ErrorTable) -> str:
    """The fixed CSV layout; refuses an empty table.

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
    return "\n".join(lines) + "\n"


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
    resolutions = tuple(int(n) for n in resolutions)
    if min(resolutions, default=0) < 1:
        raise ValueError(f"resolutions must be step counts >= 1, got {resolutions}")
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
    return _table(resolutions, np.array(errs), 1.0, 1)
