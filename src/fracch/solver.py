"""Implicit time stepper for the mixed two-field formulation.

Each step solves the coupled nonlinear system for (U^n, W^n):

    tau^{-alpha} M U^n + S W^n = M (tau^{-alpha} U^0 - H^n + b^n)
    M W^n - eps^2 S U^n - F(U^n) = 0

where H^n is the lagged part of the backward-difference convolution
quadrature, b^n the fractionally integrated noise term and F the load
vector of phi(u) = u^3 - u, so W^n is the discrete chemical potential.
Testing the first equation against all hat functions including
constants, with S 1 = 0, enforces conservation of (U^n, 1)
automatically.

The known right-hand side is assembled in blocks of BLOCK steps.  At the
start of a block the part of H^n over the states already computed (the
far part) and the noise terms b^n of the whole block are each one GEMM
with a slice of the lower-triangular Toeplitz matrix of the weights
(``fracops.cq_block``); each step then adds only the in-block states
(the near part).  The sums are exact; only the order of the floating
point additions differs from a step-by-step GEMV.

Newton uses the exact Jacobian.  With the unknowns interleaved as
z = (U_0, W_0, U_1, W_1, ...) the linear part A of the system is banded
with three sub- and three superdiagonals.  The workspace assembles A once
in LAPACK band storage and builds its sparse form from the same rows, so
the residual (one product A z) and the Jacobian (A minus the cubic terms,
copied into one preallocated buffer) share one definition of A.  Each
iteration is one LAPACK ``gbsv`` call with one right-hand side.

Each evaluation of an iterate -- A z and the per-element cubic rows of
``fem1d.cubic_terms``, which give its load and the next iteration's
Jacobian -- is done once.  The rows are laid out (rows, elements), as the
kernel lays out the Gauss values, so each row goes into the residual or
the band with one strided operation over the elements.  The history
keeps the evaluation of the last accepted iterate, and the next step
starts from it: only M times the new known right-hand side changes.  So
a path evaluates once at its start and once per Newton trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import dia_array

from fracch.blas import one_blas_thread
from fracch.fem1d import (
    FeFunction,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    cubic_terms,
    l2_norm,
    l2_project_cosine,
)
from fracch.fracops import cq_block, cq_weights
from fracch.noise import ProjectedNoiseTrack, integrated_noise

# Steps per block of the blocked convolution sums.
BLOCK = 64
# Sub- and superdiagonals of the interleaved Newton matrix.
_BANDS = 3
(_gbsv,) = get_lapack_funcs(("gbsv",), (np.empty(0),))


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization parameters for one run."""

    mesh: UniformMesh1D
    alpha: float
    gamma: float
    epsilon: float
    tau: float
    num_steps: int
    newton_tol: float = 1e-10
    newton_max: int = 50
    include_phi: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.newton_tol <= 0.0 or self.newton_max < 1:
            raise ValueError("newton_tol must be > 0 and newton_max >= 1")

    @property
    def t_final(self) -> float:
        return self.tau * self.num_steps


@dataclass(frozen=True)
class StepReport:
    """Outcome of one Newton solve."""

    step_index: int
    newton_iters: int
    final_residual: float
    residual_trace: tuple


class PathFailure(RuntimeError):
    """A sample path could not be completed; the study's policy decides
    whether it aborts the study or is dropped."""


class NewtonDivergence(PathFailure):
    """Newton failed to converge; carries the residual trace."""

    def __init__(self, step_index: int, residuals, context: str = ""):
        self.step_index = step_index
        self.residuals = tuple(residuals)
        self.context = context
        where = f" ({context})" if context else ""
        super().__init__(
            f"Newton did not converge at step {step_index}{where}; "
            f"residuals {self.residuals}"
        )

    def __reduce__(self):
        # default exception pickling would replay the message as args
        return (NewtonDivergence, (self.step_index, self.residuals, self.context))


class MassDriftError(PathFailure):
    """Mass conservation broke down along a path."""


class _Workspace:
    """Per-run matrices, weights and the static part of the banded Jacobian."""

    def __init__(self, config: SchemeConfig):
        mesh = config.mesh
        self.mass = assemble_mass(mesh)
        self.stiff = assemble_stiffness(mesh)
        self.me = self.mass.matvec(np.ones(mesh.num_nodes))
        self.alpha_weights = cq_weights(config.alpha, config.num_steps)
        self.tau_na = config.tau**-config.alpha
        n = mesh.num_nodes
        md, mo = self.mass.diag, self.mass.offdiag
        sd, so = self.stiff.diag, self.stiff.offdiag
        eps2 = config.epsilon**2
        # LAPACK gbsv layout: rows 0..2 are room for the fill-in of the
        # factorization and entry (r, c) sits in row 6 - (c - r); columns
        # 2j carry U_j, columns 2j+1 carry W_j; rows alternate the two
        # equations.
        ab = np.zeros((3 * _BANDS + 1, 2 * n), order="F")
        ab[6, 0::2] = self.tau_na * md
        ab[4, 2::2] = self.tau_na * mo
        ab[8, 0 : 2 * (n - 1) : 2] = self.tau_na * mo
        ab[5, 1::2] = sd
        ab[3, 3::2] = so
        ab[7, 1 : 2 * n - 2 : 2] = so
        ab[6, 1::2] = md
        ab[4, 3::2] = mo
        ab[8, 1 : 2 * n - 2 : 2] = mo
        ab[7, 0::2] = -eps2 * sd
        ab[5, 2::2] = -eps2 * so
        ab[9, 0 : 2 * (n - 1) : 2] = -eps2 * so
        self.ab_static = ab
        # the same A for products: band row 3 + k holds diagonal 3 - k
        self.op = dia_array(
            (ab[_BANDS:], np.arange(_BANDS, -_BANDS - 1, -1)), shape=(2 * n, 2 * n)
        ).tocsr()
        # each Newton matrix is assembled here and factorized in place
        self.newton_ab = np.empty_like(ab, order="F")


def _evaluate(config: SchemeConfig, ws: _Workspace, z: np.ndarray, rows=None) -> tuple:
    """A z minus the cubic load in the W rows, and u's cubic rows (None
    without phi; computed unless given).  A step's residual is this minus
    M known in the U rows."""
    g = ws.op @ z
    if config.include_phi:
        if rows is None:
            rows = cubic_terms(z[0::2], config.mesh.h)
        g[1:-2:2] -= rows[0]
        g[3::2] -= rows[1]
    return g, rows


class SolutionHistory:
    """States U^0..U^n of one run, plus the latest (U, W) and its
    evaluation, from which the next step starts."""

    def __init__(self, config: SchemeConfig, u0: np.ndarray):
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (config.mesh.num_nodes,):
            raise ValueError(
                f"u0 has shape {u0.shape}, expected ({config.mesh.num_nodes},)"
            )
        self.config = config
        self.workspace = _Workspace(config)
        nodes = config.mesh.num_nodes
        self._states = np.zeros((config.num_steps + 1, nodes))
        self._states[0] = u0
        self.size = 1
        ws = self.workspace
        # one cubic evaluation at u0 gives W^0 and the carried evaluation
        rows = cubic_terms(u0, config.mesh.h) if config.include_phi else None
        f0 = 0.0 if rows is None else np.append(rows[0], 0.0) + np.append(0.0, rows[1])
        self._z = np.empty(2 * nodes)
        self._z[0::2] = u0
        self._z[1::2] = ws.mass.solve(config.epsilon**2 * ws.stiff.matvec(u0) + f0)
        self._g, self._rows = _evaluate(config, ws, self._z, rows)
        self.reports: list[StepReport] = []
        self.max_mass_drift = 0.0

    @property
    def u0(self) -> np.ndarray:
        return self._states[0]

    @property
    def w(self) -> np.ndarray:
        """The latest W, the discrete chemical potential."""
        return self._z[1::2]

    def state(self, n: int) -> np.ndarray:
        if not 0 <= n < self.size:
            raise IndexError(f"state {n} not available (have 0..{self.size - 1})")
        return self._states[n]

    @property
    def terminal(self) -> np.ndarray:
        return self._states[self.size - 1]

    def states_array(self) -> np.ndarray:
        """All stored states as an array of shape (size, nodes)."""
        return self._states[: self.size]

    def _append(self, z, g, rows, report):
        """Store the accepted z with its :func:`_evaluate` values (g, rows)."""
        u = z[0::2]
        self._states[self.size] = u
        self._z, self._g, self._rows = z, g, rows
        self.size += 1
        self.reports.append(report)
        drift = abs(self.workspace.me @ (u - self._states[0]))
        self.max_mass_drift = max(self.max_mass_drift, drift)


def initial_state(u0_spec, mesh: UniformMesh1D) -> FeFunction:
    """Initial datum by case tag or explicit coefficient vector.

    Case "a" is the zero function; case "b" is the L2 projection of
    0.05 cos(2 pi x).  An array is taken verbatim as FE coefficients.
    """
    if isinstance(u0_spec, FeFunction):
        return u0_spec
    if isinstance(u0_spec, str):
        if u0_spec == "a":
            return FeFunction(mesh, np.zeros(mesh.num_nodes))
        if u0_spec == "b":
            # 0.05 cos(2 pi x) = (0.05 / sqrt(2)) * sqrt(2) cos(2 pi x)
            base = l2_project_cosine(mesh, 2)
            return FeFunction(mesh, 0.05 / np.sqrt(2.0) * base.coeffs)
        raise ValueError(f"unknown initial datum case {u0_spec!r}")
    coeffs = np.asarray(u0_spec, dtype=float)
    if coeffs.shape != (mesh.num_nodes,):
        raise ValueError(
            f"coefficient vector has shape {coeffs.shape}, "
            f"expected ({mesh.num_nodes},)"
        )
    return FeFunction(mesh, coeffs)


def step(hist: SolutionHistory, known) -> tuple:
    """Advance the history by one step; returns (new state, StepReport).

    ``known`` is the nodal vector tau^{-alpha} U^0 - H^n + b^n of the terms
    that do not depend on U^n (see :func:`run_path`).
    """
    config = hist.config
    n = hist.size
    if n > config.num_steps:
        raise RuntimeError(f"history already holds all {config.num_steps} steps")
    ws = hist.workspace

    rhs = ws.mass.matvec(np.asarray(known, dtype=float))
    scale = 1.0 + math.sqrt(rhs @ rhs)

    def residual(g):
        """g minus M known in the U rows, and its norm."""
        res = g.copy()
        res[0::2] -= rhs
        return res, math.sqrt(res @ res)

    # the previous step (or the history's set-up) evaluated this iterate
    z, g, rows = hist._z, hist._g, hist._rows
    res, norm = residual(g)
    trace = [norm]

    ab = ws.newton_ab
    for iters in range(1, config.newton_max + 1):
        # A minus the cubic Jacobian (W rows, U columns) from the LL, RR, LR rows
        np.copyto(ab, ws.ab_static)
        if rows is not None:
            ab[7, 0:-2:2] -= rows[2]
            ab[7, 2::2] -= rows[3]
            ab[5, 2::2] -= rows[4]
            ab[9, 0:-2:2] -= rows[4]
        _, _, dz, info = _gbsv(
            _BANDS, _BANDS, ab, -res, overwrite_ab=True, overwrite_b=True
        )
        if info > 0:
            raise NewtonDivergence(n, trace, "singular Newton matrix")
        if info < 0:
            raise ValueError(f"gbsv rejected argument {-info}")

        # full step, then a single halving, then accept whatever comes out;
        # either way the last evaluation is of the accepted iterate
        for fraction in (1.0, 0.5):
            z_new = z + fraction * dz
            g, rows = _evaluate(config, ws, z_new)
            res, new_norm = residual(g)
            if not math.isfinite(new_norm):
                raise NewtonDivergence(n, trace + [new_norm])
            if new_norm <= norm:
                break
        z = z_new
        norm = new_norm
        trace.append(norm)
        if norm <= config.newton_tol * scale:
            break
    else:
        raise NewtonDivergence(n, trace)

    report = StepReport(
        step_index=n,
        newton_iters=iters,
        final_residual=norm / scale,
        residual_trace=tuple(trace),
    )
    hist._append(z, g, rows, report)
    return z[0::2], report


@one_blas_thread()
def run_path(
    config: SchemeConfig,
    u0_spec,
    track: ProjectedNoiseTrack | None = None,
) -> SolutionHistory:
    """Run all num_steps steps; the noise track may be omitted for
    deterministic runs.

    The lagged sum H^n = tau^{-alpha} sum_{j<n} a_{n-j} (U^j - U^0) and the
    noise terms b^n are summed in blocks of BLOCK steps, see the module
    docstring.

    Raises NewtonDivergence with the failing step index on
    non-convergence and MassDriftError if mass conservation degrades
    beyond 1e-10 * (1 + ||U^0||).  BLAS runs on one thread throughout, so
    the sums keep one order whatever the thread settings.
    """
    u0 = initial_state(u0_spec, config.mesh)
    if track is not None:
        if track.num_steps < config.num_steps:
            raise ValueError(
                f"track has {track.num_steps} steps, run needs {config.num_steps}"
            )
        if abs(track.tau - config.tau) > 1e-12 * config.tau:
            raise ValueError(f"track tau {track.tau} != config tau {config.tau}")
        gamma_weights = cq_weights(-config.gamma, config.num_steps)
    hist = SolutionHistory(config, u0.coeffs)
    ws = hist.workspace
    alpha_weights = ws.alpha_weights
    a = alpha_weights.weights
    start = hist.u0
    mass_tol = 1e-10 * (1.0 + l2_norm(u0))
    for first in range(1, config.num_steps + 1, BLOCK):
        rows = min(BLOCK, config.num_steps + 1 - first)
        # far part: the states U^0..U^{first-1} known when the block starts
        far = cq_block(alpha_weights, first, rows, first)
        lagged = far @ hist.states_array() - far.sum(axis=1)[:, None] * start
        known = ws.tau_na * (start - lagged)
        if track is not None:
            known += integrated_noise(track, gamma_weights, first, rows)
        for i in range(rows):
            # near part: the states U^first..U^{n-1} of this block
            weights = a[i:0:-1]
            near = weights @ hist.states_array()[first:] - weights.sum() * start
            step(hist, known[i] - ws.tau_na * near)
            if hist.max_mass_drift > mass_tol:
                raise MassDriftError(
                    f"mass conservation broke at step {first + i}: "
                    f"drift {hist.max_mass_drift:.3e} > {mass_tol:.3e}"
                )
    return hist


def trajectory_csv(hist: SolutionHistory) -> str:
    """CSV rows (n, t_n, nodal values...) for plotting."""
    nodes = hist.config.mesh.num_nodes
    lines = ["n,t," + ",".join(f"u{i}" for i in range(nodes))]
    for n in range(hist.size):
        vals = ",".join(f"{v:.17g}" for v in hist.state(n))
        lines.append(f"{n},{n * hist.config.tau:.17g},{vals}")
    return "\n".join(lines) + "\n"
