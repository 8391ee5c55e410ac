"""Implicit time stepper for the mixed two-field formulation.

Each step solves the coupled nonlinear system for (U^n, W^n, theta):

    tau^{-alpha} M U^n + S W^n = M (tau^{-alpha} U^0 - H^n + b^n)
    M W^n - eps^2 S U^n - F(U^n) + theta M e = 0
    (W^n, 1) = 0

where H^n is the lagged part of the backward-difference convolution
quadrature, b^n the fractionally integrated noise term, F the load
vector of phi(u) = u^3 - u and theta a scalar Lagrange multiplier
(equal to (phi(u_h), 1) at the solution).  Testing the first equation
against all hat functions including constants enforces conservation of
(U^n, 1) automatically.

The known right-hand side is assembled in blocks of BLOCK steps.  At the
start of a block the part of H^n over the states already computed (the
far part) and the noise terms b^n of the whole block are each one GEMM
with a slice of the lower-triangular Toeplitz matrix of the weights
(``fracops.cq_block``); each step then adds only the in-block states
(the near part).  The sums are exact; only the order of the floating
point additions differs from a step-by-step GEMV.

Newton uses the exact Jacobian.  With nodes interleaved as
(U_0, W_0, U_1, W_1, ...) the Jacobian without the border is banded
with three sub- and three superdiagonals, so each iteration is one
LAPACK ``gbsv`` call with two right-hand sides plus a rank-one Schur
complement for the multiplier.  The cubic terms of an iterate come from
one evaluation of u at the Gauss points, shared by its residual and the
Jacobian of the next iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from fracch.fem1d import (
    FeFunction,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    cubic_jacobian,
    cubic_load,
    gauss_values,
    l2_norm,
    l2_project_cosine,
    nonlinear_load,
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


class NewtonDivergence(RuntimeError):
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


class MassDriftError(RuntimeError):
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
        border = np.zeros(2 * n)
        border[1::2] = self.me
        self.border_col = border


def _phi_load(config: SchemeConfig, mesh: UniformMesh1D, u: np.ndarray) -> np.ndarray:
    if not config.include_phi:
        return np.zeros_like(u)
    return nonlinear_load(FeFunction(mesh, u))


class SolutionHistory:
    """States U^0..U^n of one run plus the latest (W, theta) pair."""

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
        f0 = _phi_load(config, config.mesh, u0)
        theta0 = float(f0.sum())  # (phi(u0), 1); hat loads sum to the integral
        self.w = ws.mass.solve(
            config.epsilon**2 * ws.stiff.matvec(u0) + f0 - theta0 * ws.me
        )
        self.theta = theta0
        self.reports: list[StepReport] = []
        self.max_mass_drift = 0.0

    @property
    def u0(self) -> np.ndarray:
        return self._states[0]

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

    def _append(self, u, w, theta, report):
        self._states[self.size] = u
        self.w = w
        self.theta = theta
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


def _residual_norm(res1, res2, res3) -> float:
    return float(np.sqrt(res1 @ res1 + res2 @ res2 + res3 * res3))


def step(hist: SolutionHistory, config: SchemeConfig, known) -> tuple:
    """Advance the history by one step; returns (new state, StepReport).

    ``known`` is the nodal vector tau^{-alpha} U^0 - H^n + b^n of the terms
    that do not depend on U^n (see :func:`run_path`).
    """
    if config != hist.config:
        raise ValueError("config does not match the one the history was built with")
    n = hist.size
    if n > config.num_steps:
        raise RuntimeError(f"history already holds all {config.num_steps} steps")
    ws = hist.workspace
    mesh = config.mesh
    nodes = mesh.num_nodes
    eps2 = config.epsilon**2

    rhs1 = ws.mass.matvec(np.asarray(known, dtype=float))
    scale = 1.0 + float(np.linalg.norm(rhs1))

    def evaluate(u, w, theta):
        """Residual blocks and the Gauss values of u (None without phi)."""
        ug = gauss_values(FeFunction(mesh, u)) if config.include_phi else None
        load = 0.0 if ug is None else cubic_load(ug, mesh.h)
        res1 = ws.tau_na * ws.mass.matvec(u) + ws.stiff.matvec(w) - rhs1
        res2 = ws.mass.matvec(w) - eps2 * ws.stiff.matvec(u) - load + theta * ws.me
        return (res1, res2, float(ws.me @ w)), ug

    u = hist.terminal.copy()
    w = hist.w.copy()
    theta = hist.theta
    (res1, res2, res3), ug = evaluate(u, w, theta)
    norm = _residual_norm(res1, res2, res3)
    trace = [norm]

    for iters in range(1, config.newton_max + 1):
        ab = ws.ab_static.copy(order="F")
        if ug is not None:
            jac = cubic_jacobian(ug, mesh.h)
            ab[7, 0::2] -= jac.diag
            ab[5, 2::2] -= jac.offdiag
            ab[9, 0 : 2 * (nodes - 1) : 2] -= jac.offdiag
        rhs = np.empty((2 * nodes, 2), order="F")
        rhs[0::2, 0] = -res1
        rhs[1::2, 0] = -res2
        rhs[:, 1] = ws.border_col
        _, _, sol, info = _gbsv(
            _BANDS, _BANDS, ab, rhs, overwrite_ab=True, overwrite_b=True
        )
        if info > 0:
            raise NewtonDivergence(n, trace, "singular Newton matrix")
        if info < 0:
            raise ValueError(f"gbsv rejected argument {-info}")
        y1, y2 = sol[:, 0], sol[:, 1]
        denom = float(ws.me @ y2[1::2])
        dtheta = (float(ws.me @ y1[1::2]) + res3) / denom
        dz = y1 - dtheta * y2
        du, dw = dz[0::2], dz[1::2]

        u_new = u + du
        w_new = w + dw
        theta_new = theta + dtheta
        (r1, r2, r3), ug_new = evaluate(u_new, w_new, theta_new)
        new_norm = _residual_norm(r1, r2, r3)
        if not np.isfinite(new_norm):
            raise NewtonDivergence(n, trace + [new_norm])
        if new_norm > norm:
            # single halving, then accept whatever comes out
            u_new = u + 0.5 * du
            w_new = w + 0.5 * dw
            theta_new = theta + 0.5 * dtheta
            (r1, r2, r3), ug_new = evaluate(u_new, w_new, theta_new)
            new_norm = _residual_norm(r1, r2, r3)
            if not np.isfinite(new_norm):
                raise NewtonDivergence(n, trace + [new_norm])
        u, w, theta, ug = u_new, w_new, theta_new, ug_new
        res1, res2, res3 = r1, r2, r3
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
    hist._append(u, w, theta, report)
    return u, report


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
    beyond 1e-10 * (1 + ||U^0||).
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
            near = a[i:0:-1] @ (hist.states_array()[first:] - start)
            step(hist, config, known[i] - ws.tau_na * near)
            if hist.max_mass_drift > mass_tol:
                raise MassDriftError(
                    f"mass conservation broke at step {first + i}: "
                    f"drift {hist.max_mass_drift:.3e} > {mass_tol:.3e}"
                )
    return hist


def dump_trajectory(hist: SolutionHistory, dest) -> None:
    """Write CSV rows (n, t_n, nodal values...) for plotting."""

    def _write(fh):
        nodes = hist.config.mesh.num_nodes
        fh.write("n,t," + ",".join(f"u{i}" for i in range(nodes)) + "\n")
        for n in range(hist.size):
            vals = ",".join(f"{v:.17g}" for v in hist.state(n))
            fh.write(f"{n},{n * hist.config.tau:.17g},{vals}\n")

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            _write(fh)
