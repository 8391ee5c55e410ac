"""Implicit time stepper for the mixed two-field formulation.

Each step solves the coupled nonlinear system for (U^n, W^n):

    tau^{-alpha} M U^n + S W^n = M known^n
    M W^n - eps^2 S U^n - F(U^n) = 0

with known^n = tau^{-alpha} (A_n U^0 - sum_{j<n} a_{n-j} U^j) + b^n.  The
a_j are the backward-difference convolution quadrature weights, their
partial sums A_n = a_0 + ... + a_n the weights of order alpha - 1
(Lubich, SIAM J. Math. Anal. 17 (1986) 704), b^n the fractionally
integrated noise term and F the load vector of phi(u) = u^3 - u, so W^n
is the discrete chemical potential.
Testing the first equation against all hat functions including
constants, with S 1 = 0, enforces conservation of (U^n, 1)
automatically.

The known right-hand side is assembled in blocks of BLOCK steps.  At the
start of a block the lagged sum over the states already computed (the
far part) and the noise terms b^n of the whole block are each one GEMM
per mesh with a slice of the lower-triangular Toeplitz matrix of the
weights (``fracops.cq_block``); each step then adds only the in-block
states (the near part), one GEMV per mesh.  The sums are exact; only the
order of the floating point additions differs from a step-by-step GEMV.

Newton is simplified Newton (Hairer & Wanner, Solving Ordinary
Differential Equations II, IV.8): the Jacobian is taken at some iterate
and kept while the residual contracts.  With the unknowns interleaved as
z = (U_0, W_0, U_1, W_1, ...) the linear part A of the system is banded
with three sub- and three superdiagonals.  The workspace assembles A once
in LAPACK band storage and builds its sparse form from the same rows, so
the residual (one product A z) and the Newton matrix (A minus the cubic
Jacobian) share one definition of A.  The history holds one LU of the
Newton matrix (LAPACK ``gbtrf``), factored at the first step from the
evaluation of u0, and each iteration is one ``gbtrs`` solve on it.  A
mesh whose residual does not shrink by the factor THETA takes its
Jacobian afresh at its current iterate and the band is factored again,
so its next iteration is an exact Newton step; the new LU stays in use
for the steps that follow.  A residual that grows (or is not finite)
under an older LU sends the mesh back to its iterate for that exact
step; on an exact step the line search halves it once.

Each evaluation of an iterate -- A z and its cubic load rows from
``fem1d.cubic_terms`` -- is done once; the Jacobian rows of
``fem1d.cubic_jacobian`` are taken only where the band is factored.  The
rows are laid out (rows, elements), so each goes into the residual or the
band with one strided operation.  They scale with h, which is 0 wherever
phi must not act (everywhere without phi), and are exact zeros there even
where u overflows.  The history keeps the evaluation of the last accepted
iterate, from which the next step starts, so a path evaluates once at its
start and once per Newton trial.

Runs that differ in the mesh alone share the time grid, the weights and
the noise path, so :func:`run_path` advances them in lockstep, stacked
mesh after mesh, as one block-diagonal Newton system, and each mesh gets
its own run's bits: the band storage is zero wherever it would couple two
meshes, so ``gbtrf`` never pivots across blocks and adds exact zeros to
the other blocks; the sparse form, which drops zeros, sums each row's own
terms in their own order; the history products are taken per mesh; and
the cubic kernels scale each element's rows by its own h after the
product, h being 0 on the pseudo-elements joining two meshes.  A refresh
replaces only the slow meshes' Jacobian rows.  Norms, the line search,
refreshes and convergence are per mesh and a converged mesh takes no
further update, so each mesh makes the iterations of its own solve.  A
stack of copies of one period (the samples of a batch, each one mesh or
one sample's meshes) starts from one u0, so its first band is the
period's band repeated: that band alone is factored, which is each copy's
own LU, and each iteration is one ``gbtrs`` with a column per copy, which
gives each column the bits of its own solve.  A later refresh factors
the whole band, and the path solves one column from then on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import dia_array

from fracch.blas import one_blas_thread
from fracch.fem1d import (
    FeFunction,
    SymTridiagonal,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    cosine_projection_basis,
    cubic_jacobian,
    cubic_terms,
    l2_norm,
)
from fracch.fracops import cq_block, cq_weights
from fracch.noise import ProjectedNoiseTrack, integrated_noise

# Steps per block of the blocked convolution sums.
BLOCK = 64
# Sub- and superdiagonals of the interleaved Newton matrix.
_BANDS = 3
# A mesh whose Newton residual shrinks by less than this factor in one
# iteration takes its Jacobian afresh at its iterate.
THETA = 0.1
_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (np.empty(0),))


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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        tol_ok = math.isfinite(self.newton_tol) and self.newton_tol > 0.0
        if not tol_ok or self.newton_max < 1:
            raise ValueError("newton_tol must be > 0 and newton_max >= 1")

    @property
    def t_final(self) -> float:
        return self.tau * self.num_steps


@dataclass(frozen=True, slots=True)
class StepReport:
    """Outcome of one Newton solve.  ``residual_trace`` is the starting norm, then one
    entry per iteration.  A trial under an older LU that raised the residual is undone
    and repeats the entry before exactly.  A path's first iteration refactors, as does
    each one after an entry that fell by less than THETA without converging."""

    step_index: int
    newton_iters: int
    final_residual: float
    residual_trace: tuple


class PathFailure(RuntimeError):
    """A sample path could not be completed; the study's policy decides
    whether it aborts the study or is dropped.  The arguments are the
    failing step, details, ``mesh`` (the failing run's place in a lockstep
    stack) and ``context`` (where the study met the failure)."""

    def __init__(self, *args):
        super().__init__(*args)  # the args rebuild the failure, also on unpickling
        self.step_index, self.mesh, self.context = args[0], args[-2], args[-1]

    def in_context(self, context: str) -> "PathFailure":
        """The same failure, saying where it happened."""
        return type(self)(*self.args[:-1], context)

    def __str__(self):
        where = "; ".join(filter(None, (getattr(self, "reason", ""), self.context)))
        return self._text.format(self, where=f" ({where})" if where else "")


class NewtonDivergence(PathFailure):
    """Newton failed to converge; carries the residual trace."""

    _text = "Newton did not converge at step {0.step_index}{where}; residuals {0.residuals}"

    def __init__(self, step_index: int, residuals, reason="", mesh=0, context=""):
        super().__init__(step_index, tuple(residuals), reason, mesh, context)
        self.residuals, self.reason = self.args[1:3]


class MassDriftError(PathFailure):
    """Mass conservation broke down along a path."""

    _text = (
        "mass conservation broke at step {0.step_index}{where}: "
        "drift {0.drift:.3e} > {0.bound:.3e}"
    )

    def __init__(self, step_index: int, drift, bound, mesh=0, context=""):
        super().__init__(step_index, drift, bound, mesh, context)
        self.drift, self.bound = drift, bound


class _Workspace:
    """Per-run matrices, weights and the static part of the banded
    Jacobian, of one mesh or of several stacked block-diagonally."""

    def __init__(self, configs):
        config = configs[0]
        if any(replace(other, mesh=config.mesh) != config for other in configs):
            raise ValueError("lockstep runs must differ in the mesh alone")
        meshes = [c.mesh for c in configs]
        self.bounds = np.cumsum([0] + [m.num_nodes for m in meshes])
        # each mesh's nodes and interleaved unknowns in the stacked vectors
        self.nodes = [slice(a, b) for a, b in zip(self.bounds[:-1], self.bounds[1:])]
        self.unknowns = [slice(2 * s.start, 2 * s.stop) for s in self.nodes]
        # h per element, 0 (and so are the cubic rows) on the pseudo-elements
        # joining two meshes and everywhere without phi.  One mesh with phi
        # keeps a scalar h: its kernel call takes 10 us, not 13 us at mesh 256
        hs = [np.append(np.full(m.num_elements, m.h), 0.0) for m in meshes]
        one = len(meshes) == 1 and config.include_phi
        self.h = config.mesh.h if one else np.concatenate(hs)[:-1] * config.include_phi
        # copies of the period, the shortest prefix the configs repeat
        k = len(configs)
        self.copies = max(c for c in range(1, k + 1) if configs == configs[: k // c] * c)
        def stack(assemble):  # one tridiagonal matrix, zero between meshes
            mats = [assemble(m) for m in meshes]
            off = np.concatenate([np.append(m.offdiag, 0.0) for m in mats])[:-1]
            return SymTridiagonal(np.concatenate([m.diag for m in mats]), off)

        self.mass, self.stiff = stack(assemble_mass), stack(assemble_stiffness)
        n = int(self.bounds[-1])
        self.me = self.mass.matvec(np.ones(n))
        self.alpha_weights = cq_weights(config.alpha, config.num_steps)
        self.tau_na = config.tau**-config.alpha
        eps2 = config.epsilon**2
        # LAPACK gbtrf layout: rows 0..2 are room for the fill-in of the
        # factorization and entry (r, c) sits in row 6 - (c - r).  Rows and
        # columns interleave (U, W), so block (e, f) of A, equation e against
        # unknown f, sits at r = 2i + e, c = 2k + f.
        ab = np.zeros((3 * _BANDS + 1, 2 * n), order="F")
        for e, f, c, mat in (
            (0, 0, self.tau_na, self.mass), (0, 1, 1.0, self.stiff),
            (1, 0, -eps2, self.stiff), (1, 1, 1.0, self.mass),
        ):
            ab[6 + e - f, f::2] = c * mat.diag
            ab[4 + e - f, 2 + f :: 2] = c * mat.offdiag
            ab[8 + e - f, f : 2 * n - 2 : 2] = c * mat.offdiag
        self.ab_static = ab
        # the same A for products: band row 3 + k holds diagonal 3 - k
        self.op = dia_array(
            (ab[_BANDS:], np.arange(_BANDS, -_BANDS - 1, -1)), shape=(2 * n, 2 * n)
        ).tocsr()


def _evaluate(ws: _Workspace, z: np.ndarray, rows=None) -> tuple:
    """A z minus the cubic load in the W rows, and u's cubic load rows
    (computed unless given; zero where ``ws.h`` is).  A step's residual is
    this minus M known in the U rows."""
    g = ws.op @ z
    if rows is None:
        rows = cubic_terms(z[0::2], ws.h)
    g[1:-2:2] -= rows[0]
    g[3::2] -= rows[1]
    return g, rows


class SolutionHistory:
    """States U^0..U^n of one run, or of lockstep runs stacked mesh after
    mesh, plus the latest (U, W) and its evaluation, from which the next
    step starts, and the LU of the Newton matrix that the steps share.
    Only a one-mesh history has ``config``.  ``u0`` is a case tag of
    :func:`initial_state`, taken on each mesh, or the stacked coefficients."""

    def __init__(self, config, u0):
        self.configs = (config,) if isinstance(config, SchemeConfig) else tuple(config)
        if len(self.configs) == 1:
            self.config = self.configs[0]
        self.workspace = ws = _Workspace(self.configs)
        nodes = int(ws.bounds[-1])
        if isinstance(u0, str):
            u0 = np.concatenate([initial_state(u0, c.mesh).coeffs for c in self.configs])
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (nodes,):
            raise ValueError(f"u0 has shape {u0.shape}, expected ({nodes},)")
        self._states = np.zeros((self.configs[0].num_steps + 1, nodes))
        self._states[0] = u0
        self.size = 1
        # one cubic evaluation at u0 gives W^0 and the carried evaluation
        rows = cubic_terms(u0, ws.h)
        f0 = np.append(rows[0], 0.0) + np.append(0.0, rows[1])
        self._z = np.empty(2 * nodes)
        self._z[0::2] = u0
        self._z[1::2] = ws.mass.solve(self.configs[0].epsilon**2 * ws.stiff.matvec(u0) + f0)
        self._g, _ = _evaluate(ws, self._z, rows)
        # the LU that the steps share (of one copy of the period, or of the
        # whole band) and the cubic rows of its Jacobian, each mesh's from the
        # iterate of its last refresh; the first step factors it, at u0
        self._jac = np.empty((3, nodes - 1))
        self._lu = self._piv = None
        self.reports: list[StepReport] = []  # each step's, mesh after mesh
        self.max_mass_drift = 0.0
        self.mass_tol = [math.inf] * len(self.configs)  # run_path sets the bounds

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

    def split(self, v: np.ndarray) -> list:
        """Each mesh's part of a stacked nodal vector."""
        return [v[s] for s in self.workspace.nodes]


def initial_state(case: str, mesh: UniformMesh1D) -> FeFunction:
    """The initial datum of case "a", the zero function, or of case "b",
    the L2 projection of 0.05 cos(2 pi x)."""
    if not (isinstance(case, str) and case in ("a", "b")):
        raise ValueError(f"unknown initial datum case {case!r}")
    if case == "a":
        return FeFunction(mesh, np.zeros(mesh.num_nodes))
    # 0.05 cos(2 pi x) = (0.05 / sqrt(2)) * sqrt(2) cos(2 pi x)
    return FeFunction(mesh, 0.05 / np.sqrt(2.0) * cosine_projection_basis(mesh, 2)[:, 1])


def _norms(v: np.ndarray, parts) -> list:
    """The 2-norm of each mesh's part of a stacked vector.  One mesh takes
    one dot: 1.1 us against 2.3 us for the comprehension over one slice."""
    if len(parts) == 1:
        return [math.sqrt(v @ v)]
    return [math.sqrt(r @ r) for r in map(v.__getitem__, parts)]


def step(hist: SolutionHistory, known) -> list:
    """Advance the history by one step; returns each mesh's StepReport.

    ``known`` is the (stacked) nodal vector known^n = tau^{-alpha} (A_n U^0
    - sum_{j<n} a_{n-j} U^j) + b^n of the terms free of U^n.  A failure is
    raised once every mesh has finished the step, the first mesh's first;
    only a singular Newton matrix stops the step at once.

    Each iteration solves with the history's LU, which a mesh refreshes at
    its iterate when its residual shrank by less than THETA in the last
    iteration (see the module docstring).
    """
    config, ws, n = hist.configs[0], hist.workspace, hist.size
    if n > config.num_steps:
        raise RuntimeError(f"history already holds all {config.num_steps} steps")
    rhs = ws.mass.matvec(np.asarray(known, dtype=float))
    scale = [1.0 + norm for norm in _norms(rhs, ws.nodes)]

    def residual(g):
        """Minus the residual (M known in the U rows, less g), and its norms."""
        res = np.negative(g)
        res[0::2] += rhs
        return res, _norms(res, ws.unknowns)

    # the previous step (or the history's set-up) evaluated this iterate
    z, g = hist._z, hist._g
    res, norms = residual(g)
    traces = [[norm] for norm in norms]  # each mesh's last entry is its iterate's norm
    meshes = range(len(traces))
    active, failed = list(meshes), {}
    refresh = list(meshes) if hist._lu is None else []  # the first step factors
    jac = hist._jac
    for _ in range(config.newton_max):
        # the meshes to refresh take their Jacobian rows at this iterate, so
        # their iteration is an exact Newton step; the others keep theirs
        exact = refresh
        if refresh:
            rows = cubic_jacobian(z[0::2], ws.h)
            for mesh in refresh:
                jac[:, ws.nodes[mesh]] = rows[:, ws.nodes[mesh]]
            # A minus the cubic Jacobian (W rows, U columns) from the LL, RR, LR rows
            ab = np.array(ws.ab_static, order="F")
            ab[7, 0:-2:2] -= jac[0]
            ab[7, 2::2] -= jac[1]
            ab[5, 2::2] -= jac[2]
            ab[9, 0:-2:2] -= jac[2]
            # a path's first band, if it is identical copies of the period's,
            # factors as one copy; that LU is each copy's own
            blocks = ab.T.reshape(ws.copies, -1, ab.shape[0])
            if hist._lu is None and np.array_equal(blocks[1:], blocks[:-1]):
                ab = blocks[0].T
            hist._lu, hist._piv, info = _gbtrf(ab, _BANDS, _BANDS, overwrite_ab=True)
            if info > 0:
                mesh = int(np.searchsorted(ws.bounds, (info - 1) // 2, side="right")) - 1
                raise NewtonDivergence(n, traces[mesh], "singular Newton matrix", mesh)
        # a column per copy sharing the LU: a Fortran-order view, no copy
        columns = res.reshape(-1, hist._lu.shape[1]).T
        dz, _ = _gbtrs(hist._lu, _BANDS, _BANDS, columns, hist._piv, overwrite_b=True)
        dz = dz.T.reshape(-1)
        if len(active) < len(meshes):
            for mesh in set(meshes).difference(active):
                dz[ws.unknowns[mesh]] = 0.0

        # full step.  A mesh whose residual grew (or is not finite) goes back
        # to its iterate: after a step on an older LU, to be refreshed there;
        # after an exact step, to halve it once and accept whatever comes
        # out, or to fail where the trial is not finite.  The last
        # evaluation is of the accepted z
        z_new, settled, redo = z + dz, [], True
        while redo:
            g, _ = _evaluate(ws, z_new)
            res, new = residual(g)
            redo = False
            for mesh in active[:]:
                if new[mesh] <= traces[mesh][-1] or mesh in settled and math.isfinite(new[mesh]):
                    continue
                part, redo = ws.unknowns[mesh], True
                z_new[part] = z[part]
                settled.append(mesh)
                if mesh not in exact:
                    continue
                if math.isfinite(new[mesh]):
                    z_new[part] += 0.5 * dz[part]
                else:
                    failed[mesh] = NewtonDivergence(n, [*traces[mesh], new[mesh]], mesh=mesh)
                    active.remove(mesh)
        z = z_new
        for mesh in active:
            traces[mesh].append(new[mesh])
        active = [m for m in active if new[m] > config.newton_tol * scale[m]]
        refresh = [m for m in active if new[m] > THETA * traces[m][-2]]
        if not active:
            break
    for mesh in active:
        failed[mesh] = NewtonDivergence(n, traces[mesh], mesh=mesh)

    # one mesh takes one dot: 0.9 us against 1.4 us for the comprehension
    du, me = z[0::2] - hist.u0, ws.me
    drifts = [abs(me @ du)] if len(meshes) == 1 else [abs(me[s] @ du[s]) for s in ws.nodes]
    for mesh, drift, bound in zip(meshes, drifts, hist.mass_tol):
        if drift > bound and mesh not in failed:
            failed[mesh] = MassDriftError(n, drift, bound, mesh)
    if failed:
        raise failed[min(failed)]
    reports = [StepReport(n, len(t) - 1, t[-1] / s, tuple(t)) for t, s in zip(traces, scale)]
    hist._states[n] = z[0::2]
    hist._z, hist._g = z, g  # the next step starts from this evaluation
    hist.size += 1
    hist.reports += reports
    hist.max_mass_drift = max(hist.max_mass_drift, *drifts)
    return reports


@one_blas_thread()
def run_path(config, u0_spec, track=None) -> SolutionHistory:
    """Run all num_steps steps from ``u0_spec``, a case tag or the stacked
    coefficients (see SolutionHistory); the noise track may be omitted for
    deterministic runs.  Configs that differ in the mesh alone, with one
    track each on its mesh, run in lockstep, stacked mesh after mesh, each
    mesh's states and residual traces bit for bit those of its own run.

    Each step's known^n = tau^{-alpha} (A_n U^0 - sum_{j<n} a_{n-j} U^j) +
    b^n is summed per mesh in blocks of BLOCK steps (module docstring).
    Raises NewtonDivergence with the failing step index on non-convergence
    and MassDriftError if mass conservation degrades beyond 1e-10 * (1 +
    ||U^0||), each naming the failing mesh's place.  BLAS runs on one
    thread throughout, so the sums keep one order whatever the settings.
    """
    hist = SolutionHistory(config, u0_spec)
    configs, config = hist.configs, hist.configs[0]
    tracks = [track] if track is None or isinstance(track, ProjectedNoiseTrack) else track
    if track is not None:
        if len(tracks) != len(configs):
            raise ValueError(f"{len(tracks)} tracks for {len(configs)} meshes")
        for one, mine in zip(tracks, configs):
            if one.mesh != mine.mesh:
                raise ValueError(f"track on {one.mesh} for a run on {mine.mesh}")
            if one.num_steps < config.num_steps or abs(one.tau / config.tau - 1) > 1e-12:
                raise ValueError(
                    f"track of {one.num_steps} steps of {one.tau} does not fit a run "
                    f"of {config.num_steps} steps of {config.tau}"
                )
        gamma_weights = cq_weights(-config.gamma, config.num_steps)
    # only run_path's known terms conserve mass, so only it bounds the drift
    u0 = [FeFunction(c.mesh, u) for c, u in zip(configs, hist.split(hist.u0))]
    hist.mass_tol = [1e-10 * (1.0 + l2_norm(u)) for u in u0]
    ws, states = hist.workspace, hist._states
    a = ws.alpha_weights.weights
    A = np.cumsum(a)  # A_n = a_0 + ... + a_n, the weights of order alpha - 1
    for first in range(1, config.num_steps + 1, BLOCK):
        rows = min(BLOCK, config.num_steps + 1 - first)
        # far part: the states U^0..U^{first-1} known when the block starts.
        # Every product is taken per mesh, so a stacked mesh gets its run's bits
        far = cq_block(ws.alpha_weights, first, rows, first)
        partial, known = A[first : first + rows, None], np.empty((rows, states.shape[1]))
        for k, nodes in enumerate(ws.nodes):
            known[:, nodes] = ws.tau_na * (partial * states[0, nodes] - far @ states[:first, nodes])
            if track is not None:
                known[:, nodes] += integrated_noise(tracks[k], gamma_weights, first, rows)
        for i in range(rows):
            # near part: the states U^first..U^{n-1} of this block
            for nodes in ws.nodes:
                known[i, nodes] -= ws.tau_na * (a[i:0:-1] @ states[first : first + i, nodes])
            step(hist, known[i])
    return hist


def trajectory_csv(hist: SolutionHistory) -> str:
    """CSV rows (n, t_n, nodal values...) for plotting."""
    nodes = hist.config.mesh.num_nodes
    lines = ["n,t," + ",".join(f"u{i}" for i in range(nodes))]
    for n in range(hist.size):
        vals = ",".join(f"{v:.17g}" for v in hist.state(n))
        lines.append(f"{n},{n * hist.config.tau:.17g},{vals}")
    return "\n".join(lines) + "\n"
