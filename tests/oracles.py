"""Independent oracles used across the test suite.

Everything here is deliberately written from the defining formulas with
different numerics than the package (binomials instead of the recursion,
dense matrices instead of banded, generic quadrature instead of closed
forms, extended precision instead of double) so that agreement is
evidence rather than tautology.

The second half holds helpers that only the tests use: per-step
fractional operators, the resolvent kernels of the linear
cross-checks, diagnostics of a run, and the CSV reader of the tables.
"""

from dataclasses import dataclass
from math import gamma as _gamma

import numpy as np
from scipy.integrate import quad
from scipy.special import binom, rgamma

from fracch.fem1d import (
    GAUSS3,
    FeFunction,
    SymTridiagonal,
    UniformMesh1D,
    assemble_mass,
    assemble_stiffness,
    l2_norm,
)
from fracch.fracops import CqWeights, cq_weights
from fracch.harness import ErrorTable, theoretical_rate
from fracch.mlf import mittag_leffler
from fracch.noise import ProjectedNoiseTrack


def binomial_weights(order: float, n_max: int) -> np.ndarray:
    """a_j = (-1)^j * binom(order, j) straight from the definition.

    An order below -1/2 takes the equal form binom(j - order - 1, j), away
    from the pole of scipy's binom at order -1: it is nan there and keeps
    no correct digit for j >= 20 near it.
    """
    j = np.arange(n_max + 1)
    if order < -0.5:
        return binom(j - order - 1.0, j)
    return (-1.0) ** j * binom(order, j)


def rl_integral_of_power(gamma: float, mu: float, t: float) -> float:
    """Exact Riemann-Liouville integral of s^mu at time t."""
    from math import gamma as g

    return g(mu + 1.0) / g(mu + gamma + 1.0) * t ** (mu + gamma)


def scalar_cq_solve(lam: float, alpha: float, tau: float, f: np.ndarray) -> np.ndarray:
    """Step-by-step solve of tau^-a sum_j a_{n-j} u_j + lam^2 u_n = f_n.

    ``f`` holds f_1..f_N; returns u_0..u_N with u_0 = 0.  Plain loop, no
    series inversion.
    """
    n_max = len(f)
    a = binomial_weights(alpha, n_max)
    ta = tau**-alpha
    u = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        hist = ta * np.dot(a[1:n][::-1], u[1:n]) if n > 1 else 0.0
        u[n] = (f[n - 1] - hist) / (ta + lam**2)
    return u


def history_rhs(hist, weights: CqWeights, tau: float, n: int) -> np.ndarray:
    """Lagged convolution part tau^{-alpha} sum_{j<n} a_{n-j} (U^j - U^0),
    one GEMV per step; the solver sums it in blocks."""
    if n < 1 or n > hist.size:
        raise ValueError(f"need history through step {n - 1}, have {hist.size - 1}")
    if len(weights) < n + 1:
        raise ValueError(f"weights too short for step {n}")
    rev = weights.weights[1 : n + 1][::-1]  # a_n .. a_1 against U^0 .. U^{n-1}
    return tau**-weights.order * (rev @ (hist.states_array()[:n] - hist.u0))


def frames(track) -> np.ndarray:
    """The nodal noise frames g^0 = 0, g^1..g^N of a track as rows."""
    out = np.zeros((track.num_steps + 1, track.mesh.num_nodes))
    out[1:] = track.increments.T @ track.basis.T
    return out


def nodal_track(mesh, tau: float, values) -> ProjectedNoiseTrack:
    """A track of hand-built nodal frames g^0..g^N (rows; g^0 unread): the
    frames are its increments and the identity its basis."""
    values = np.asarray(values, dtype=float)
    return ProjectedNoiseTrack(mesh, tau, values[1:].T, np.eye(values.shape[1]))


def frac_integrated_noise(track, gamma: float, tau: float, n: int, weights=None):
    """Fractionally integrated noise term tau^gamma sum_k a^(-gamma)_{n-k} g^k,
    one GEMV per step; the solver sums it in blocks.

    For gamma = 0 this collapses to g^n.  ``weights`` may carry
    pre-computed integration weights (order -gamma, length > n).
    """
    if not 1 <= n <= track.num_steps:
        raise ValueError(f"step index {n} outside 1..{track.num_steps}")
    if abs(tau - track.tau) > 1e-12 * track.tau:
        raise ValueError(f"tau {tau} does not match track tau {track.tau}")
    if weights is None:
        weights = cq_weights(-gamma, n)
    elif weights.order != -gamma or len(weights) < n:
        raise ValueError("weights must have order -gamma and length > n")
    rev = weights.weights[:n][::-1]
    return tau**gamma * (rev @ frames(track)[1 : n + 1])


# 12-point Gauss-Legendre on [0, 1]: exact to polynomial degree 23,
# plenty for every nonlinear FE integrand in the package.
_GP, _GW = np.polynomial.legendre.leggauss(12)
_GP = (_GP + 1.0) / 2.0
_GW = _GW / 2.0


def load_vector_quadrature(u: FeFunction, fun) -> np.ndarray:
    """Loads int fun(u_h(x)) chi_i(x) dx with 12-point Gauss per element."""
    c = u.coeffs
    h = u.mesh.h
    vals = np.outer(c[:-1], 1.0 - _GP) + np.outer(c[1:], _GP)
    fv = fun(vals)
    out = np.zeros(u.mesh.num_nodes)
    out[:-1] += h * (fv @ (_GW * (1.0 - _GP)))
    out[1:] += h * (fv @ (_GW * _GP))
    return out


def cosine_load_adaptive(mesh: UniformMesh1D, j: int) -> np.ndarray:
    """Loads int sqrt(2) cos(j pi x) chi_i(x) dx by adaptive quadrature."""
    x = mesh.nodes()
    h = mesh.h
    out = np.zeros(mesh.num_nodes)
    for e in range(mesh.num_elements):
        a, b = x[e], x[e + 1]
        left, _ = quad(
            lambda s: np.sqrt(2.0) * np.cos(j * np.pi * s) * (b - s) / h,
            a, b, limit=200,
        )
        right, _ = quad(
            lambda s: np.sqrt(2.0) * np.cos(j * np.pi * s) * (s - a) / h,
            a, b, limit=200,
        )
        out[e] += left
        out[e + 1] += right
    return out


def l2_project_cosine(mesh: UniformMesh1D, wavenumber: int) -> FeFunction:
    """L2 projection of sqrt(2)*cos(wavenumber*pi*x) onto the mesh, one
    wavenumber and one mass solve at a time: the single-column reference
    of ``cosine_projection_basis``."""
    w = wavenumber * np.pi
    x = mesh.nodes()
    a, b, h = x[:-1], x[1:], mesh.h
    ca, cb = np.cos(w * a), np.cos(w * b)
    load = np.zeros(mesh.num_nodes)
    load[:-1] += ((ca - cb) / w**2 - h * np.sin(w * a) / w) / h
    load[1:] += ((cb - ca) / w**2 + h * np.sin(w * b) / w) / h
    return FeFunction(mesh, assemble_mass(mesh).solve(np.sqrt(2.0) * load))


def dense_mass(mesh: UniformMesh1D) -> np.ndarray:
    h = mesh.h
    n = mesh.num_nodes
    out = np.zeros((n, n))
    block = h * np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    for e in range(mesh.num_elements):
        out[e : e + 2, e : e + 2] += block
    return out


def dense_stiffness(mesh: UniformMesh1D) -> np.ndarray:
    h = mesh.h
    n = mesh.num_nodes
    out = np.zeros((n, n))
    block = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    for e in range(mesh.num_elements):
        out[e : e + 2, e : e + 2] += block
    return out


def series_digits(alpha: float, beta: float, z: float) -> int:
    """Digits the Mittag-Leffler series needs at z: those of its largest
    term, which it cancels, plus 40 guard digits."""
    from scipy.special import gammaln

    absz = abs(z)
    peak = 0.0
    if absz > 1.0:
        k_star = max(absz ** (1.0 / alpha) / alpha, 1.0)
        for k in (int(k_star), int(k_star) + 1, 1):
            peak = max(
                peak, k * np.log10(absz) - gammaln(alpha * k + beta) / np.log(10.0)
            )
    return int(peak) + 40


def ml_series_highprec(alpha: float, beta: float, z: float) -> float:
    """Mittag-Leffler series in mpmath with digits scaled to the peak term.

    The alternating series cancels catastrophically for large |z|, so the
    working precision is raised to cover the largest intermediate term
    plus 40 guard digits.  Usable down to moderately negative z; cost
    grows quickly with |z|^(1/alpha), so callers restrict the depth.
    """
    import mpmath as mp

    dps = series_digits(alpha, beta, z)
    with mp.workdps(dps):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        term = 1 / mp.gamma(b)
        tol = mp.mpf(10) ** (-(dps - 5))
        for k in range(1, 200_000):
            total += term
            term = zz**k / mp.gamma(a * k + b)
            if abs(term) < tol * max(abs(total), tol):
                total += term
                break
        return float(total)


def ml_highprec(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z), z < 0, by the series where it needs at most 100
    digits and by the branch-cut integral where it would need more, and
    would take seconds (small alpha, |z| of a few units)."""
    if series_digits(alpha, beta, z) <= 100:
        return ml_series_highprec(alpha, beta, z)
    return ml_branch_cut_highprec(alpha, beta, z)


def ml_asymptotic(alpha: float, beta: float, z: float, k_max: int = 60) -> float:
    """Asymptotic expansion -sum_{k>=1} z^-k / Gamma(beta - alpha k).

    Truncated at the smallest term; exact zeros from Gamma poles are
    skipped when deciding where to stop.  Truncation error is roughly
    the size of the first omitted term, so this is only trustworthy for
    |z| well past the series range (used at |z| >= 15, where the floor
    sits near 1e-8 in the worst tested corner).
    """
    total = 0.0
    smallest = np.inf
    for k in range(1, k_max + 1):
        term = -(z ** (-k)) * rgamma(beta - alpha * k)
        if not np.isfinite(term):
            break
        if term == 0.0:
            continue
        if abs(term) > smallest:
            break
        smallest = abs(term)
        total += term
    return total


def ml_branch_cut_highprec(alpha: float, beta: float, z: float, dps: int = 30) -> float:
    """The branch-cut integral of E_{alpha,beta}(z), z < 0, by mpmath
    quadrature at ``dps`` digits.

    Same integrand as the package's, different quadrature and arithmetic.
    It is cheap where the series would need thousands of digits (small
    alpha, moderate |z|); the interval is split where the denominator
    dips (u = x and u = -x cos(pi alpha)) and where exp(-u^(1/alpha))
    turns over (u = 1).  The integral holds for beta < 1 + alpha; a
    larger beta is first lowered, in mpmath, by E_{alpha,beta}(z) =
    (E_{alpha,beta-alpha}(z) - 1/Gamma(beta - alpha)) / z.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, x = mp.mpf(alpha), -mp.mpf(z)
        betas = [mp.mpf(beta)]
        while betas[-1] >= 1 + a:
            betas.append(betas[-1] - a)
        b = betas.pop()
        sb, sba, ca = mp.sinpi(b), mp.sinpi(b - a), mp.cospi(a)

        def f(u):
            num = u * sb + x * sba
            den = u * u + 2 * x * u * ca + x * x
            return mp.exp(-(u ** (1 / a))) * u ** ((1 - b) / a) * num / den

        cuts = sorted({p for p in (x, -x * ca, mp.mpf(1)) if p > 0})
        value = mp.quad(f, [0, *cuts, mp.inf]) / (a * mp.pi)
        for c in reversed(betas):
            value = (value - mp.rgamma(c - a)) / -x
        return float(value)


def case_b_modal_solution(alpha, epsilon, t, x, num_modes) -> np.ndarray:
    """The exact linear solution from u0 = 0.05 cos(2 pi x) as a sum over
    the cosine modes sqrt(2) cos(j pi x), j = 1..num_modes (num_modes >= 2),
    mode j decaying by E_{alpha,1}(-eps^2 (j pi)^4 t^alpha).

    Only j = 2 carries the datum, so the package's one-mode closed form
    must give the same bits.
    """
    modes = np.zeros(num_modes)
    modes[1] = 0.05 / np.sqrt(2.0)
    j = np.arange(1, num_modes + 1)
    lam = (j * np.pi) ** 2
    coeffs = modes * mittag_leffler(alpha, 1.0, -(epsilon**2) * lam**2 * t**alpha)
    return np.sqrt(2.0) * (np.cos(np.outer(np.asarray(x), j) * np.pi) @ coeffs)


def classic_mixed_be(mesh, epsilon, tau, num_steps, forcing, u0, tol=1e-13):
    """Backward-Euler mixed stepper for the classical problem, written
    independently: dense literal assembly, 4-point Gauss for the cubic
    terms, full (2n+1) Newton systems solved with numpy.

    ``forcing`` has rows f^1..f^N (FE coefficients of the scaled noise).
    Returns the trajectory array of shape (num_steps + 1, nodes).
    """
    n = mesh.num_nodes
    mass = dense_mass(mesh)
    stiff = dense_stiffness(mesh)
    gp, gw = np.polynomial.legendre.leggauss(4)
    gp = (gp + 1.0) / 2.0
    gw = gw / 2.0
    h = mesh.h

    def phi_load(u):
        out = np.zeros(n)
        for e in range(mesh.num_elements):
            vals = u[e] * (1.0 - gp) + u[e + 1] * gp
            phi = vals**3 - vals
            out[e] += h * np.sum(gw * phi * (1.0 - gp))
            out[e + 1] += h * np.sum(gw * phi * gp)
        return out

    def phi_jac(u):
        out = np.zeros((n, n))
        for e in range(mesh.num_elements):
            vals = u[e] * (1.0 - gp) + u[e + 1] * gp
            psi = 3.0 * vals**2 - 1.0
            out[e, e] += h * np.sum(gw * psi * (1.0 - gp) ** 2)
            out[e + 1, e + 1] += h * np.sum(gw * psi * gp**2)
            val = h * np.sum(gw * psi * gp * (1.0 - gp))
            out[e, e + 1] += val
            out[e + 1, e] += val
        return out

    me = mass @ np.ones(n)
    eps2 = epsilon**2
    u = np.asarray(u0, dtype=float).copy()
    f0 = phi_load(u)
    theta = float(f0.sum())
    w = np.linalg.solve(mass, eps2 * stiff @ u + f0 - theta * me)
    states = np.zeros((num_steps + 1, n))
    states[0] = u
    for step in range(1, num_steps + 1):
        rhs1 = mass @ (u / tau + forcing[step - 1])
        scale = 1.0 + np.linalg.norm(rhs1)
        for _ in range(60):
            r1 = mass @ u / tau + stiff @ w - rhs1
            r2 = mass @ w - eps2 * stiff @ u - phi_load(u) + theta * me
            r3 = me @ w
            if np.sqrt(r1 @ r1 + r2 @ r2 + r3 * r3) <= tol * scale:
                break
            jac = np.zeros((2 * n + 1, 2 * n + 1))
            jac[:n, :n] = mass / tau
            jac[:n, n : 2 * n] = stiff
            jac[n : 2 * n, :n] = -eps2 * stiff - phi_jac(u)
            jac[n : 2 * n, n : 2 * n] = mass
            jac[n : 2 * n, 2 * n] = me
            jac[2 * n, n : 2 * n] = me
            dz = np.linalg.solve(jac, -np.concatenate([r1, r2, [r3]]))
            u = u + dz[:n]
            w = w + dz[n : 2 * n]
            theta = theta + dz[2 * n]
        states[step] = u
    return states


def exact_newton_path(config, u0, track=None, tol=1e-14):
    """The fractional scheme of ``fracch.solver`` stepped with exact Newton
    on dense matrices: the known term from binomial weights, the cubic
    load and Jacobian of :func:`nonlinear_load` and
    :func:`nonlinear_jacobian`, and the full Newton matrix solved with
    numpy at every iteration, until the residual is at most
    ``tol * (1 + |M known|)`` or stops shrinking.  A step that does not
    shrink the residual is halved until it does, up to 40 times.

    Returns the states (num_steps + 1, nodes) and, per step, the 2-norm
    of the inverse Newton matrix at the solution times 1 + |M known|:
    how far a residual of ``newton_tol`` times the solver's scale can move
    that step's solution.
    """
    mesh, tau, num_steps = config.mesh, config.tau, config.num_steps
    n = mesh.num_nodes
    mass, stiff = dense_mass(mesh), dense_stiffness(mesh)
    eps2, ta = config.epsilon**2, tau**-config.alpha
    a = binomial_weights(config.alpha, num_steps)
    phi = config.include_phi

    def load(u):
        return nonlinear_load(FeFunction(mesh, u)) if phi else np.zeros(n)

    def newton_matrix(u):
        jac = np.zeros((2 * n, 2 * n))
        jac[:n, :n], jac[:n, n:] = ta * mass, stiff
        jac[n:, :n], jac[n:, n:] = -eps2 * stiff, mass
        if phi:
            jac[n:, :n] -= dense(nonlinear_jacobian(FeFunction(mesh, u)))
        return jac

    states = np.zeros((num_steps + 1, n))
    states[0] = u = np.asarray(u0, dtype=float)
    w = np.linalg.solve(mass, eps2 * stiff @ u + load(u))
    budget = []
    for step in range(1, num_steps + 1):
        known = ta * (a[: step + 1].sum() * states[0] - a[step:0:-1] @ states[:step])
        if track is not None:
            known += frac_integrated_noise(track, config.gamma, tau, step)
        rhs = mass @ known
        scale = 1.0 + np.linalg.norm(rhs)

        def residual(u, w):
            return np.concatenate([
                ta * mass @ u + stiff @ w - rhs,
                mass @ w - eps2 * stiff @ u - load(u),
            ])

        res = residual(u, w)
        while np.linalg.norm(res) > tol * scale:
            dz = np.linalg.solve(newton_matrix(u), -res)
            for _ in range(40):
                res_new = residual(u + dz[:n], w + dz[n:])
                if np.linalg.norm(res_new) < np.linalg.norm(res):
                    break
                dz /= 2.0
            else:  # the residual is as small as rounding lets it be
                break
            u, w, res = u + dz[:n], w + dz[n:], res_new
        states[step] = u
        budget.append(np.linalg.norm(np.linalg.inv(newton_matrix(u)), 2) * scale)
    return states, np.array(budget)


# ---------------------------------------------------------------------------
# Helpers that only the tests use.


def frac_apply(weights: CqWeights, tau: float, history: np.ndarray) -> np.ndarray:
    """Apply the discrete operator to a history phi_0..phi_n at step n.

    Returns tau**(-order) * sum_j a_{n-j} phi_j, where n = len(history)-1.
    ``history`` may be a 1-d array of scalars or a 2-d array whose rows are
    state vectors; the result has the shape of one entry.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    hist = np.asarray(history, dtype=float)
    n = hist.shape[0] - 1
    if n < 0:
        raise ValueError("history must contain at least one entry")
    if n + 1 > len(weights.weights):
        raise ValueError(
            f"history length {n + 1} exceeds available weights {len(weights.weights)}"
        )
    rev = weights.weights[: n + 1][::-1]
    return tau ** (-weights.order) * (rev @ hist)


def weight_convolution_check(alpha: float, n_max: int) -> float:
    """Max deviation of a^(alpha) * a^(-alpha) from the Kronecker delta.

    The generating functions multiply to 1, so the discrete convolution of
    the two weight families must reproduce (1, 0, 0, ...).  Returns the
    largest absolute deviation up to index n_max.
    """
    wp = cq_weights(alpha, n_max).weights
    wm = cq_weights(-alpha, n_max).weights
    conv = np.convolve(wp, wm)[: n_max + 1]
    conv[0] -= 1.0
    return float(np.max(np.abs(conv)))


def weight_lower_bound_check(alpha: float, tau: float, n_max: int) -> bool:
    """Check tau^alpha * a_n^(-alpha) >= tau * t_n^(alpha-1) / (2*Gamma(alpha)).

    The integration weights of order -alpha stay within a factor of two of
    the kernel values t^(alpha-1)/Gamma(alpha) at the grid points.  The
    bare ratio a_n^(-alpha) * Gamma(alpha) * n^(1-alpha) equals
    Gamma(n+alpha)/(Gamma(n+1)*n^(alpha-1)), which increases to 1 from
    below, so the factor 1/2 (in fact Gamma(1+alpha)) is what actually
    holds; this is the estimate the error analysis needs to control the
    noise memory term.  Verified for n = 1..n_max.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    w = cq_weights(-alpha, n_max).weights
    n = np.arange(1, n_max + 1)
    lhs = tau**alpha * w[1:]
    rhs = tau * (n * tau) ** (alpha - 1.0) / (2.0 * _gamma(alpha))
    return bool(np.all(lhs >= rhs))


@dataclass(frozen=True)
class KernelSeries:
    """Discrete resolvent kernels of one eigenmode.

    ``r[0] == q[0] == 1`` by convention (the index-0 coefficients are never
    used in the solution representation, which convolves from index 1).
    """

    alpha: float
    gamma: float
    lam: float
    tau: float
    r: np.ndarray
    q: np.ndarray


def _series_inverse(b: np.ndarray) -> np.ndarray:
    """Coefficients of 1/b(z) for a power series with b[0] != 0."""
    c = np.empty_like(b)
    c[0] = 1.0 / b[0]
    for n in range(1, len(b)):
        c[n] = -(b[1 : n + 1] @ c[n - 1 :: -1]) / b[0]
    return c


def resolvent_kernels(
    lam: float, alpha: float, gamma: float, tau: float, n_max: int
) -> KernelSeries:
    """Kernel sequences r_0..r_n and q_0..q_n for eigenvalue ``lam``.

    They represent the solution of the scalar scheme

        tau^{-alpha} * sum_j a^{(alpha)}_{n-j} u_j + lam^2 u_n = f_n

    as discrete convolutions: ``r`` propagates a plain forcing history and
    ``q`` a forcing history that enters through an extra fractional
    integral of order gamma.  With b(z) = tau^{-alpha} (1-z)^alpha + lam^2
    and c = 1/b (power series division, O(n^2)):

        r_n = c_{n-1} / tau                          (n >= 1)
        q_n = tau^{gamma-1} * (c * a^(-gamma))_{n-1}  (n >= 1)

    For gamma = 0 the two sequences coincide; for lam = 0 they reduce to
    pure fractional-integration weights.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    b = tau ** (-alpha) * cq_weights(alpha, n_max).weights
    b[0] += lam**2
    c = _series_inverse(b)
    r = np.empty(n_max + 1)
    r[0] = 1.0
    r[1:] = c[:-1] / tau
    q = np.empty(n_max + 1)
    q[0] = 1.0
    if n_max >= 1:
        ag = cq_weights(-gamma, n_max - 1).weights
        q[1:] = tau ** (gamma - 1.0) * np.convolve(c[:-1], ag)[:n_max]
    return KernelSeries(alpha, gamma, lam, tau, r, q)


def dense(matrix: SymTridiagonal) -> np.ndarray:
    """The full square array of a symmetric tridiagonal matrix."""
    return (
        np.diag(matrix.diag)
        + np.diag(matrix.offdiag, 1)
        + np.diag(matrix.offdiag, -1)
    )


# the hat shape functions at the Gauss points of GAUSS3, folded with its
# weights; fem1d.cubic_terms folds the same products into one matrix
_P, _W = GAUSS3.points, GAUSS3.weights
_Q = 1.0 - _P
_LOAD_L, _LOAD_R = _W * _Q, _W * _P
_JAC_LL, _JAC_RR, _JAC_LR = _W * _Q**2, _W * _P**2, _W * _P * _Q


def gauss_values(u: FeFunction) -> np.ndarray:
    """Values of u at the Gauss points of GAUSS3, shaped (elements, points)."""
    c = u.coeffs
    return c[:-1, None] * _Q + c[1:, None] * _P


def nonlinear_load(u: FeFunction) -> np.ndarray:
    """Load vector of phi(u) = u^3 - u against the hat basis."""
    values = gauss_values(u)
    phi = values * values * values - values
    out = np.zeros(u.mesh.num_nodes)
    out[:-1] += u.mesh.h * (phi @ _LOAD_L)
    out[1:] += u.mesh.h * (phi @ _LOAD_R)
    return out


def nonlinear_jacobian(u: FeFunction) -> SymTridiagonal:
    """Jacobian of :func:`nonlinear_load`: entries int (3u^2-1) chi_i chi_j."""
    psi = 3.0 * gauss_values(u) ** 2 - 1.0
    diag = np.zeros(u.mesh.num_nodes)
    diag[:-1] += u.mesh.h * (psi @ _JAC_LL)
    diag[1:] += u.mesh.h * (psi @ _JAC_RR)
    return SymTridiagonal(diag, u.mesh.h * (psi @ _JAC_LR))


def project_mean_zero(u: FeFunction) -> FeFunction:
    """Subtract the mean value so the result is L2-orthogonal to constants."""
    mass = assemble_mass(u.mesh)
    ones = np.ones(u.mesh.num_nodes)
    measure = ones @ mass.matvec(ones)
    mean = (ones @ mass.matvec(u.coeffs)) / measure
    return FeFunction(u.mesh, u.coeffs - mean)


def h1_seminorm(u: FeFunction) -> float:
    q = u.coeffs @ assemble_stiffness(u.mesh).matvec(u.coeffs)
    return float(np.sqrt(max(q, 0.0)))


def history_mass(hist, n: int) -> float:
    """The conserved functional (U^n, 1) of a ``SolutionHistory``."""
    return float(hist.workspace.me @ hist.state(n))


def max_laplacian_norm(hist) -> float:
    """max_n of the L2 norm of the discrete Laplacian of U^n."""
    ws = hist.workspace
    out = 0.0
    for n in range(hist.size):
        v = ws.mass.solve(ws.stiff.matvec(hist.state(n)))
        out = max(out, l2_norm(FeFunction(hist.config.mesh, v)))
    return out


def strict_temporal_rate(alpha: float, gamma: float, beta: float) -> float:
    """Uniform-in-time temporal order min(alpha/2, mu, zeta)."""
    summary = theoretical_rate(alpha, gamma, beta)
    return min(alpha / 2.0, summary.mu, summary.zeta)


def error_norm(errors) -> float:
    """Root-mean-square of the spatial L2 norms of the sample errors."""
    errors = list(errors)
    if not errors:
        raise ValueError("empty sample set")
    sq = [l2_norm(e) ** 2 for e in errors]
    return float(np.sqrt(np.mean(sq)))


def read_table(source) -> ErrorTable:
    """Parse the text of ``harness.table_text`` from a file or a stream."""
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
