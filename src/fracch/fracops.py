"""Convolution quadrature on a uniform time grid.

Backward-Euler generating function: the weights of order ``ell`` are the
coefficients of (1 - z)**ell, i.e. a_j = (-1)**j * binom(ell, j).  Positive
orders discretize a derivative of that order, negative orders an integral.
The weights are generated by the stable two-term recursion

    a_0 = 1,    a_j = a_{j-1} * (j - 1 - ell) / j,

which is accurate to a few ulp for every order in [-1, 1]; a log-gamma
binomial formula is kept in the test suite as an independent oracle.
``cq_block`` cuts a block of rows out of the lower-triangular Toeplitz
matrix of the weights, so a block of convolution sums is one GEMM.

``resolvent_kernels`` builds, for one spatial eigenmode, the two discrete
kernel sequences that represent the solution of the scalar scheme

    tau^{-alpha} * sum_j a^{(alpha)}_{n-j} u_j + lam^2 u_n = f_n

as discrete convolutions: ``r`` propagates a plain forcing history and
``q`` a forcing history that enters through an extra fractional integral
of order gamma.  Both come from power series division and are O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as _gamma

import numpy as np
from scipy.linalg import toeplitz


@dataclass(frozen=True)
class CqWeights:
    """Quadrature weights a_0..a_n for one fractional order."""

    order: float
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


def cq_weights(order: float, n_max: int) -> CqWeights:
    """Weights a_0..a_{n_max} of the backward-Euler rule of given order."""
    if not -1.0 <= order <= 1.0:
        raise ValueError(f"order must lie in [-1, 1], got {order}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    w = np.empty(n_max + 1)
    w[0] = 1.0
    for j in range(1, n_max + 1):
        w[j] = w[j - 1] * (j - 1 - order) / j
    return CqWeights(order, w)


def cq_block(weights: CqWeights, first: int, rows: int, cols: int) -> np.ndarray:
    """Rows first..first+rows-1, columns 0..cols-1 of the lower-triangular
    Toeplitz matrix L[n, j] = a_{n-j} (zero for j > n).

    ``L @ phi`` stacks the convolution sums sum_{j<=n} a_{n-j} phi_j of
    rows n, so one block of steps costs one matrix product (Hairer,
    Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532).
    """
    if first < 0 or rows < 1 or cols < 1:
        raise ValueError(f"bad block first={first}, rows={rows}, cols={cols}")
    if first + rows > len(weights):
        raise ValueError(f"weights too short for rows through {first + rows - 1}")
    w = weights.weights
    top = np.zeros(cols)
    k = min(cols, first + 1)
    top[:k] = w[first::-1][:k]
    return toeplitz(w[first : first + rows], top)


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

    With b(z) = tau^{-alpha} (1-z)^alpha + lam^2 and c = 1/b:

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
