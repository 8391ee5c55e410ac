"""Mittag-Leffler function on the nonpositive real axis, plus the exact
mode-by-mode solution of the linear (phi = 0), noise-free problem.

Evaluation strategy for E_{alpha,beta}(z), z <= 0, 0 < alpha <= 1:

* ``z >= Z_SWITCH`` (= -5): the defining power series.  The series is
  alternating and its largest intermediate term can dwarf the result, so
  when the predicted peak term would eat into the target accuracy the
  summation is rerun in mpmath with enough working digits to absorb the
  cancellation.  Truncation: the running term falls below 1e-16 times the
  partial sum.
* ``z < Z_SWITCH``: the real-axis integral representation obtained by
  collapsing the Hankel contour onto the branch cut,

      E_{a,b}(-x) = 1/(a*pi) * int_0^inf exp(-u^(1/a)) u^((1-b)/a)
                    * (u sin(pi b) + x sin(pi (b - a)))
                    / (u^2 + 2 x u cos(pi a) + x^2) du,

  integrated adaptively.  Valid for beta < 1 + alpha; larger beta is
  reduced with E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z.

Target absolute accuracy is 1e-10; the test suite checks both branches
against closed forms (erfcx for alpha = 1/2), an asymptotic expansion and
a high-precision oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

Z_SWITCH = -5.0

# Escalate the series to extended precision once the peak term exceeds
# this: double summation then could not deliver ~1e-11 absolute accuracy.
_SERIES_PEAK_LIMIT = 1.0e4
_MAX_SERIES_TERMS = 100_000


def _series_peak_log10(alpha: float, beta: float, absz: float) -> float:
    """log10 of the largest term of sum |z|^k / Gamma(alpha k + beta)."""
    if absz <= 1.0:
        return 0.0
    # term ratio is ~ |z| / (alpha k)^alpha, so the peak sits near
    # alpha k = |z|^(1/alpha)
    k_star = max(absz ** (1.0 / alpha) / alpha, 1.0)
    best = 0.0
    for k in {int(k_star), int(k_star) + 1, 1}:
        val = k * np.log10(absz) - gammaln(alpha * k + beta) / np.log(10.0)
        best = max(best, val)
    return best


def _series_double(alpha: float, beta: float, z: float) -> float:
    total = 0.0
    term = rgamma(beta)
    k = 0
    while k < _MAX_SERIES_TERMS:
        total += term
        k += 1
        term = z**k * rgamma(alpha * k + beta)
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            total += term
            break
    return total


def _series_mpmath(alpha: float, beta: float, z: float, extra_digits: float) -> float:
    import mpmath as mp

    dps = int(extra_digits) + 30
    with mp.workdps(dps):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        term = 1 / mp.gamma(b)
        tol = mp.mpf(10) ** (-(dps - 5))
        for k in range(1, _MAX_SERIES_TERMS):
            total += term
            term = zz**k / mp.gamma(a * k + b)
            if abs(term) < tol * max(abs(total), tol):
                total += term
                break
        return float(total)


def _eval_series(alpha: float, beta: float, z: float) -> float:
    peak = _series_peak_log10(alpha, beta, abs(z))
    if 10.0**peak > _SERIES_PEAK_LIMIT:
        return _series_mpmath(alpha, beta, z, extra_digits=peak)
    return _series_double(alpha, beta, z)


def _eval_tail_integral(alpha: float, beta: float, z: float) -> float:
    """Branch-cut integral for z < 0, 0 < alpha < 1, beta < 1 + alpha."""
    # not at import: scipy.integrate also loads scipy.optimize
    from scipy.integrate import quad

    x = -z
    sb = np.sin(np.pi * beta)
    sba = np.sin(np.pi * (beta - alpha))
    ca = np.cos(np.pi * alpha)
    inv_alpha = 1.0 / alpha
    pw = (1.0 - beta) / alpha
    scale = 1.0 / (alpha * np.pi)

    def f(u: float) -> float:
        num = u * sb + x * sba
        den = u * u + 2.0 * x * u * ca + x * x
        return scale * np.exp(-(u**inv_alpha)) * u**pw * num / den

    # exp(-u^(1/alpha)) is negligible past u1; the denominator can have a
    # sharp minimum near u = -x*cos(pi*alpha), flag it for the quadrature
    u1 = 2.0 * 45.0**alpha + 10.0
    pts = sorted({p for p in (x, -x * ca) if 0.0 < p < u1})
    head, _ = quad(f, 0.0, u1, points=pts or None, limit=400, epsabs=1e-13, epsrel=1e-12)
    tail, _ = quad(f, u1, np.inf, limit=200, epsabs=1e-14, epsrel=1e-12)
    return head + tail


def _eval_one(alpha: float, beta: float, z: float) -> float:
    if z > 0.0:
        raise ValueError(f"only z <= 0 is supported, got {z}")
    if z >= Z_SWITCH:
        return _eval_series(alpha, beta, z)
    # reduce beta below 1 + alpha so the contour collapse is valid
    if beta >= 1.0 + alpha:
        return (_eval_one(alpha, beta - alpha, z) - rgamma(beta - alpha)) / z
    if alpha == 1.0:
        if beta == 1.0:
            return float(np.exp(z))
        raise ValueError(
            f"alpha = 1 with beta = {beta} is not supported for z < {Z_SWITCH}"
        )
    return _eval_tail_integral(alpha, beta, z)


def mittag_leffler(alpha: float, beta: float, z) -> float | np.ndarray:
    """E_{alpha,beta}(z) for real z <= 0 and alpha in (0, 1].

    Scalar ``z`` returns a float; array ``z`` returns an array of the same
    shape.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    zarr = np.asarray(z, dtype=float)
    if zarr.ndim == 0:
        return _eval_one(alpha, beta, float(zarr))
    flat = np.array([_eval_one(alpha, beta, zi) for zi in zarr.ravel()])
    return flat.reshape(zarr.shape)


@dataclass(frozen=True)
class SpectralState:
    """Cosine-mode coefficients (u0, e_j), j = 1..J, of the initial datum."""

    alpha: float
    epsilon: float
    modes: np.ndarray


def case_b_modes(num_modes: int = 64) -> np.ndarray:
    """Mode coefficients of u0(x) = 0.05*cos(2*pi*x)."""
    modes = np.zeros(num_modes)
    if num_modes >= 2:
        modes[1] = 0.05 / np.sqrt(2.0)
    return modes


def spectral_linear_solution(state: SpectralState, t: float) -> np.ndarray:
    """Evolved mode coefficients of the linear problem at time t.

    Mode j decays by E_{alpha,1}(-eps^2 * lam_j^2 * t^alpha) with
    lam_j = (j*pi)^2; at t = 0 the initial coefficients are returned
    unchanged.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return state.modes.copy()
    j = np.arange(1, len(state.modes) + 1)
    lam = (j * np.pi) ** 2
    z = -(state.epsilon**2) * lam**2 * t**state.alpha
    factors = mittag_leffler(state.alpha, 1.0, z)
    return state.modes * factors


def synthesize_modes(modes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Point values sum_j modes_j * sqrt(2) cos(j*pi*x)."""
    j = np.arange(1, len(modes) + 1)
    return np.sqrt(2.0) * (np.cos(np.outer(np.asarray(x), j) * np.pi) @ modes)
