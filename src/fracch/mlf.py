"""Mittag-Leffler function on the nonpositive real axis, in double
precision, plus the exact solution of the linear (phi = 0), noise-free
problem from the case "b" datum.

Evaluation strategy for E_{alpha,beta}(z), z <= 0, 0 < alpha <= 1:

* ``z >= Z_SWITCH`` (= -5) and the largest term of the defining power
  series at most 1e4: that series.  It alternates, so a larger peak
  term would cancel past the target accuracy.  Truncation: the running
  term falls below 1e-16 times the partial sum.
* everywhere else: the real-axis integral representation obtained by
  collapsing the Hankel contour onto the branch cut,

      E_{a,b}(-x) = 1/(a*pi) * int_0^inf exp(-u^(1/a)) u^((1-b)/a)
                    * (u sin(pi b) + x sin(pi (b - a)))
                    / (u^2 + 2 x u cos(pi a) + x^2) du,

  integrated adaptively (Gorenflo, Loutchko & Luchko, Fract. Calc.
  Appl. Anal. 5 (2002) 491).  Valid for beta < 1 + alpha; larger beta is
  reduced with E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, and
  alpha = 1 takes exp(z).  |z| <= 1 always stays on the series (its peak
  term is its first): near z = 0 the integrand peaks so sharply at small
  u that the quadrature misses half the value (at z = -1e-5, and at
  z = -1e-3 for alpha = 0.9).

Target absolute accuracy is 1e-10; the test suite checks both branches
against closed forms (erfcx for alpha = 1/2), an asymptotic expansion and
a high-precision oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, rgamma

Z_SWITCH = -5.0

# log10 of the largest peak term the double series may sum: past 1e4 it
# could not deliver ~1e-11 absolute accuracy, so the integral takes over.
_SERIES_PEAK_LOG10_LIMIT = 4.0
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
    if not z <= 0.0:
        raise ValueError(f"only z <= 0 is supported, got {z}")
    if z >= Z_SWITCH and _series_peak_log10(alpha, beta, -z) <= _SERIES_PEAK_LOG10_LIMIT:
        return _series_double(alpha, beta, z)
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


def case_b_linear_solution(alpha: float, epsilon: float, t: float, x) -> np.ndarray:
    """Exact solution of the linear problem from u0 = 0.05*cos(2*pi*x) at
    time t >= 0 and points x: the one cosine mode (j = 2) decays by
    E_{alpha,1}(-eps^2 * lam^2 * t^alpha) with lam = (2*pi)^2.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    # the operations run in the order of the sum over the cosine modes
    # sqrt(2) cos(j*pi*x), so the oracle tables keep that sum's bits;
    # (2*pi)**4 for lam**2, say, moves the last ones
    lam = (2 * np.pi) ** 2
    decay = mittag_leffler(alpha, 1.0, -(epsilon**2) * lam**2 * t**alpha)
    profile = np.cos(np.asarray(x) * 2.0 * np.pi)
    return np.sqrt(2.0) * (profile * (0.05 / np.sqrt(2.0) * decay))
