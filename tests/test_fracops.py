import math

import numpy as np
import pytest

from fracch.fracops import cq_weights
from oracles import (
    binomial_weights,
    frac_apply,
    resolvent_kernels,
    rl_integral_of_power,
    scalar_cq_solve,
    weight_convolution_check,
    weight_lower_bound_check,
)


def test_weights_frozen_values():
    assert np.allclose(
        cq_weights(0.5, 3).weights, [1.0, -0.5, -0.125, -0.0625], atol=1e-15
    )
    assert np.allclose(
        cq_weights(-0.5, 3).weights, [1.0, 0.5, 0.375, 0.3125], atol=1e-15
    )
    w1 = cq_weights(1.0, 5).weights
    assert np.allclose(w1, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(cq_weights(-1.0, 5).weights, np.ones(6), atol=1e-15)


def test_weights_match_binomial_oracle():
    for ell in (0.25, 0.5, 0.75, -0.25, -0.5, -0.75):
        ours = cq_weights(ell, 100).weights
        ref = binomial_weights(ell, 100)
        rel = np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-300)
        assert rel.max() <= 1e-10


def test_weight_signs_and_partial_sums():
    for ell in (0.1, 0.3, 0.5, 0.9):
        w = cq_weights(ell, 200).weights
        assert abs(w[0] - 1.0) <= 1e-15
        assert abs(w[1] + ell) <= 1e-15
        assert np.all(w[1:] <= 0.0)
        partial = np.cumsum(w)
        assert np.all(partial >= -1e-15)
        assert np.all(np.diff(partial) <= 1e-15)
    for ell in (-0.1, -0.5, -0.9):
        assert np.all(cq_weights(ell, 200).weights >= 0.0)


def test_weights_validation():
    with pytest.raises(ValueError):
        cq_weights(1.5, 4)
    with pytest.raises(ValueError):
        cq_weights(0.5, -1)
    assert len(cq_weights(0.5, 0)) == 1


def test_convolution_identity():
    assert weight_convolution_check(0.5, 512) <= 1e-12
    assert weight_convolution_check(0.75, 512) <= 1e-12
    assert weight_convolution_check(0.25, 2048) <= 1e-11


def test_kernel_lower_bound():
    assert weight_lower_bound_check(0.5, 0.01, 10_000)
    assert weight_lower_bound_check(0.25, 0.001, 10_000)
    assert weight_lower_bound_check(0.75, 0.1, 1_000)


def test_frac_apply_derivative_of_ramp():
    tau = 0.03
    n = 12
    w = cq_weights(1.0, n)
    ramp = tau * np.arange(n + 1)
    assert frac_apply(w, tau, ramp[:1]) == 0.0
    for m in range(1, n + 1):
        assert abs(frac_apply(w, tau, ramp[: m + 1]) - 1.0) <= 1e-13


def test_frac_apply_integral_of_constant():
    tau = 0.05
    n = 40
    w = cq_weights(-1.0, n)
    ones = np.ones(n + 1)
    for m in (1, 7, n):
        out = frac_apply(w, tau, ones[: m + 1])
        # left-endpoint rule overshoots the integral of 1 by exactly tau
        assert abs(out - tau * (m + 1)) <= 1e-14
        assert abs(out - tau * m) <= tau + 1e-14


def test_frac_apply_fractional_integral_rate():
    # integrate t^gamma by order gamma; compare with the closed form
    gamma = 0.4
    errs = []
    for n in (64, 128, 256):
        tau = 1.0 / n
        t = tau * np.arange(n + 1)
        out = frac_apply(cq_weights(-gamma, n), tau, t**gamma)
        exact = rl_integral_of_power(gamma, gamma, 1.0)
        errs.append(abs(out - exact))
    rates = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(rates >= 0.85)


def test_frac_apply_matrix_history():
    # rows are states; the result is the step-n combination of the rows
    rng = np.random.default_rng(5)
    tau = 0.1
    hist = rng.standard_normal((6, 3))
    w = cq_weights(0.5, 5)
    full = frac_apply(w, tau, hist)
    assert full.shape == (3,)
    for col in range(3):
        single = frac_apply(w, tau, hist[:, col])
        assert abs(full[col] - single) <= 1e-15


def test_frac_apply_validation():
    w = cq_weights(0.5, 3)
    with pytest.raises(ValueError):
        frac_apply(w, -1.0, np.ones(3))
    with pytest.raises(ValueError):
        frac_apply(w, 0.1, np.ones(0))
    with pytest.raises(ValueError):
        frac_apply(w, 0.1, np.ones(6))


def test_resolvent_startup_and_gamma_zero():
    ker = resolvent_kernels(2.0, 0.6, 0.0, 0.01, 64)
    assert ker.r[0] == 1.0 and ker.q[0] == 1.0
    assert np.allclose(ker.r, ker.q, rtol=0, atol=1e-15)
    ker2 = resolvent_kernels(2.0, 0.6, 0.3, 0.01, 64)
    assert ker2.q[0] == 1.0


def test_resolvent_closed_form_lambda_zero():
    tau = 0.02
    n = 80
    alpha, gamma = 0.5, 0.3
    ker = resolvent_kernels(0.0, alpha, gamma, tau, n)
    r_exact = tau ** (alpha - 1.0) * cq_weights(-alpha, n - 1).weights
    assert np.allclose(ker.r[1:], r_exact, rtol=1e-13, atol=0)
    # alpha + gamma may exceed 1, so build the reference from binomials
    q_exact = tau ** (alpha + gamma - 1.0) * binomial_weights(-(alpha + gamma), n - 1)
    assert np.allclose(ker.q[1:], q_exact, rtol=1e-12, atol=0)


def test_resolvent_inverts_scalar_scheme():
    # tau * (r convolved with f) must reproduce the brute-force solve
    rng = np.random.default_rng(17)
    for _ in range(10):
        lam = float(rng.uniform(0.0, 20.0))
        alpha = float(rng.uniform(0.1, 1.0))
        gamma = float(rng.uniform(0.0, 1.0))
        tau = float(rng.uniform(0.005, 0.05))
        n = 48
        ker = resolvent_kernels(lam, alpha, gamma, tau, n)
        f = rng.standard_normal(n)

        direct = scalar_cq_solve(lam, alpha, tau, f)[1:]
        via_r = np.array(
            [tau * np.dot(ker.r[1 : m + 1][::-1], f[:m]) for m in range(1, n + 1)]
        )
        assert np.max(np.abs(direct - via_r)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))

        # q carries the extra fractional integral of the forcing
        aw = cq_weights(-gamma, n).weights
        rhs = np.array(
            [tau**gamma * np.dot(aw[:m][::-1], f[:m]) for m in range(1, n + 1)]
        )
        direct_q = scalar_cq_solve(lam, alpha, tau, rhs)[1:]
        via_q = np.array(
            [tau * np.dot(ker.q[1 : m + 1][::-1], f[:m]) for m in range(1, n + 1)]
        )
        assert np.max(np.abs(direct_q - via_q)) <= 1e-12 * max(
            1.0, np.max(np.abs(direct_q))
        )


def test_resolvent_impulse_response():
    lam, alpha, gamma, tau = 3.0, 0.7, 0.4, 0.01
    n = 32
    ker = resolvent_kernels(lam, alpha, gamma, tau, n)
    f = np.zeros(n)
    f[0] = 1.0 / tau
    u = scalar_cq_solve(lam, alpha, tau, f)[1:]
    assert np.allclose(u, ker.r[1:], rtol=0, atol=1e-12 * np.max(np.abs(ker.r)))


def test_resolvent_positivity():
    # kernels generated by completely monotone symbols stay nonnegative
    for lam in (0.0, 1.0, 10.0):
        ker = resolvent_kernels(lam, 0.5, 0.5, 0.01, 256)
        assert ker.r.min() >= -1e-12 * ker.r.max()
        assert ker.q.min() >= -1e-12 * ker.q.max()


def test_resolvent_validation():
    with pytest.raises(ValueError):
        resolvent_kernels(-1.0, 0.5, 0.5, 0.01, 8)
    with pytest.raises(ValueError):
        resolvent_kernels(1.0, 1.5, 0.5, 0.01, 8)
    with pytest.raises(ValueError):
        resolvent_kernels(1.0, 0.5, 1.5, 0.01, 8)
    with pytest.raises(ValueError):
        resolvent_kernels(1.0, 0.5, 0.5, -0.01, 8)


def test_gamma_relation_of_weights():
    # a_j^(-1) telescopes into partial sums of a^(ell) against a^(ell-1)
    for ell in (0.3, 0.7):
        a = cq_weights(ell, 60).weights
        b = cq_weights(ell - 1.0, 60).weights
        assert np.allclose(np.cumsum(a), b, rtol=1e-12, atol=1e-14)


def test_weights_ratio_asymptotics():
    # a_j ~ j^(-ell-1)/Gamma(-ell): check the ratio settles near 1
    ell = 0.5
    w = cq_weights(ell, 5000).weights
    j = 5000
    approx = j ** (-ell - 1.0) / math.gamma(-ell)
    assert abs(w[j] / approx - 1.0) <= 5e-3
