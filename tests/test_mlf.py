import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx, gamma as spgamma

import fracch
from fracch.mlf import (
    SpectralState,
    case_b_modes,
    mittag_leffler,
    spectral_linear_solution,
    synthesize_modes,
)
from oracles import ml_asymptotic, ml_series_highprec


def test_exponential_case():
    assert abs(mittag_leffler(1.0, 1.0, -1.0) - math.exp(-1.0)) <= 1e-14
    z = -np.linspace(0.0, 30.0, 61)
    out = mittag_leffler(1.0, 1.0, z)
    assert np.max(np.abs(out - np.exp(z))) <= 1e-14


def test_value_at_zero():
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for beta in (0.8, 1.0, 1.5):
            assert abs(mittag_leffler(alpha, beta, 0.0) - 1.0 / spgamma(beta)) <= 1e-14


def test_half_order_matches_erfcx():
    # E_{1/2,1}(-x) = erfcx(x); x = 1 exercises the series branch,
    # x = 3 the tail integral (z = -9)
    for x in (0.3, 1.0, 3.0, 6.0):
        ours = mittag_leffler(0.5, 1.0, -x)
        assert abs(ours - erfcx(x)) <= 1e-10


def test_beta_two_identity():
    for z in (-1.0, -10.0, -50.0):
        exact = (math.exp(z) - 1.0) / z
        assert abs(mittag_leffler(1.0, 2.0, z) - exact) <= 1e-13


def test_monotone_decreasing_and_bounded():
    z = -np.linspace(0.0, 200.0, 1000)
    for alpha in (0.25, 0.5, 0.75):
        vals = mittag_leffler(alpha, 1.0, z)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] == 1.0
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)


def test_complete_monotonicity_second_differences():
    # divided differences of a completely monotone function alternate sign
    x = np.linspace(0.1, 60.0, 400)
    for alpha in (0.3, 0.6, 0.9):
        vals = mittag_leffler(alpha, 1.0, -x)
        d1 = np.diff(vals)
        d2 = np.diff(d1)
        assert np.all(d1 < 0.0)
        assert np.all(d2 > -1e-15)


def test_branch_overlap_is_seamless():
    # series on one side of the switch point, contour integral on the other
    for alpha in (0.4, 0.55, 0.7, 0.9):
        for beta in (1.0, alpha, 1.0 + 0.5 * alpha):
            left = mittag_leffler(alpha, beta, -5.0 - 1e-9)
            right = mittag_leffler(alpha, beta, -5.0 + 1e-9)
            assert abs(left - right) <= 1e-9


def test_matches_highprec_series():
    cases = {
        0.25: np.linspace(-5.0, -0.1, 8),
        0.5: np.linspace(-8.0, -0.1, 8),
        0.75: np.linspace(-8.0, -0.1, 8),
        0.9: np.linspace(-8.0, -0.1, 8),
        1.0: np.linspace(-30.0, -1.0, 8),
    }
    for alpha, zs in cases.items():
        # alpha = 1 below the switch point only supports beta = 1 or the
        # reducible beta >= 2
        for beta in (1.0, 2.0) if alpha == 1.0 else (1.0, 1.8):
            for z in zs:
                ref = ml_series_highprec(alpha, beta, float(z))
                ours = mittag_leffler(alpha, beta, float(z))
                assert abs(ours - ref) <= 1e-10


def test_matches_asymptotic_series():
    for alpha in (0.3, 0.5, 0.75, 0.9):
        for beta in (1.0, 1.4):
            for z in (-15.0, -40.0, -200.0):
                ref = ml_asymptotic(alpha, beta, z)
                ours = mittag_leffler(alpha, beta, z)
                assert abs(ours - ref) <= 2e-8


def test_argument_validation():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.2, 1.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, 1.5, -10.0)


def test_array_shape_handling():
    z = -np.ones((3, 2))
    out = mittag_leffler(0.5, 1.0, z)
    assert out.shape == (3, 2)
    assert np.allclose(out, out[0, 0])
    assert isinstance(mittag_leffler(0.5, 1.0, -1.0), float)


def test_spectral_t_zero_identity():
    state = SpectralState(0.5, 1.0, case_b_modes(8))
    out = spectral_linear_solution(state, 0.0)
    assert np.array_equal(out, state.modes)
    with pytest.raises(ValueError):
        spectral_linear_solution(state, -0.1)


def test_spectral_classical_decay():
    # alpha = 1: mode j decays like exp(-eps^2 (j pi)^4 t)
    eps = 0.3
    modes = np.zeros(3)
    modes[0] = 1.0
    state = SpectralState(1.0, eps, modes)
    t = 0.02
    out = spectral_linear_solution(state, t)
    assert abs(out[0] - math.exp(-(eps**2) * np.pi**4 * t)) <= 1e-13
    assert np.all(out[1:] == 0.0)


def test_case_b_modes():
    modes = case_b_modes(16)
    assert modes.shape == (16,)
    assert abs(modes[1] - 0.05 / math.sqrt(2.0)) <= 1e-17
    assert np.count_nonzero(modes) == 1
    # synthesized profile is 0.05*cos(2 pi x)
    x = np.linspace(0.0, 1.0, 101)
    vals = synthesize_modes(modes, x)
    assert np.max(np.abs(vals - 0.05 * np.cos(2 * np.pi * x))) <= 1e-15


def test_synthesize_single_mode():
    modes = np.array([0.0, 0.0, 2.0])
    x = np.array([0.0, 0.25, 0.5])
    vals = synthesize_modes(modes, x)
    exact = 2.0 * np.sqrt(2.0) * np.cos(3 * np.pi * x)
    assert np.allclose(vals, exact, atol=1e-14)


def test_importing_fracch_does_not_load_scipy_integrate():
    # quad is imported on first use of the branch-cut integral, so the
    # set-up of a study (import, plan parsing, validation) skips
    # scipy.integrate and the scipy.optimize it pulls in
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import fracch\n"
        "from fracch.harness import ensure_valid, plan_from_json\n"
        "ensure_valid(plan_from_json(json.dumps({'study': 'spatial', 'case': 'a',"
        " 'alpha': 0.5, 'gamma': 0.6, 'm': 1.0, 't_final': 0.01,"
        " 'reference': 640, 'resolutions': [20, 40], 'num_steps': 256,"
        " 'samples': 2})))\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))\n"
    )
    src = str(Path(fracch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
