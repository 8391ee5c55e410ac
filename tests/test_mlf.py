import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx, gamma as spgamma

import fracch
from fracch.fem1d import UniformMesh1D
from fracch.mlf import case_b_linear_solution, mittag_leffler
from oracles import (
    case_b_modal_solution,
    ml_asymptotic,
    ml_branch_cut_highprec,
    ml_highprec,
    ml_series_highprec,
)


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
    # the reference takes the branch-cut integral where the series would
    # need over 100 digits (alpha 0.25, z <= -3.6); where both are cheap,
    # they agree, also after the integral lowers beta = 1.8 below 1 + alpha
    cheap = (0.25, 1.8, -2.9)
    assert abs(ml_branch_cut_highprec(*cheap) - ml_series_highprec(*cheap)) <= 1e-15
    for alpha, zs in cases.items():
        # alpha = 1 below the switch point only supports beta = 1 or the
        # reducible beta >= 2
        for beta in (1.0, 2.0) if alpha == 1.0 else (1.0, 1.8):
            for z in zs:
                ref = ml_highprec(alpha, beta, float(z))
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


@pytest.mark.parametrize("num_modes", [2, 8, 64])
def test_case_b_solution_matches_the_modal_sum_bit_for_bit(num_modes):
    # the closed form keeps the operation order of the modal sum it
    # replaced, so the oracle tables keep their bits
    nodes = [UniformMesh1D(n).nodes() for n in (8, 32, 256)]
    for alpha in (0.25, 0.3, 0.5, 0.75, 1.0):
        for eps, t in ((1.0, 0.01), (0.1, 0.02), (0.5, 0.003)):
            for x in nodes:
                ours = case_b_linear_solution(alpha, eps, t, x)
                assert np.array_equal(ours, case_b_modal_solution(alpha, eps, t, x, num_modes))


def test_case_b_solution_classical_decay():
    # alpha = 1: the mode decays like exp(-eps^2 (2 pi)^4 t)
    x = np.linspace(0.0, 1.0, 101)
    for eps, t in ((0.3, 0.02), (1.0, 0.01), (0.1, 0.0)):
        exact = 0.05 * math.exp(-(eps**2) * (2 * np.pi) ** 4 * t) * np.cos(2 * np.pi * x)
        assert np.max(np.abs(case_b_linear_solution(1.0, eps, t, x) - exact)) <= 1e-15
    for t in (-0.01, math.inf, math.nan):
        with pytest.raises(ValueError):
            case_b_linear_solution(0.5, 1.0, t, x)


def test_cancelling_series_range_is_double_precision():
    # at these z the alternating series peaks far above 1e4 (at about
    # 1e250 and 1e3500), so the branch-cut integral answers in double
    # precision: no mpmath, no warning, no hang
    code = (
        "import sys, warnings\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "warnings.simplefilter('error')\n"
        "from fracch.mlf import mittag_leffler\n"
        "print(repr(mittag_leffler(0.25, 1.0, -4.9)), repr(mittag_leffler(0.1, 1.0, -2.458)))\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(fracch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True, timeout=120)
    values, loaded = proc.stdout.split("\n")[:2]
    assert loaded == "False"
    assert proc.stderr == ""
    first, second = (float(v) for v in values.split())
    # the series would need about 290 digits at -4.9; ml_highprec takes the
    # branch-cut integral there, which gives the same double in 0.03 s
    assert abs(first - ml_highprec(0.25, 1.0, -4.9)) <= 1e-12
    assert abs(second - ml_branch_cut_highprec(0.1, 1.0, -2.458)) <= 1e-12


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
