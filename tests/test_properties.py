"""Property tests of the plan boundary, the CQ weight blocks and the
simplified Newton stepper.

Hypothesis runs derandomized with a fixed example count and no example
database, so every run tests the same inputs.
"""

import json
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracch.fem1d import UniformMesh1D
from fracch.fracops import cq_block, cq_weights
from fracch.harness import (
    _PLAN_ALIASES,
    ConfigError,
    ExperimentPlan,
    plan_from_json,
    validate_config,
)
from fracch.noise import NoiseSpec, project_increments, sample_path
from fracch.solver import SchemeConfig, initial_state, run_path
from oracles import binomial_weights, exact_newton_path

FIXED = settings(derandomize=True, max_examples=200, database=None, deadline=None)

FIELD_KINDS = {f.name: f.type for f in fields(ExperimentPlan)}
PLAN_KEYS = sorted(set(FIELD_KINDS) | set(_PLAN_ALIASES))
SMALL_INTS = st.integers(-3, 2000)
FLOATS = st.floats(-2.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False)
# a value of the field's JSON type, often near the ranges validate_config checks
TYPED = {
    "str": st.sampled_from(["temporal", "spatial", "a", "b", "abort", "drop", ""]),
    "float": FLOATS,
    "float | None": st.none() | FLOATS,
    "int": SMALL_INTS | st.integers(),
    "int | None": st.none() | SMALL_INTS,
    "tuple": st.lists(SMALL_INTS, max_size=5),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def plan_documents(draw):
    """A JSON object over the plan keys and their aliases: either every
    value has its field's type, or the values are arbitrary JSON."""
    keys = draw(st.lists(st.sampled_from(PLAN_KEYS), unique=True))
    typed = draw(st.booleans())
    return {
        key: draw(TYPED[FIELD_KINDS[_PLAN_ALIASES.get(key, key)]] if typed else JSON_VALUES)
        for key in keys
    }


@FIXED
@given(plan_documents())
def test_plan_from_json_rejects_or_validates(doc):
    try:
        plan = plan_from_json(json.dumps(doc))
    except ConfigError:
        return
    for diag in validate_config(plan):
        assert diag.level in ("error", "warning")


@FIXED
@given(st.floats(-1.0, 1.0), st.data())
def test_cq_block_is_a_slice_of_the_dense_toeplitz_matrix(order, data):
    n_max = data.draw(st.integers(0, 80), label="n_max")
    first = data.draw(st.integers(0, n_max), label="first")
    rows = data.draw(st.integers(1, n_max + 1 - first), label="rows")
    cols = data.draw(st.integers(1, n_max + 2), label="cols")
    a = binomial_weights(order, n_max)
    lag = np.subtract.outer(np.arange(n_max + 1), np.arange(cols))
    dense = np.where(lag >= 0, a[np.maximum(lag, 0)], 0.0)
    block = cq_block(cq_weights(order, n_max), first, rows, cols)
    assert block.shape == (rows, cols)
    np.testing.assert_allclose(block, dense[first : first + rows], rtol=1e-10, atol=1e-15)


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(
    st.floats(0.5, 1.0), st.floats(0.0, 1.0), st.floats(0.3, 1.0),
    st.floats(-4.0, -2.0), st.integers(1, 12), st.sampled_from([1e-10, 1e-8, 1e-6]),
    st.lists(st.sampled_from([2, 3, 4, 8]), min_size=1, max_size=3),
    st.floats(0.0, 1.0), st.integers(0, 2**16),
)
def test_simplified_newton_meets_its_tolerance_and_the_exact_newton_oracle(
    alpha, gamma, epsilon, log_tau, num_steps, tol, sizes, amplitude, seed
):
    # small configs, one mesh or a lockstep stack, in the range where each
    # step's system has one solution (tau^alpha < 4 eps^2).  Every step ends
    # within newton_tol of its scale, so each step's state is within
    # |J^-1| newton_tol (1 + |M known|) of the exact one; the terminal state
    # may differ from the exact Newton path by at most the sum over the steps
    tau = 10.0**log_tau
    configs = [
        SchemeConfig(mesh=UniformMesh1D(size), alpha=alpha, gamma=gamma, epsilon=epsilon,
                     tau=tau, num_steps=num_steps, newton_tol=tol)
        for size in sizes
    ]
    path = sample_path(NoiseSpec(2.0, 5, tau * num_steps, num_steps), seed)
    tracks = [project_increments(path, c.mesh) for c in configs]
    # a stack takes a case tag; one mesh a random datum of the drawn size
    rng = np.random.default_rng(seed)
    datum = amplitude * rng.uniform(-1.0, 1.0, sizes[0] + 1) if len(sizes) == 1 else "b"
    hist = run_path(configs, datum, tracks)
    terminals = hist.split(hist.terminal)
    for k, (config, track) in enumerate(zip(configs, tracks)):
        assert all(r.final_residual <= tol for r in hist.reports[k :: len(configs)])
        u0 = initial_state(datum, config.mesh).coeffs if isinstance(datum, str) else datum
        states, budget = exact_newton_path(config, u0, track)
        assert np.max(np.abs(terminals[k] - states[-1])) <= tol * budget.sum()
