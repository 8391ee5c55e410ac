"""Property tests of the plan boundary and the CQ weight blocks.

Hypothesis runs derandomized with a fixed example count and no example
database, so every run tests the same inputs.
"""

import json
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracch.fracops import cq_block, cq_weights
from fracch.harness import (
    _PLAN_ALIASES,
    ConfigError,
    ExperimentPlan,
    plan_from_json,
    validate_config,
)
from oracles import binomial_weights

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
