"""Property test: the oracle matches the plain enumerator."""

import numpy as np
import pytest

from subsetscreen import standardize

from _support import assert_same_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_oracle_problems(draw):
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 9))
    M = draw(st.integers(0, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    shape = draw(st.sampled_from(["gaussian", "duplicate", "rounded", "near", "constant"]))
    if shape == "duplicate":
        X[:, draw(st.integers(0, p - 1))] = X[:, 0]
    elif shape == "constant":
        for j in draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2, unique=True)):
            X[:, j] = rng.standard_normal()
    elif shape == "rounded":
        X = np.round(X)
    elif shape == "near":
        X[:, -1] = X[:, 0] + 10.0 ** -draw(st.integers(3, 11)) * rng.standard_normal(n)
    y = X @ (rng.standard_normal(p) * (rng.random(p) < 0.5)) + rng.standard_normal(n)
    if shape == "rounded":
        y = np.round(y)
    return standardize(X, y), M


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_oracle_problems())
def test_random_small_designs(case):
    assert_same_oracle(*case)
