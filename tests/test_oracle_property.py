"""Property test: the oracle matches the plain enumerator."""

import pytest

from _support import assert_same_oracle, draw_small_problem

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_oracle_problems(draw):
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 9))
    M = draw(st.integers(0, p))
    return draw_small_problem(draw, n, p), M


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_oracle_problems())
def test_random_small_designs(case):
    assert_same_oracle(*case)
