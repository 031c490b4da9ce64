"""Property test: the multi-start matches its restarts run one by one."""

import pytest

from subsetscreen import forward_stepwise, multi_start_foss_fs, multi_start_window

from _support import draw_small_problem, plain_multi_start

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_multi_start_problems(draw):
    n = draw(st.integers(3, 30))
    p = draw(st.integers(1, 12))
    M = draw(st.integers(1, min(n - 1, p)))
    return draw_small_problem(draw, n, p), M


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_multi_start_problems())
def test_random_small_designs(case):
    problem, M = case
    path = forward_stepwise(problem, multi_start_window(problem.n, problem.p, M)[1])
    res = multi_start_foss_fs(problem, M, path)
    ref = plain_multi_start(problem, M, path)
    assert res.coef.beta.tobytes() == ref.coef.beta.tobytes()
    assert res.rss_trace.tobytes() == ref.rss_trace.tobytes()
    assert (res.iterations, res.termination) == (ref.iterations, ref.termination)
