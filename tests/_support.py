"""Shared test helpers: independent oracles and instance generators."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import scipy.linalg

from subsetscreen import standardize
from subsetscreen.core import (
    ENUMERATION_CAP,
    TERM_CONVERGED,
    TERM_CYCLE,
    TERM_MAX_ITER,
    EnumerationCapError,
    IterationOptions,
    ScreeningResult,
    SparseCoef,
    exhaustive_best_subset,
    foss_step,
    multi_start_window,
    oss_step,
    rss,
)
from subsetscreen.numerics import RANK_RTOL, StandardizedProblem, min_norm_least_squares


def jacobi_max_eigenvalue(S, sweeps=60, tol=1e-14):
    """Largest eigenvalue of a symmetric matrix by cyclic Jacobi rotations.

    Deliberately written from scratch (no eigensolver calls) so it can
    serve as an independent check of the power-iteration route.
    """
    A = np.array(S, dtype=float)
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    m = A.shape[0]
    scale = max(1.0, np.abs(A).max())
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol * scale:
            break
        for i in range(m - 1):
            for j in range(i + 1, m):
                if abs(A[i, j]) <= tol * scale / m:
                    continue
                # rotation angle annihilating A[i, j]
                theta = 0.5 * np.arctan2(2.0 * A[i, j], A[j, j] - A[i, i])
                c, s = np.cos(theta), np.sin(theta)
                rows_i, rows_j = A[i, :].copy(), A[j, :].copy()
                A[i, :] = c * rows_i - s * rows_j
                A[j, :] = s * rows_i + c * rows_j
                cols_i, cols_j = A[:, i].copy(), A[:, j].copy()
                A[:, i] = c * cols_i - s * cols_j
                A[:, j] = s * cols_i + c * cols_j
    return float(np.max(np.diag(A)))


def count_min_norm_calls(monkeypatch, module):
    """Route ``module``'s minimum-norm solver through a counter.

    Returns the list that receives the column count of every call.
    """
    calls = []
    solver = module.min_norm_least_squares

    def counted(A, y):
        calls.append(A.shape[1])
        return solver(A, y)

    monkeypatch.setattr(module, "min_norm_least_squares", counted)
    return calls


def reference_hard_threshold(x, M):
    """Stable-argsort thresholding, the reference of ``hard_threshold``.

    Keeps the M entries of largest magnitude; a stable sort on
    descending magnitude sends ties to the smaller index.
    """
    x = np.asarray(x, dtype=float)
    if M >= x.shape[0]:
        return x.copy()
    out = np.zeros_like(x)
    if M == 0:
        return out
    keep = np.argsort(-np.abs(x), kind="stable")[:M]
    out[keep] = x[keep]
    return out


def reference_oss_step(problem: StandardizedProblem, coef: SparseCoef, M: int) -> SparseCoef:
    """The thresholded step with a stable-argsort threshold, the
    reference of the partition threshold in ``oss_step``."""
    r = problem.y - problem.X[:, coef.active] @ coef.beta[coef.active]
    v = coef.beta + (problem.X.T @ r) / problem.c
    v[problem.degenerate] = 0.0
    return SparseCoef.from_dense(reference_hard_threshold(v, M))


def reference_refit(problem: StandardizedProblem, active) -> SparseCoef:
    """Least-squares refit on ``active`` by a complete orthogonal
    factorization (LAPACK xGELSY: pivoted QR, then RZ), a solver
    independent of the SVD solve in ``refit_subset``."""
    active = np.asarray(active, dtype=int)
    beta = np.zeros(problem.p)
    if active.size:
        beta[active] = scipy.linalg.lstsq(
            problem.X[:, active], problem.y, cond=RANK_RTOL, lapack_driver="gelsy"
        )[0]
    return SparseCoef.from_dense(beta)


def exact_rss(problem: StandardizedProblem, coef: SparseCoef) -> Fraction:
    """||y - X beta||^2 of the stored doubles in exact rational arithmetic.

    Free of the rounding of forming the residual, which for a large
    coefficient vector on near-collinear columns is far above the gap
    between two equally accurate solutions.
    """
    A = coef.active
    X = [[Fraction(float(v)) for v in row] for row in problem.X[:, A]]
    b = [Fraction(float(v)) for v in coef.beta[A]]
    total = Fraction(0)
    for row, yi in zip(X, problem.y):
        r = Fraction(float(yi)) - sum(xij * bj for xij, bj in zip(row, b))
        total += r * r
    return total


def random_problem(seed, n=30, p=8, d=2, sigma=0.5, beta_value=2.0):
    """Generic seeded dense instance with signal on the first d columns."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:d] = beta_value
    y = X @ beta + sigma * rng.standard_normal(n)
    return standardize(X, y)


def orthogonal_design(seed, n=24, p=8):
    """Centered design with exactly orthogonal columns of squared norm n."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, p))
    raw -= raw.mean(axis=0)
    Q, _ = np.linalg.qr(raw)
    return Q * np.sqrt(n)


def unique_solution_problem(seed, n=40, M=3, sigma=0.2):
    """Well-separated sparse instance whose size-M optimum is unique.

    Strong +-3 signals on a random support of size M with small noise;
    p varies in 8..10 with the seed.
    """
    rng = np.random.default_rng(seed)
    p = 8 + int(rng.integers(0, 3))
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    support = rng.choice(p, size=M, replace=False)
    beta[support] = rng.choice([-3.0, 3.0], size=M)
    y = X @ beta + sigma * rng.standard_normal(n)
    return standardize(X, y), M


def draw_small_problem(draw, n, p):
    """A standardized n x p problem for a property test, ``draw`` being
    a hypothesis draw: a gaussian design, or one with a duplicated
    column, rounded entries (and response), a near-collinear last column
    or one or two constant columns."""
    # hypothesis is a test extra: imported here so the other helpers load
    # without it.
    from hypothesis import strategies as st

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
    return standardize(X, y)


def plain_best_subset(problem: StandardizedProblem, M: int) -> ScreeningResult:
    """Globally optimal size-M subset by full enumeration.

    The plain enumerator that ``exhaustive_best_subset`` replaced, kept
    as its reference.  Every subset is refit with minimum-norm least
    squares (so rank-deficient subsets are handled the same way as in the
    refitting step); exact ties in the objective go to the
    lexicographically smallest subset.

    Raises ValueError when M is outside [0, p], and EnumerationCapError
    when the number of subsets exceeds ``ENUMERATION_CAP``.
    """
    p = problem.p
    if not 0 <= M <= p:
        raise ValueError(f"M = {M} is outside [0, p] with p = {p}")
    total = math.comb(p, M)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"C({p}, {M}) = {total} subsets exceed the enumeration cap {ENUMERATION_CAP}"
        )
    y = problem.y
    best_rss = math.inf
    best_subset: tuple[int, ...] | None = None
    best_vals: np.ndarray | None = None
    for subset in combinations(range(p), M):
        idx = np.asarray(subset, dtype=int)
        vals = min_norm_least_squares(problem.X[:, idx], y)
        r = y - problem.X[:, idx] @ vals if M else y
        val = float(r @ r)
        if val < best_rss:
            best_rss, best_subset, best_vals = val, subset, vals

    beta = np.zeros(p)
    if best_subset:
        beta[list(best_subset)] = best_vals
    return ScreeningResult(
        coef=SparseCoef.from_dense(beta),
        rss_trace=np.asarray([best_rss]),
        iterations=0,
        termination=TERM_CONVERGED,
    )


def assert_same_oracle(problem, M):
    """The oracle gives the plain enumerator's answer bit for bit."""
    res = exhaustive_best_subset(problem, M)
    ref = plain_best_subset(problem, M)
    np.testing.assert_array_equal(res.coef.active, ref.coef.active)
    assert res.coef.beta.tobytes() == ref.coef.beta.tobytes()
    assert res.final_rss == ref.final_rss


def plain_multi_start(problem, M, fs_path, opts=None):
    """Refitting driver restarted from a window of stepwise prefixes.

    The restart loop that ``multi_start_foss_fs`` memoized, kept as its
    reference: every restart is a separate ``reference_run``, which
    refits every active set it reaches.  The coefficients come from the
    restart with the smallest (final objective, active set); the
    iteration count and termination from the first restart that ends on
    that set.  An empty path restarts from the zero vector alone.
    """
    if opts is None:
        opts = IterationOptions(algorithm="foss")
    elif opts.algorithm != "foss":
        raise ValueError("multi-start restarts use the refitting algorithm")
    lo, hi = multi_start_window(problem.n, problem.p, M)
    hi = min(hi, len(fs_path.steps))
    lo = min(lo, hi)
    if hi < 1:
        return reference_run(problem, fs_path.coef_at(0), M, opts)
    results = [
        reference_run(problem, fs_path.coef_at(size), M, opts) for size in range(lo, hi + 1)
    ]
    best = min(results, key=lambda r: (r.final_rss, tuple(r.coef.active.tolist())))
    # The count is the one of the smallest prefix that reaches the set.
    counted = next(r for r in results if np.array_equal(r.coef.active, best.coef.active))
    return ScreeningResult(
        coef=best.coef,
        rss_trace=best.rss_trace,
        iterations=counted.iterations,
        termination=counted.termination,
    )


def reference_run(problem, init, M, opts):
    """The driver one step at a time, the reference of ``run``: of its
    closed-form jumps over ``oss`` stretches that keep their active set,
    and of the memoized refit step it shares with the multi-start
    restarts.

    Each iterate is one ``oss_step`` or ``foss_step`` and its objective
    one ``rss``; the stop rule, the cycle rule of the refitting variant,
    the iteration cap, the best-iterate rule and the trace are those of
    ``run``.
    """
    step = oss_step if opts.algorithm == "oss" else foss_step
    coef = init
    trace = []
    best, best_rss, prev = None, math.inf, None
    if coef.active.size <= M:
        prev = best_rss = rss(problem, coef)
        best = coef
        trace.append(prev)
    visited = set()
    iterations, termination = 0, TERM_MAX_ITER
    for k in range(1, opts.resolved_max_iter() + 1):
        coef = step(problem, coef, M)
        cur = rss(problem, coef)
        trace.append(cur)
        iterations = k
        if cur < best_rss:
            best, best_rss = coef, cur
        if prev is not None and (prev - cur) < opts.rel_tol * (prev if prev > 0.0 else 1.0):
            termination = TERM_CONVERGED
            break
        if opts.algorithm == "foss":
            key = tuple(coef.active.tolist())
            if key in visited:
                termination = TERM_CYCLE
                break
            visited.add(key)
        prev = cur
    return ScreeningResult(
        coef=best, rss_trace=np.asarray(trace), iterations=iterations, termination=termination
    )


def traced_bytes(fn, *args):
    """``fn(*args)`` and the bytes it allocated at its peak and still
    holds on return, both above what was allocated before the call, as
    tracemalloc counts them (numpy reports its array buffers)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before
