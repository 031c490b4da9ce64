"""Hard-thresholded subset search.

Single update maps (plain thresholded gradient correction, and the fast
variant that refits least squares on the thresholded set), iteration
drivers with stopping rules, the multi-start scheme over forward-stepwise
prefixes, and an exhaustive enumeration oracle for small problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .numerics import StandardizedProblem, min_norm_least_squares

__all__ = [
    "SparseCoef",
    "IterationOptions",
    "ScreeningResult",
    "rss",
    "hard_threshold",
    "oss_step",
    "foss_step",
    "refit_subset",
    "run",
    "multi_start_window",
    "multi_start_foss_fs",
    "exhaustive_best_subset",
    "EnumerationCapError",
    "TERM_CONVERGED",
    "TERM_MAX_ITER",
    "TERM_CYCLE",
]

TERM_CONVERGED = "converged"
TERM_MAX_ITER = "max_iter"
TERM_CYCLE = "cycle"

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_ITER = {"oss": 10_000, "foss": 500}
ENUMERATION_CAP = 2_000_000


class EnumerationCapError(ValueError):
    """The number of subsets to enumerate exceeds the enumeration cap."""


@dataclass(frozen=True, eq=False)
class SparseCoef:
    """Dense coefficient vector with its nonzero index set.

    ``active`` always equals the ascending indices of the nonzero entries
    of ``beta``; ``bound`` is the sparsity budget the thresholded maps
    enforce on their output (the stored vector itself may exceed it, e.g.
    a dense initial point).
    """

    beta: np.ndarray
    active: np.ndarray
    bound: int

    @classmethod
    def from_dense(cls, beta, bound: int) -> "SparseCoef":
        beta = np.asarray(beta, dtype=float)
        return cls(beta=beta, active=np.flatnonzero(beta), bound=int(bound))

    @classmethod
    def zeros(cls, p: int, bound: int) -> "SparseCoef":
        return cls.from_dense(np.zeros(p), bound)

    @property
    def p(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class IterationOptions:
    """Driver settings: which update map, stopping tolerance, iteration cap.

    ``max_iter=None`` picks the per-algorithm default (10000 for "oss",
    500 for "foss").
    """

    algorithm: str = "foss"
    rel_tol: float = DEFAULT_REL_TOL
    max_iter: int | None = None

    def __post_init__(self):
        if self.algorithm not in DEFAULT_MAX_ITER:
            raise ValueError(f"algorithm must be one of {tuple(DEFAULT_MAX_ITER)}")
        if self.rel_tol < 0.0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def resolved_max_iter(self) -> int:
        return DEFAULT_MAX_ITER[self.algorithm] if self.max_iter is None else self.max_iter


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    """Outcome of an iteration driver.

    ``coef`` is the lowest-objective iterate seen (ties resolved to the
    earliest), ``rss_trace`` the objective value per iteration (the
    initial point is included only when it satisfies the sparsity
    budget), and ``termination`` one of the TERM_* constants.
    """

    coef: SparseCoef
    rss_trace: np.ndarray
    iterations: int
    termination: str

    @property
    def final_rss(self) -> float:
        """Residual sum of squares of the returned coefficients."""
        return float(self.rss_trace.min())


def rss(problem: StandardizedProblem, coef: SparseCoef) -> float:
    """Residual sum of squares ||y - X beta||^2, using active columns only."""
    r = _residual(problem, coef)
    return float(r @ r)


def _residual(problem: StandardizedProblem, coef: SparseCoef) -> np.ndarray:
    if coef.active.size == 0:
        return problem.y.copy()
    return problem.y - problem.X[:, coef.active] @ coef.beta[coef.active]


def hard_threshold(x, M: int) -> np.ndarray:
    """Keep the M entries of largest magnitude, zero the rest.

    Ties are broken toward the smaller index (stable sort on descending
    magnitude), so the output is reproducible bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if M < 0:
        raise ValueError("M must be nonnegative")
    if M >= x.shape[0]:
        return x.copy()
    out = np.zeros_like(x)
    if M == 0:
        return out
    keep = np.argsort(-np.abs(x), kind="stable")[:M]
    out[keep] = x[keep]
    return out


def _gradient_candidate(problem: StandardizedProblem, coef: SparseCoef) -> np.ndarray:
    # beta + X'(y - X beta)/c; flagged zero-variance coordinates are
    # cleared so they can never enter an active set.
    r = _residual(problem, coef)
    v = coef.beta + (problem.X.T @ r) / problem.c
    if problem.degenerate.any():
        v[problem.degenerate] = 0.0
    return v


def oss_step(problem: StandardizedProblem, coef: SparseCoef) -> SparseCoef:
    """One thresholded gradient-correction step.

    Computes S_M(X'y/c + (I - X'X/c) beta) where S_M keeps the M largest
    magnitudes.  For inputs within the sparsity budget the objective
    never increases.  Inputs with more than M nonzeros are allowed; the
    step thresholds them down.
    """
    v = _gradient_candidate(problem, coef)
    return SparseCoef.from_dense(hard_threshold(v, coef.bound), coef.bound)


def foss_step(problem: StandardizedProblem, coef: SparseCoef) -> SparseCoef:
    """Thresholded gradient step followed by a least-squares refit.

    The refit on the thresholded active set gives an objective no larger
    than the plain step's, which in turn is no larger than the input's.
    """
    phi = hard_threshold(_gradient_candidate(problem, coef), coef.bound)
    return refit_subset(problem, np.flatnonzero(phi), coef.bound)


def refit_subset(problem: StandardizedProblem, active, bound: int) -> SparseCoef:
    """Minimum-norm least-squares fit on the given columns, zeros elsewhere."""
    active = np.asarray(active, dtype=int)
    beta = np.zeros(problem.p)
    if active.size:
        beta[active] = min_norm_least_squares(problem.X[:, active], problem.y)
    return SparseCoef.from_dense(beta, bound)


def run(
    problem: StandardizedProblem,
    init: SparseCoef,
    M: int,
    opts: IterationOptions = IterationOptions(),
) -> ScreeningResult:
    """Iterate an update map from ``init`` until it stops improving.

    Stops when the relative objective decrease between successive
    iterations falls below ``opts.rel_tol``, when (for the refitting
    variant) an active set repeats, or at the iteration cap.  The
    returned coefficients are the lowest-objective iterate seen.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    step = oss_step if opts.algorithm == "oss" else foss_step
    max_iter = opts.resolved_max_iter()
    coef = SparseCoef.from_dense(init.beta, M)
    feasible_start = coef.active.size <= M

    trace = []
    best = None
    best_rss = math.inf
    prev = None
    if feasible_start:
        r0 = rss(problem, coef)
        trace.append(r0)
        prev = r0
        best, best_rss = coef, r0

    visited: set[tuple[int, ...]] = set()
    iterations = 0
    termination = TERM_MAX_ITER
    for k in range(1, max_iter + 1):
        coef = step(problem, coef)
        cur = rss(problem, coef)
        trace.append(cur)
        iterations = k
        if cur < best_rss:
            best, best_rss = coef, cur
        if prev is not None:
            denom = prev if prev > 0.0 else 1.0
            if (prev - cur) < opts.rel_tol * denom:
                termination = TERM_CONVERGED
                break
        if opts.algorithm == "foss":
            key = tuple(int(j) for j in coef.active)
            if key in visited:
                termination = TERM_CYCLE
                break
            visited.add(key)
        prev = cur

    return ScreeningResult(
        coef=best,
        rss_trace=np.asarray(trace),
        iterations=iterations,
        termination=termination,
    )


def multi_start_window(n: int, p: int, M: int) -> tuple[int, int]:
    """Inclusive range of stepwise prefix sizes used as restart points.

    The window is M +/- floor(p/10), capped above by n, then clamped into
    [1, min(n - 1, p)].
    """
    width = p // 10
    hard_hi = min(n - 1, p)
    lo = max(1, min(M - width, hard_hi))
    hi = max(lo, min(M + width, n, hard_hi))
    return lo, hi


def multi_start_foss_fs(
    problem: StandardizedProblem,
    M: int,
    fs_path,
    opts: IterationOptions | None = None,
) -> ScreeningResult:
    """Refitting driver restarted from a window of stepwise prefixes.

    Runs the refitting iteration from the least-squares estimator of
    every forward-stepwise prefix whose size falls in the restart window
    (clipped to the sizes the path actually reached) and returns the run
    with the smallest final objective; exact ties go to the
    lexicographically smaller active set.  Deterministic given its
    inputs.
    """
    if opts is None:
        opts = IterationOptions(algorithm="foss")
    elif opts.algorithm != "foss":
        raise ValueError("multi-start restarts use the refitting algorithm")
    lo, hi = multi_start_window(problem.n, problem.p, M)
    hi = min(hi, len(fs_path.steps))
    lo = min(lo, hi)
    if hi < 1:
        raise ValueError("stepwise path is empty")
    best = None
    best_key = None
    for size in range(lo, hi + 1):
        result = run(problem, fs_path.coef_at(size), M, opts)
        key = (result.final_rss, tuple(int(j) for j in result.coef.active))
        if best_key is None or key < best_key:
            best, best_key = result, key
    return best


def exhaustive_best_subset(
    problem: StandardizedProblem, M: int, cap: int = ENUMERATION_CAP
) -> ScreeningResult:
    """Globally optimal size-M subset by full enumeration.

    Every subset is refit with minimum-norm least squares (so
    rank-deficient subsets are handled the same way as in the refitting
    step); exact ties in the objective go to the lexicographically
    smallest subset.

    Raises ValueError when M is outside [0, p], and EnumerationCapError
    when the number of subsets exceeds ``cap``.
    """
    p = problem.p
    if not 0 <= M <= p:
        raise ValueError(f"M = {M} is outside [0, p] with p = {p}")
    total = math.comb(p, M)
    if total > cap:
        raise EnumerationCapError(
            f"C({p}, {M}) = {total} subsets exceed the enumeration cap {cap}"
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
        coef=SparseCoef.from_dense(beta, M),
        rss_trace=np.asarray([best_rss]),
        iterations=0,
        termination=TERM_CONVERGED,
    )
