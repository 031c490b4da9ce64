"""Hard-thresholded subset search.

Single update maps (plain thresholded gradient correction, and the fast
variant that refits least squares on the thresholded set), iteration
drivers with stopping rules, the multi-start scheme over forward-stepwise
prefixes, and an exhaustive best-subset oracle for small problems.

Thresholding in the update maps finds the M-th magnitude by a
partition, in O(p), and a refit is the minimum-norm least-squares
solution on the set (one SVD-based solve, the same for full-rank and
dependent sets).  The gradient X'(y - X beta) and the objective are
formed from the residual.

The oracle scores every subset S by a Householder QR of [X_S, y], many
subsets per LAPACK call (the last diagonal entry of R is the residual
norm of y on X_S), with an error allowance that grows as the QR's
relative pivots shrink; only the subsets that could still be the
minimum are then refit exactly by minimum-norm least squares.  The
allowance is an empirical margin, not a proven bound: where it holds,
the answer is the one a separate refit of every subset gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .numerics import FACTOR_SOLVE_RTOL, StandardizedProblem, min_norm_least_squares

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

# The oracle's score of a subset is trusted to within SCORE_SLACK *
# (n + p) * eps * ||y||^2 / rho^2 of the RSS of its exact refit, rho being
# the smallest relative pivot |R_jj| / ||x_j|| of the subset's QR.  Both
# are backward-stable residual norms, whose rounding error is of order
# (n + p) * eps * ||y||^2 times the subset's condition.  1 / rho^2 stands
# in for that condition without bounding it (a subset's smallest
# singular value can sit far below its smallest pivot), so the margin is
# empirical: against the SVD refit of min_norm_least_squares, the
# largest gap seen on random, duplicated, constant, near-collinear,
# integer, constant-response and n < M designs was 0.81 of that unit
# (0.0019 on Kahan-type designs), and the factor leaves over three
# orders of magnitude.
SCORE_SLACK = 1024.0

# Entries per stacked [X_S, y] block that the oracle factors in one call.
SUBSET_BATCH = 1 << 16


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
        return cls(beta=beta, active=beta.nonzero()[0], bound=int(bound))

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

    A result of ``multi_start_foss_fs`` combines two restarts: ``coef``
    and ``rss_trace`` are those of the winning restart, ``iterations``
    and ``termination`` those of the smallest-prefix restart that ends on
    the same active set, so ``len(rss_trace)`` need not match
    ``iterations``.
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

    Ties are broken toward the smaller index, exactly as a stable sort on
    descending magnitude breaks them, so the output is reproducible bit
    for bit.  Runs in O(p) for finite input: a partition finds the M-th
    largest magnitude, every entry at or above it is kept, and when
    entries equal to it overflow the M places the last of them are
    dropped.
    """
    x = np.asarray(x, dtype=float)
    if M < 0:
        raise ValueError("M must be nonnegative")
    p = x.shape[0]
    if M >= p:
        return x.copy()
    if M == 0:
        return np.zeros_like(x)
    magnitude = np.abs(x)
    cut = np.partition(magnitude, p - M)[p - M]
    keep = magnitude >= cut
    extra = np.count_nonzero(keep) - M
    if extra:
        keep[np.flatnonzero(magnitude == cut)[-extra:]] = False
    return np.where(keep, x, 0.0)


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
    return refit_subset(problem, _thresholded_set(problem, coef), coef.bound)


def _thresholded_set(problem: StandardizedProblem, coef: SparseCoef) -> np.ndarray:
    """The set a refitting step from ``coef`` refits on."""
    return np.flatnonzero(hard_threshold(_gradient_candidate(problem, coef), coef.bound))


def refit_subset(problem: StandardizedProblem, active, bound: int) -> SparseCoef:
    """Least-squares fit on the given columns, zeros elsewhere.

    The values are ``min_norm_least_squares`` of y on the columns, so
    rank-deficient and near-dependent sets keep minimum-norm semantics;
    ``bound`` is only the sparsity budget stored with the result.
    """
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
    update = oss_step if opts.algorithm == "oss" else foss_step

    def step(coef, source):
        coef = update(problem, coef)
        return coef, rss(problem, coef), None

    return _iterate(problem, init, M, opts, step)


def _iterate(problem, init, M, opts, step) -> ScreeningResult:
    """The loop of ``run``, over the step map ``step``.

    ``step(coef, source)`` returns the next iterate, its objective and a
    key for it that the next call receives as ``source`` (``None`` for
    the starting point).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
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
    source = None
    iterations = 0
    termination = TERM_MAX_ITER
    for k in range(1, max_iter + 1):
        coef, cur, source = step(coef, source)
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
            key = tuple(coef.active.tolist())
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


class _MemoizedRefitStep:
    """The refitting step of one problem, memoized by the set it refits.

    The refit on a set S, its objective and the set the next step from
    that refit thresholds to depend on S alone, so each is computed once
    per S.  A step from a point that is not such a refit (a restart's
    starting point, ``source`` None) computes its set afresh.
    """

    def __init__(self, problem: StandardizedProblem):
        self.problem = problem
        self.refits: dict[tuple[int, ...], tuple[SparseCoef, float]] = {}
        self.next_set: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __call__(self, coef: SparseCoef, source):
        target = self.next_set.get(source)
        if target is None:
            target = tuple(_thresholded_set(self.problem, coef).tolist())
            if source is not None:
                self.next_set[source] = target
        hit = self.refits.get(target)
        if hit is None:
            refit = refit_subset(self.problem, target, coef.bound)
            hit = self.refits[target] = (refit, rss(self.problem, refit))
        return hit[0], hit[1], target


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
    (clipped to the sizes the path actually reached).  The coefficients
    and objective trace returned are those of the run with the smallest
    final objective; exact ties go to the lexicographically smaller
    active set.  ``iterations`` and ``termination`` are those of the run
    from the smallest prefix that ends on the same active set: several
    restarts often reach one set, with final objectives that differ only
    in rounding (a refit against a stepwise estimator on the same set),
    and the count must not depend on which of them wins by the last
    bits.  Deterministic given its inputs.

    Neighbouring restarts tend to reach the same few active sets, so
    within one call each set is refit once: the refit on a set, its
    objective and the set the next step from it thresholds to are
    memoized by that set (and freed on return).  The result is the one
    separate ``run`` calls give, bit for bit.
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
    step = _MemoizedRefitStep(problem)
    best = None
    best_key = None
    first_on_set: dict[tuple[int, ...], ScreeningResult] = {}
    for size in range(lo, hi + 1):
        result = _iterate(problem, fs_path.coef_at(size), M, opts, step)
        active = tuple(result.coef.active.tolist())
        first_on_set.setdefault(active, result)
        key = (result.final_rss, active)
        if best_key is None or key < best_key:
            best, best_key = result, key
    counted = first_on_set[best_key[1]]
    return ScreeningResult(
        coef=best.coef,
        rss_trace=best.rss_trace,
        iterations=counted.iterations,
        termination=counted.termination,
    )


def exhaustive_best_subset(
    problem: StandardizedProblem, M: int, cap: int = ENUMERATION_CAP
) -> ScreeningResult:
    """Globally optimal size-M subset by full enumeration.

    The result is the subset whose minimum-norm least-squares refit (so
    rank-deficient subsets are handled the same way as in the refitting
    step) has the smallest residual sum of squares; exact ties go to the
    lexicographically smallest subset.  It is found in two stages:

    1. Every subset S is scored by a Householder QR of [X_S, y], in
       stacks of at most ``SUBSET_BATCH`` entries per LAPACK call, taken
       from the R factor of the whole [X, y].  The score is R[M, M]^2
       plus R[j, M]^2 for each position j of an all-zero column (a
       constant one after standardizing); such columns are ordered
       last, where each one's row of R holds only its share of the
       residual.  It carries an allowance proportional to ||y||^2 /
       rho^2, rho the smallest relative pivot |R_jj| / ||x_j|| of a
       nonzero column, infinite when rho <= ``FACTOR_SOLVE_RTOL``.
    2. Only subsets whose score minus allowance is at or below the
       smallest score plus allowance are refit exactly, in lexicographic
       order, keeping the first strictly smallest RSS.  While the
       allowances bound the rounding of both computations (an empirical
       margin, see ``SCORE_SLACK``), every other subset's refit is larger
       than the best one, so the winner, its coefficients and its RSS are
       those of refitting every subset.

    All C(p, M) subsets are scored; nothing is pruned.  When M >= n the
    rows are padded with zeros so that R[M, M] exists, and every subset
    with at least n nonconstant columns (centered, they span at most
    n - 1 dimensions) has a negligible pivot and is refit.

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
    X, y = problem.X, problem.y
    best_rss = math.inf
    best_subset: np.ndarray | None = None
    best_vals: np.ndarray | None = None
    for subset in _contenders(X, y, M):
        vals = min_norm_least_squares(X[:, subset], y)
        r = y - X[:, subset] @ vals if M else y
        val = float(r @ r)
        if val < best_rss:
            best_rss, best_subset, best_vals = val, subset, vals

    beta = np.zeros(p)
    beta[best_subset] = best_vals
    return ScreeningResult(
        coef=SparseCoef.from_dense(beta, M),
        rss_trace=np.asarray([best_rss]),
        iterations=0,
        termination=TERM_CONVERGED,
    )


def _contenders(X: np.ndarray, y: np.ndarray, M: int) -> np.ndarray:
    """Stage 1 of the oracle: the subsets whose exact refit could be best.

    Scores every size-M subset and returns, as the rows of an int array
    in ``itertools.combinations`` order, those whose score minus
    allowance is at or below the smallest score plus allowance.  Batches
    are filtered against the smallest upper bound seen so far as they
    arrive, so only near-best subsets are kept.
    """
    n, p = X.shape
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    # All-zero columns go last: there each one leaves an identity
    # reflector and its row of R holds only its share of the residual.
    order = np.argsort(norms == 0.0, kind="stable")
    norms = norms[order]
    live = int(np.count_nonzero(norms))
    norms[live:] = 1.0  # any value but 0: their pivot is set to 1 below
    # [X, y] = Q F with Q orthogonal, so [X_S, y] and [F_S, F_y] have the
    # same R: subsets are factored from the rows of F, at most p + 1 of
    # them, padded with zeros to at least M + 1 so that R[M, M] exists.
    F = np.linalg.qr(np.column_stack([X[:, order], y]), mode="r")
    rows = max(F.shape[0], M + 1)
    columns = np.zeros((p + 1, rows))
    columns[:, : F.shape[0]] = F.T
    slack = SCORE_SLACK * (n + p) * np.finfo(float).eps * float(y @ y)
    batch = max(1, SUBSET_BATCH // ((M + 1) * rows))
    subsets = combinations(range(p), M)
    upper = math.inf
    kept_subsets: list[np.ndarray] = []
    kept_lower: list[np.ndarray] = []
    while chunk := list(islice(subsets, batch)):
        k = len(chunk)
        S = np.fromiter(chain.from_iterable(chunk), np.intp, k * M).reshape(k, M)
        stack = columns[np.column_stack([S, np.full(k, p)])]
        R = np.linalg.qr(stack.transpose(0, 2, 1), mode="r")
        zero = S >= live
        scores = R[:, M, M] ** 2 + np.sum(R[:, :M, M] ** 2, axis=1, where=zero)
        rel = np.where(zero, 1.0, np.abs(np.diagonal(R, axis1=1, axis2=2)[:, :M]) / norms[S])
        rho = np.min(rel, axis=1, initial=1.0)
        allowance = np.divide(
            slack, rho * rho, out=np.full(k, np.inf), where=rho > FACTOR_SOLVE_RTOL
        )
        upper = min(upper, float(np.min(scores + allowance)))
        lower = scores - allowance
        keep = lower <= upper
        kept_subsets.append(S[keep])
        kept_lower.append(lower[keep])
    kept = np.concatenate(kept_subsets)[np.concatenate(kept_lower) <= upper]
    kept = np.sort(order[kept], axis=1)
    return kept[np.lexsort(kept.T[::-1])] if M else kept
