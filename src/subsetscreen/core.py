"""Hard-thresholded subset search.

Single update maps (plain thresholded gradient correction, and the fast
variant that refits least squares on the thresholded set), iteration
drivers with stopping rules, the multi-start scheme over forward-stepwise
prefixes, and an exhaustive best-subset oracle for small problems.

Thresholding in the update maps finds the M-th magnitude by a
partition, in O(p), and a refit is the minimum-norm least-squares
solution on the set (one SVD-based solve, the same for full-rank and
dependent sets).  The gradient X'(y - X beta) and the objective are
formed from one residual per iterate, which the drivers pass from step
to step.

``run`` hands the iteration to one of two classes of one shape, each
built from (problem, M, options) and iterated by its ``run(coef,
residual)``.  ``_OssStep``, the plain iteration, crosses each stretch
that keeps its active set A in closed form, where a step is the
Richardson (OEM) iteration on X_A: one eigendecomposition of X_A'X_A
and one p x M block X'X_A per set, then one GEMM per block of future
steps evaluates their candidates and cancellation-free objective
decreases.  The jump stops before the first step whose set could
differ, whose stop test could fire (both judged with a stated rounding
allowance), or at the iteration cap, and the ordinary step takes over
from there.  ``_FossStep``, the refitting iteration, is memoized by
set and shared with the multi-start restarts: a run is the walk from
the set its first step reaches, so every restart is one pair (start,
first set), each distinct first set is walked once, and the first sets
of a chunk of stepwise prefixes come from one product.

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
from dataclasses import dataclass, replace
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

# Stepwise prefixes whose first multi-start sets are thresholded together.
FIRST_SET_ROWS = 16


class EnumerationCapError(ValueError):
    """The number of subsets to enumerate exceeds the enumeration cap."""


@dataclass(frozen=True, eq=False)
class SparseCoef:
    """Dense coefficient vector with its nonzero index set.

    ``active`` always equals the ascending indices of the nonzero entries
    of ``beta``.  It carries no sparsity budget: the thresholded maps and
    drivers take M as an argument, and a stored vector may have more
    nonzeros than that (a dense initial point, say).
    """

    beta: np.ndarray
    active: np.ndarray

    @classmethod
    def from_dense(cls, beta) -> "SparseCoef":
        beta = np.asarray(beta, dtype=float)
        return cls(beta=beta, active=beta.nonzero()[0])

    @classmethod
    def zeros(cls, p: int) -> "SparseCoef":
        return cls.from_dense(np.zeros(p))


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
        if not math.isfinite(self.rel_tol):
            raise ValueError("rel_tol must be finite")
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
    budget), and ``termination`` one of the TERM_* constants.  For a
    stretch of plain steps crossed in closed form, the last entry is the
    RSS of the iterate handed back, formed from its residual, and each
    earlier one is that value plus the closed-form decreases of the
    steps after it.

    A result of ``multi_start_foss_fs`` combines two restarts: ``coef``
    and ``rss_trace`` are those of the winning restart, ``iterations``
    and ``termination`` those of the smallest-prefix restart that ends on
    the same active set, so ``len(rss_trace)`` need not match
    ``iterations``.

    The experiments harness reports a basic method (a screener's
    estimate, not iterated) as a result too: its ``rss_trace`` holds the
    estimate's RSS alone, ``iterations`` is 0 and ``termination`` empty.
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
    return np.where(_largest(np.abs(x), M), x, 0.0)


def _largest(magnitude: np.ndarray, M: int) -> np.ndarray:
    """The mask ``hard_threshold`` keeps of ``magnitude`` (p entries,
    1 <= M <= p): every entry at or above the M-th largest, less the last
    of those equal to it that overflow the M places."""
    p = magnitude.shape[0]
    cut = np.partition(magnitude, p - M)[p - M]
    keep = magnitude >= cut
    extra = int(np.count_nonzero(keep)) - M
    if extra > 0:
        keep[np.flatnonzero(magnitude == cut)[-extra:]] = False
    return keep


def _gradient(problem: StandardizedProblem, coef: SparseCoef) -> np.ndarray:
    """X'(y - X beta)."""
    return problem.X.T @ _residual(problem, coef)


def _thresholded(problem: StandardizedProblem, coef: SparseCoef, gradient, M: int) -> np.ndarray:
    """S_M(beta + X'(y - X beta)/c), given the gradient X'(y - X beta).

    Flagged zero-variance coordinates are cleared first, so they can
    never enter an active set.
    """
    v = coef.beta + gradient / problem.c
    if problem.degenerate.any():
        v[problem.degenerate] = 0.0
    return hard_threshold(v, M)


def oss_step(problem: StandardizedProblem, coef: SparseCoef, M: int) -> SparseCoef:
    """One thresholded gradient-correction step.

    Computes S_M(X'y/c + (I - X'X/c) beta) where S_M keeps the M largest
    magnitudes.  For inputs within the sparsity budget the objective
    never increases.  Inputs with more than M nonzeros are allowed; the
    step thresholds them down.
    """
    return SparseCoef.from_dense(_thresholded(problem, coef, _gradient(problem, coef), M))


def foss_step(problem: StandardizedProblem, coef: SparseCoef, M: int) -> SparseCoef:
    """Thresholded gradient step followed by a least-squares refit.

    The refit on the thresholded active set gives an objective no larger
    than the plain step's, which in turn is no larger than the input's.
    """
    stepped = _thresholded(problem, coef, _gradient(problem, coef), M)
    return refit_subset(problem, np.flatnonzero(stepped))


def refit_subset(problem: StandardizedProblem, active) -> SparseCoef:
    """Least-squares fit on the given columns, zeros elsewhere.

    The values are ``min_norm_least_squares`` of y on the columns, so
    rank-deficient and near-dependent sets keep minimum-norm semantics.
    """
    active = np.asarray(active, dtype=int)
    beta = np.zeros(problem.p)
    if active.size:
        beta[active] = min_norm_least_squares(problem.X[:, active], problem.y)
    return SparseCoef.from_dense(beta)


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
    returned coefficients are the lowest-objective iterate seen.  The
    plain variant crosses stretches that keep their active set in closed
    form (see ``_OssStep``); the refitting variant is the walk from its
    first set that the multi-start restarts share (see ``_FossStep``).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    step = (_OssStep if opts.algorithm == "oss" else _FossStep)(problem, M, opts)
    return step.run(init, _residual(problem, init))


# An oss jump starts with a block of this many steps and doubles it, up
# to JUMP_BLOCK_ENTRIES candidate values per block.
JUMP_BLOCK = 32
JUMP_BLOCK_ENTRIES = 1 << 15

# Safety factor on the rounding bounds that decide where an oss jump must
# stop and leave a step to the ordinary loop (see _OssStep).
JUMP_SLACK = 16.0

_EPS = float(np.finfo(float).eps)


class _OssStep:
    """The plain iteration on one problem, which jumps over settled stretches.

    While a step keeps its active set A, it is the Richardson (OEM)
    iteration beta_A <- beta_A + X_A'(y - X_A beta_A)/c, so with
    X_A'X_A = V diag(lam) V', q = 1 - lam/c and h = V'X_A'r_0 the
    gradient at the start in eigen-coordinates, k steps give

        beta_k = beta_0 + V diag((1 - q^k)/lam) h,
        RSS_(k-1) - RSS_k = sum_i h_i^2 q_i^(2k-2) (2c - lam_i)/c^2,

    a decrease with no cancellation; directions with lam within rounding
    of 0 stay where they are.  The candidates x_j'r_k/c of the columns
    outside A are affine in the same coefficients, through X'X_A V.

    So after an ordinary step that keeps A (with |A| = M), the next steps
    are evaluated in closed form, a block at a time by one GEMM, and the
    jump runs up to the step before the first one where

    - the thresholded set differs from A, or the set margin (the least
      |beta| on A minus the largest candidate outside A) is within the
      bound ``tau_k`` below, so that ``hard_threshold``'s tie rule
      decides;
    - the stop rule holds, or its test is within ``rho_k`` of
      ``rel_tol``;

    or up to the last step the budget allows.  That iterate is handed
    back with its own residual, and the objective of every step jumped
    over is its RSS plus the closed-form decreases after it.  The bounds,
    with u the unit roundoff, a = ||y|| + sqrt(n) ||beta_0||_1 and
    r = ||r_0||, are

        e_cand = u (||beta_0||_inf + sqrt(n) (n r + (M + 1) a) / c),
        e_rss  = u (n RSS_0 + 2 r (M + 1) a),
        tau_k  = JUMP_SLACK ((k + 1) M e_cand + k ||h_null|| / c),
        rho_k  = JUMP_SLACK (e_rss + (k + M) u d_k
                             + 4 k sqrt(M c d_k) e_cand + 2 ||h_null||^2 / c):

    e_cand bounds the rounding of one formed candidate and e_rss of one
    formed RSS; the k-fold terms cover what k ordinary steps accumulate
    (each step's error is carried on by a map of norm at most 1), the
    M-fold ones the eigendecomposition, and h_null the motion along the
    frozen directions that the ordinary steps would make.
    """

    def __init__(self, problem: StandardizedProblem, M: int, opts: IterationOptions):
        self.problem = problem
        self.M = M
        self.rel_tol = opts.rel_tol
        self.max_iter = opts.resolved_max_iter()
        self.key: tuple[int, ...] | None = None
        self.spectrum: tuple | None = None

    def run(self, coef: SparseCoef, residual) -> ScreeningResult:
        """The run from ``coef``, whose residual y - X beta is ``residual``.

        Each pass takes one ordinary step or, when that step keeps a full
        active set, one jump over the steps that provably keep it too.
        Every objective a jump reports but the last belongs to a step
        known to keep its set and not to meet the stop rule, so only the
        last one is tested.
        """
        problem, M = self.problem, self.M
        trace = []
        best, best_rss = None, math.inf
        if coef.active.size <= M:
            trace.append(float(residual @ residual))
            best, best_rss = coef, trace[0]
        start = len(trace)
        termination = TERM_MAX_ITER
        while len(trace) - start < self.max_iter:
            budget = self.max_iter - (len(trace) - start)
            gradient = problem.X.T @ residual
            stepped = SparseCoef.from_dense(_thresholded(problem, coef, gradient, M))
            keeps = stepped.active.size == M and np.array_equal(stepped.active, coef.active)
            jumped = self._jump(coef, residual, gradient, budget) if keeps and budget > 1 else None
            if jumped is None:
                residual = _residual(problem, stepped)
                jumped = stepped, residual, [float(residual @ residual)]
            coef, residual, values = jumped
            trace.extend(values)
            if values[-1] < best_rss:
                best, best_rss = coef, values[-1]
            if len(trace) > 1 and _stops(trace[-2], trace[-1], self.rel_tol):
                termination = TERM_CONVERGED
                break
        return ScreeningResult(best, np.asarray(trace), len(trace) - start, termination)

    def _spectrum(self, active: np.ndarray) -> tuple:
        """What a jump on the active set A needs of X, formed once per set
        (the last one is kept): ``(lam, V, null, logq, weight, outside,
        cross)``.

        X_A'X_A = V diag(lam) V'; ``null`` marks the directions whose
        eigenvalue is within rounding of 0 (a rank-deficient A), where
        ``lam`` holds 1 (they move by 0 / 1); ``logq`` is log(1 - lam/c)
        and ``weight`` (2c - lam)/c^2, both with lam = 0 on null
        directions; ``outside`` marks the columns that compete with A for
        a place (not in A, not degenerate) and ``cross`` is X_outside'X_A V.
        """
        key = tuple(active.tolist())
        if key != self.key:
            problem, c = self.problem, self.problem.c
            block = problem.X.T @ problem.X[:, active]
            gram = block[active]
            lam, V = np.linalg.eigh(0.5 * (gram + gram.T))
            null = lam <= JUMP_SLACK * active.size * _EPS * c
            # c >= lambda_max(X'X) >= lam; the clip keeps log(1 - lam/c) finite.
            lam = np.where(null, 0.0, np.minimum(lam, (1.0 - _EPS) * c))
            outside = np.ones(problem.p, dtype=bool)
            outside[active] = False
            outside &= ~problem.degenerate
            self.key = key
            self.spectrum = (
                np.where(null, 1.0, lam), V, null, np.log1p(-lam / c),
                (2.0 * c - lam) / (c * c), outside, block[outside] @ V,
            )
        return self.spectrum

    def _jump(self, coef, residual, gradient, budget):
        """Steps 1..m from ``coef`` in closed form, as ``(coef, residual,
        values)`` (the iterate after step m, its residual and the objective
        after each step), or None when m < 2."""
        problem = self.problem
        n, c = problem.n, problem.c
        active = coef.active
        M = active.size
        lam, V, null, logq, weight, outside, cross = self._spectrum(active)
        h = V.T @ gradient[active]
        h_null = float(np.linalg.norm(h[null]))
        h[null] = 0.0
        beta0 = coef.beta[active]
        outer = gradient[outside]
        rss0 = float(residual @ residual)
        r0 = math.sqrt(rss0)
        a = float(np.linalg.norm(problem.y)) + math.sqrt(n) * float(np.abs(beta0).sum())
        e_cand = _EPS * (float(np.abs(beta0).max()) + math.sqrt(n) * (n * r0 + (M + 1) * a) / c)
        e_rss = _EPS * (n * rss0 + 2.0 * r0 * (M + 1) * a)

        decreases = []
        before = rss0  # the objective before the block's first step
        first, width, m = 1, JUMP_BLOCK, budget
        widest = max(JUMP_BLOCK, JUMP_BLOCK_ENTRIES // max(1, outer.size))
        while first <= budget:
            k = np.arange(first, min(first + width, budget + 1), dtype=float)
            # Column j of shift is V'(beta_(first - 1 + j) - beta_0).
            steps = np.append(k - 1.0, k[-1])
            shift = -np.expm1(np.multiply.outer(logq, steps)) / lam[:, None] * h[:, None]
            beta = beta0[:, None] + V @ shift[:, 1:]  # beta_k on A
            # The largest candidate outside A at step k, from beta_(k-1).
            rival = cross @ shift[:, :-1]
            np.subtract(outer[:, None], rival, out=rival)
            rival = np.abs(rival, out=rival).max(axis=0, initial=0.0) / c
            margin = np.abs(beta).min(axis=0) - rival
            tau = JUMP_SLACK * ((k + 1.0) * M * e_cand + k * h_null / c)
            d = weight @ (np.exp(np.multiply.outer(logq, k - 1.0)) * h[:, None]) ** 2
            prior = before - np.concatenate(([0.0], np.cumsum(d[:-1])))
            # A large rel_tol may overflow the margin to inf: the jump stops
            # there and the ordinary step's stop test fires.
            with np.errstate(over="ignore"):
                test = d - self.rel_tol * np.where(prior > 0.0, prior, 1.0)
            rho = JUMP_SLACK * (
                e_rss + (k + M) * _EPS * d + 4.0 * k * np.sqrt(M * c * d) * e_cand
                + 2.0 * h_null * h_null / c
            )
            settled = (test > rho) & ((margin > tau) | (k == 1.0))
            if not settled.all():
                stop = int(np.argmin(settled))
                decreases.append(d[:stop])
                m = first + stop - 1
                break
            decreases.append(d)
            before = prior[-1] - d[-1]
            first += k.size
            width = min(2 * width, widest)
        if m < 2:
            return None

        step = -np.expm1(m * logq) / lam * h
        beta = np.zeros(problem.p)
        beta[active] = beta0 + V @ step
        jumped = SparseCoef.from_dense(beta)
        r = _residual(problem, jumped)
        final = float(r @ r)
        d = np.concatenate(decreases)
        values = final + np.cumsum(d[:0:-1])[::-1]
        return jumped, r, [*values.tolist(), final]


class _FossStep:
    """The refitting iteration on one problem, memoized by set.

    After its first step, a refitting run's course depends only on the
    set that step thresholds to: the refit on a set S, its residual and
    objective, and the set the next step from that refit thresholds to
    depend on S alone.  So each refit, each next set and each walk (the
    run from the refit on a first set, with no point before it) is
    computed once, and a run from a starting point is the walk from its
    first set with the point put first (``restart``).  The memo pays off
    across the restarts of ``multi_start_foss_fs``, whose neighbouring
    prefixes mostly threshold to the same few first sets.
    """

    def __init__(self, problem: StandardizedProblem, M: int, opts: IterationOptions):
        self.problem = problem
        self.M = M
        self.rel_tol = opts.rel_tol
        self.max_iter = opts.resolved_max_iter()
        self.refits: dict[tuple[int, ...], tuple[SparseCoef, np.ndarray, float]] = {}
        self.next_set: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.walks: dict[tuple[int, ...], ScreeningResult] = {}

    def first_set(self, coef: SparseCoef, gradient) -> tuple[int, ...]:
        """The set one step from ``coef`` thresholds to, given its X'r."""
        return tuple(np.flatnonzero(_thresholded(self.problem, coef, gradient, self.M)).tolist())

    def run(self, init: SparseCoef, residual) -> ScreeningResult:
        """The run from ``init``, whose residual is ``residual``."""
        return self.restart(init, self.first_set(init, self.problem.X.T @ residual))

    def restart(self, start: SparseCoef, first) -> ScreeningResult:
        """The run from ``start`` whose first step thresholds to ``first``.

        That run is the walk from ``first`` (the same object for every
        such ``start`` beyond the budget), except where ``start`` is
        within the budget: then its objective leads the trace, the first
        step meets the stop rule against it (and the run ends there), and
        it stays the returned iterate unless a step's objective is
        strictly smaller.
        """
        walk = self.walk(first)
        if start.active.size > self.M:
            return walk
        r0 = rss(self.problem, start)
        v1 = walk.rss_trace[0]
        if _stops(r0, v1, self.rel_tol):
            best, value, trace = self._refit(first)[0], v1, walk.rss_trace[:1]
            iterations, termination = 1, TERM_CONVERGED
        else:
            best, value, trace = walk.coef, walk.final_rss, walk.rss_trace
            iterations, termination = walk.iterations, walk.termination
        return ScreeningResult(
            coef=best if value < r0 else start,
            rss_trace=np.concatenate(([r0], trace)),
            iterations=iterations,
            termination=termination,
        )

    def walk(self, first: tuple[int, ...]) -> ScreeningResult:
        """The run from the refit on ``first``, with no point before it."""
        walk = self.walks.get(first)
        if walk is None:
            walk = self.walks[first] = self._walk(first)
        return walk

    def _walk(self, target) -> ScreeningResult:
        values, visited = [], set()
        best, best_rss = None, math.inf
        termination = TERM_MAX_ITER
        while True:
            coef, residual, cur = self._refit(target)
            prev = values[-1] if values else None
            values.append(cur)
            if cur < best_rss:
                best, best_rss = coef, cur
            if prev is not None and _stops(prev, cur, self.rel_tol):
                termination = TERM_CONVERGED
                break
            key = tuple(coef.active.tolist())
            if key in visited:
                termination = TERM_CYCLE
                break
            visited.add(key)
            if len(values) == self.max_iter:
                break
            following = self.next_set.get(target)
            if following is None:
                following = self.next_set[target] = self.first_set(
                    coef, self.problem.X.T @ residual
                )
            target = following
        return ScreeningResult(best, np.asarray(values), len(values), termination)

    def _refit(self, target):
        hit = self.refits.get(target)
        if hit is None:
            refit = refit_subset(self.problem, target)
            r = _residual(self.problem, refit)
            hit = self.refits[target] = (refit, r, float(r @ r))
        return hit


def _stops(prev: float, cur: float, rel_tol: float) -> bool:
    """The stop rule: the decrease from ``prev`` to ``cur`` is below
    ``rel_tol`` relative to ``prev`` (to 1 when ``prev`` is 0)."""
    return (prev - cur) < rel_tol * (prev if prev > 0.0 else 1.0)


def multi_start_window(n: int, p: int, M: int) -> tuple[int, int]:
    """Inclusive range of stepwise prefix sizes used as restart points.

    The window is M +/- floor(p/10), clamped into [1, min(n - 1, p)].
    """
    width = p // 10
    hard_hi = min(n - 1, p)
    lo = max(1, min(M - width, hard_hi))
    hi = max(lo, min(M + width, hard_hi))
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
    (clipped to the sizes the path actually reached; an empty path
    restarts from the zero vector alone).  The coefficients
    and objective trace returned are those of the run with the smallest
    final objective; exact ties go to the lexicographically smaller
    active set.  ``iterations`` and ``termination`` are those of the run
    from the smallest prefix that ends on the same active set: several
    restarts often reach one set, with final objectives that differ only
    in rounding (a refit against a stepwise estimator on the same set),
    and the count must not depend on which of them wins by the last
    bits.  Deterministic given its inputs.

    After its first step a restart's course depends only on the set that
    step thresholds to, so every prefix reaches the loop as one pair
    (start, first set) from ``_restart_points`` and its run is
    ``_FossStep.restart(start, first)``, built from the walk of its
    first set.  Each distinct first set is walked once and each set refit
    once per call, so the result is the one separate ``run`` calls give,
    bit for bit.
    """
    if opts is None:
        opts = IterationOptions(algorithm="foss")
    elif opts.algorithm != "foss":
        raise ValueError("multi-start restarts use the refitting algorithm")
    lo, hi = multi_start_window(problem.n, problem.p, M)
    hi = min(hi, fs_path.order.size)
    lo = min(lo, hi)
    if hi < 1:  # every column constant: the one start is the empty prefix
        return run(problem, fs_path.coef_at(0), M, opts)
    step = _FossStep(problem, M, opts)
    best = None
    best_key = None
    first_on_set: dict[tuple[int, ...], ScreeningResult] = {}
    ranked: set[ScreeningResult] = set()
    for start, first in _restart_points(step, fs_path, lo, hi):
        result = step.restart(start, first)
        if result in ranked:  # a walk shared with an earlier restart
            continue
        ranked.add(result)
        active = tuple(result.coef.active.tolist())
        first_on_set.setdefault(active, result)
        key = (result.final_rss, active)
        if best_key is None or key < best_key:
            best, best_key = result, key
    counted = first_on_set[best_key[1]]
    return replace(best, iterations=counted.iterations, termination=counted.termination)


def _restart_points(step: _FossStep, fs_path, lo: int, hi: int):
    """Yield ``(start, first)`` for each stepwise prefix of size lo..hi:
    its least-squares coefficients and the set the first step from them
    thresholds to with ``step``'s budget M.

    The prefixes come FIRST_SET_ROWS at a time, which bounds the dense
    rows held at once.  A prefix whose set the chunk's product decides
    (``_first_sets``) takes it from there; any other forms its gradient
    afresh, as ``run`` does.
    """
    problem = step.problem
    for size in range(lo, hi + 1, FIRST_SET_ROWS):
        betas = fs_path.dense_coefs(size, min(size + FIRST_SET_ROWS - 1, hi))
        keep, decided = _first_sets(problem, fs_path, size, betas, step.M)
        for beta, row, sure in zip(betas, keep, decided):
            start = SparseCoef.from_dense(beta)
            if sure:
                first = tuple(np.flatnonzero(row).tolist())
            else:
                first = step.first_set(start, problem.X.T @ _residual(problem, start))
            yield start, first


def _first_sets(problem: StandardizedProblem, fs_path, lo: int, betas, M: int):
    """Per row of ``betas`` (the prefixes of sizes lo, lo + 1, ...), the
    mask of the entries of beta + g / c at or above ``hard_threshold``'s
    cut with budget M, g the row's gradient, and whether that mask is
    the set the first step from the row thresholds to.

    Every row takes its gradient from ``_prefix_gradients``, whether the
    sweep's factor or the minimum-norm solver solved it: the bound there
    holds for any coefficient row.  With g within ``bound`` of the fresh
    gradient, the entries of beta + g / c are within ``slack`` of the
    fresh ones: twice bound / c plus the rounding of forming them.  A
    row's set is decided when its M-th largest magnitude exceeds the
    next one by more than twice ``slack``: then both gradients keep the
    same M columns, all nonzero.
    """
    p = problem.p
    G, bound = _prefix_gradients(problem, fs_path, lo, betas)
    eps = np.finfo(float).eps
    v = G / problem.c
    v += betas  # in place: the same sum as betas + G / c
    slack = (2.0 * bound + eps * np.abs(G).max(axis=1)) / problem.c + eps * np.abs(v).max(axis=1)
    if problem.degenerate.any():
        v[:, problem.degenerate] = 0.0
    mag = np.abs(v, out=v)
    if M < p:
        part = np.partition(mag, (p - M - 1, p - M), axis=1)
        cut, below = part[:, p - M], part[:, p - M - 1]
    else:
        cut, below = mag.min(axis=1), 0.0
    return mag >= cut[:, None], cut - below > 2.0 * slack


def _prefix_gradients(problem: StandardizedProblem, fs_path, lo: int, B):
    """The gradients X'(y - X beta) of the rows of ``B`` (the prefixes
    of sizes lo, lo + 1, ...) as the rows of one product X'(y - X_A B'),
    and per row a bound on their distance from the gradient formed
    afresh, X'(y - X_S beta_S) by ``_residual``.

    Any summation order forms the residual within (k + 1) u a and its
    product with a column of norm sqrt(n) within n u sqrt(n) a of the
    exact values, where k is the largest prefix and a = ||y|| + sqrt(n)
    ||beta||_1 bounds the residual's terms.  Both gradients are within
    sqrt(n) (n + k + 1) u a of the exact one, so within
    sqrt(n) (n + k + 1) eps a of each other (eps = 2u).
    """
    X, y = problem.X, problem.y
    n = X.shape[0]
    cols = fs_path.order[: lo + B.shape[0] - 1]
    G = (y[:, None] - X[:, cols] @ B[:, cols].T).T @ X
    a = np.linalg.norm(y) + math.sqrt(n) * np.abs(B).sum(axis=1)
    return G, (n + cols.size + 1) * np.finfo(float).eps * math.sqrt(n) * a


def exhaustive_best_subset(problem: StandardizedProblem, M: int) -> ScreeningResult:
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

    All C(p, M) subsets are scored; nothing is pruned.  A response that
    is zero after centering is fit exactly by every subset, so then only
    the first subset is refit and returned.  When M >= n the
    rows are padded with zeros so that R[M, M] exists, and every subset
    with at least n nonconstant columns (centered, they span at most
    n - 1 dimensions) has a negligible pivot and is refit.

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
    X, y = problem.X, problem.y
    if y.any():
        contenders = _contenders(X, y, M)
    else:
        # Every subset fits a zero response exactly, so the first one wins.
        contenders = np.arange(M)[None, :]
    best_rss = math.inf
    best_subset: np.ndarray | None = None
    best_vals: np.ndarray | None = None
    for subset in contenders:
        vals = min_norm_least_squares(X[:, subset], y)
        r = y - X[:, subset] @ vals if M else y
        val = float(r @ r)
        if val < best_rss:
            best_rss, best_subset, best_vals = val, subset, vals

    beta = np.zeros(p)
    beta[best_subset] = best_vals
    return ScreeningResult(
        coef=SparseCoef.from_dense(beta),
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
