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

While the plain iteration keeps its active set A, each step is the
Richardson (OEM) iteration on X_A, so ``run`` crosses such a stretch in
closed form: one eigendecomposition of X_A'X_A and one p x M block
X'X_A per set, then one GEMM per block of future steps evaluates their
candidates and cancellation-free objective decreases.  The jump stops
before the first step whose set could differ, whose stop test could
fire (both judged with a stated rounding allowance), or at the
iteration cap, and the ordinary step takes over from there.  ``run``
and the multi-start restarts share one refitting step; the restarts
take their first gradient from the stepwise sweep's X'r instead of
forming it.

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
    magnitude = np.abs(x)
    cut = np.partition(magnitude, p - M)[p - M]
    keep = magnitude >= cut
    extra = np.count_nonzero(keep) - M
    if extra:
        keep[np.flatnonzero(magnitude == cut)[-extra:]] = False
    return np.where(keep, x, 0.0)


def _gradient(problem: StandardizedProblem, coef: SparseCoef) -> np.ndarray:
    """X'(y - X beta)."""
    return problem.X.T @ _residual(problem, coef)


def _thresholded(problem: StandardizedProblem, coef: SparseCoef, gradient) -> np.ndarray:
    """S_M(beta + X'(y - X beta)/c), given the gradient X'(y - X beta).

    Flagged zero-variance coordinates are cleared first, so they can
    never enter an active set.
    """
    v = coef.beta + gradient / problem.c
    if problem.degenerate.any():
        v[problem.degenerate] = 0.0
    return hard_threshold(v, coef.bound)


def oss_step(problem: StandardizedProblem, coef: SparseCoef) -> SparseCoef:
    """One thresholded gradient-correction step.

    Computes S_M(X'y/c + (I - X'X/c) beta) where S_M keeps the M largest
    magnitudes.  For inputs within the sparsity budget the objective
    never increases.  Inputs with more than M nonzeros are allowed; the
    step thresholds them down.
    """
    stepped = _thresholded(problem, coef, _gradient(problem, coef))
    return SparseCoef.from_dense(stepped, coef.bound)


def foss_step(problem: StandardizedProblem, coef: SparseCoef) -> SparseCoef:
    """Thresholded gradient step followed by a least-squares refit.

    The refit on the thresholded active set gives an objective no larger
    than the plain step's, which in turn is no larger than the input's.
    """
    stepped = _thresholded(problem, coef, _gradient(problem, coef))
    return refit_subset(problem, np.flatnonzero(stepped), coef.bound)


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
    returned coefficients are the lowest-objective iterate seen.  The
    plain variant crosses stretches that keep their active set in closed
    form (see ``_OssStep``); the refitting variant steps through
    ``_FossStep``, the step of the multi-start restarts.
    """
    if opts.algorithm == "oss":
        step = _OssStep(problem, opts.rel_tol)
    else:
        step = _FossStep(problem)
    return _iterate(problem, init, M, opts, step)


def _iterate(problem, init, M, opts, step) -> ScreeningResult:
    """The loop of ``run``, over the step map ``step``.

    ``step(coef, residual, source, budget)`` receives an iterate, its
    residual y - X beta, the key the previous call returned (``None``
    for the starting point) and the number of steps left.  It returns
    ``(coef, residual, values, source)``: the iterate after
    ``len(values)`` steps (between 1 and ``budget``), its residual, the
    objective after each of those steps, and a key for the next call.
    Every value but the last belongs to a step already known to keep
    its active set and not to meet the stop rule (a closed-form jump),
    so only the last one is tested.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    max_iter = opts.resolved_max_iter()
    coef = SparseCoef.from_dense(init.beta, M)
    residual = _residual(problem, coef)

    trace = []
    best = None
    best_rss = math.inf
    prev = None
    if coef.active.size <= M:
        r0 = float(residual @ residual)
        trace.append(r0)
        prev = r0
        best, best_rss = coef, r0

    visited: set[tuple[int, ...]] = set()
    source = None
    iterations = 0
    termination = TERM_MAX_ITER
    while iterations < max_iter:
        coef, residual, values, source = step(coef, residual, source, max_iter - iterations)
        trace.extend(values)
        iterations += len(values)
        cur = values[-1]
        if len(values) > 1:
            prev = values[-2]
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


# An oss jump starts with a block of this many steps and doubles it, up
# to JUMP_BLOCK_ENTRIES candidate values per block.
JUMP_BLOCK = 32
JUMP_BLOCK_ENTRIES = 1 << 15

# Safety factor on the rounding bounds that decide where an oss jump must
# stop and leave a step to the ordinary loop (see _OssStep).
JUMP_SLACK = 16.0

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class _SetSpectrum:
    """What a closed-form oss jump on the active set A needs of X.

    X_A'X_A = V diag(lam) V'; ``null`` marks the directions whose
    eigenvalue is within rounding of 0 (a rank-deficient A), ``logq`` is
    log(1 - lam/c) (0 on null directions), ``weight`` (2c - lam)/c^2,
    ``outside`` the columns that compete with A for a place (not in A,
    not degenerate) and ``cross`` X_outside'X_A V.
    """

    lam: np.ndarray
    V: np.ndarray
    null: np.ndarray
    logq: np.ndarray
    weight: np.ndarray
    outside: np.ndarray
    cross: np.ndarray

    @classmethod
    def of(cls, problem: StandardizedProblem, active: np.ndarray) -> "_SetSpectrum":
        c = problem.c
        block = problem.X.T @ problem.X[:, active]
        gram = block[active]
        lam, V = np.linalg.eigh(0.5 * (gram + gram.T))
        null = lam <= JUMP_SLACK * active.size * _EPS * c
        # c >= lambda_max(X'X) >= lam; the clip keeps log(1 - lam/c) finite.
        lam = np.where(null, 0.0, np.minimum(lam, (1.0 - _EPS) * c))
        outside = np.ones(problem.p, dtype=bool)
        outside[active] = False
        outside &= ~problem.degenerate
        return cls(
            lam=lam,
            V=V,
            null=null,
            logq=np.log1p(-lam / c),
            weight=(2.0 * c - lam) / (c * c),
            outside=outside,
            cross=block[outside] @ V,
        )


class _OssStep:
    """The plain step of one ``run``, which jumps over settled stretches.

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

    def __init__(self, problem: StandardizedProblem, rel_tol: float):
        self.problem = problem
        self.rel_tol = rel_tol
        self.key: tuple[int, ...] | None = None
        self.spectrum: _SetSpectrum | None = None

    def __call__(self, coef, residual, source, budget):
        problem = self.problem
        gradient = problem.X.T @ residual
        stepped = SparseCoef.from_dense(_thresholded(problem, coef, gradient), coef.bound)
        if (
            budget > 1
            and stepped.active.size == coef.bound
            and np.array_equal(stepped.active, coef.active)
        ):
            jumped = self._jump(coef, residual, gradient, budget)
            if jumped is not None:
                return jumped
        r = _residual(problem, stepped)
        return stepped, r, [float(r @ r)], None

    def _spectrum(self, active: np.ndarray) -> _SetSpectrum:
        key = tuple(active.tolist())
        if key != self.key:
            self.key, self.spectrum = key, _SetSpectrum.of(self.problem, active)
        return self.spectrum

    def _jump(self, coef, residual, gradient, budget):
        """Steps 1..m from ``coef`` in closed form, or None when m < 2."""
        problem = self.problem
        n, c = problem.n, problem.c
        active = coef.active
        M = active.size
        s = self._spectrum(active)
        h = s.V.T @ gradient[active]
        h_null = float(np.linalg.norm(h[s.null]))
        h[s.null] = 0.0
        lam = np.where(s.null, 1.0, s.lam)  # frozen directions move by 0 / 1
        beta0 = coef.beta[active]
        outer = gradient[s.outside]
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
            shift = -np.expm1(np.multiply.outer(s.logq, steps)) / lam[:, None] * h[:, None]
            beta = beta0[:, None] + s.V @ shift[:, 1:]  # beta_k on A
            # The largest candidate outside A at step k, from beta_(k-1).
            rival = s.cross @ shift[:, :-1]
            np.subtract(outer[:, None], rival, out=rival)
            rival = np.abs(rival, out=rival).max(axis=0, initial=0.0) / c
            margin = np.abs(beta).min(axis=0) - rival
            tau = JUMP_SLACK * ((k + 1.0) * M * e_cand + k * h_null / c)
            d = s.weight @ (np.exp(np.multiply.outer(s.logq, k - 1.0)) * h[:, None]) ** 2
            prior = before - np.concatenate(([0.0], np.cumsum(d[:-1])))
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

        step = -np.expm1(m * s.logq) / lam * h
        beta = np.zeros(problem.p)
        beta[active] = beta0 + s.V @ step
        jumped = SparseCoef.from_dense(beta, coef.bound)
        r = _residual(problem, jumped)
        final = float(r @ r)
        d = np.concatenate(decreases)
        values = final + np.cumsum(d[:0:-1])[::-1]
        return jumped, r, [*values.tolist(), final], None


class _FossStep:
    """The refitting step of one problem, memoized by the set it refits.

    The refit on a set S, its residual and objective, and the set the
    next step from that refit thresholds to depend on S alone, so each
    is computed once per S.  A step from a point that is not such a
    refit (a restart's starting point, ``source`` None) computes its set
    afresh, from ``start`` as its X'r when that is set and else from the
    residual.  The memo pays off across the restarts of
    ``multi_start_foss_fs``.  Within one ``run`` it can hit only on the
    step that reaches a set for the second time, which ends the run as a
    cycle, and then it returns the refit that step would compute.
    """

    def __init__(self, problem: StandardizedProblem):
        self.problem = problem
        self.refits: dict[tuple[int, ...], tuple[SparseCoef, np.ndarray, float]] = {}
        self.next_set: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.start: np.ndarray | None = None

    def __call__(self, coef: SparseCoef, residual, source, budget):
        target = self.next_set.get(source)
        if target is None:
            if source is None and self.start is not None:
                gradient = self.start
            else:
                gradient = self.problem.X.T @ residual
            target = tuple(np.flatnonzero(_thresholded(self.problem, coef, gradient)).tolist())
            if source is not None:
                self.next_set[source] = target
        hit = self.refits.get(target)
        if hit is None:
            refit = refit_subset(self.problem, target, coef.bound)
            r = _residual(self.problem, refit)
            hit = self.refits[target] = (refit, r, float(r @ r))
        return hit[0], hit[1], [hit[2]], target


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
    residual and objective, and the set the next step from it thresholds
    to are memoized by that set (and freed on return).  A restart's first
    gradient is the stepwise sweep's X'r of its prefix
    (``fs_path.gains_at``), which equals X'(y - X beta) of the prefix fit
    up to rounding; near-dependent prefixes, which the path refits by the
    minimum-norm solver, form it afresh.  So the result is the one
    separate ``run`` calls give, bit for bit, unless a restart's first
    candidate sits at an exact tie for the last place, where its last
    bits can decide the set.
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
    step = _FossStep(problem)
    best = None
    best_key = None
    first_on_set: dict[tuple[int, ...], ScreeningResult] = {}
    for size in range(lo, hi + 1):
        step.start = fs_path.gains_at(size)
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

    All C(p, M) subsets are scored; nothing is pruned.  A response that
    is zero after centering is fit exactly by every subset, so then only
    the first subset is refit and returned.  When M >= n the
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
