"""Classical screeners used as entry points for the thresholded search.

Marginal-correlation ranking (single-shot and iterated against the
running residual) and exact greedy forward stepwise selection.  Each
returns least-squares refits so the iterative drivers can start from
them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SparseCoef, _largest, refit_subset
from .numerics import FACTOR_SOLVE_RTOL, StandardizedProblem, min_norm_least_squares

__all__ = ["FsStep", "FsPath", "sis", "isis", "forward_stepwise", "forward_stepwise_paths"]

# A residualized column whose remaining squared norm falls below this
# fraction of its original one is numerically inside the selected span.
SPAN_RTOL2 = 1e-20

# Downdated squared norms below this fraction of the original are
# recomputed exactly: the running subtraction accumulates rounding noise
# of roughly eps * n per step, far above SPAN_RTOL2.
NORM_RECOMPUTE_RTOL2 = 1e-8

# Stale norms are recomputed this many columns at a time, which bounds
# the block of residualized columns held at once to n x STALE_BLOCK.
STALE_BLOCK = 256

# Stepwise scores within this relative distance of the largest one are
# ties, and the smallest index among them is added.  Equal columns get
# scores that differ only by rounding (a BLAS kernel may treat the same
# column differently by its position), far less than this.
TIE_RTOL = 1e-12

# The running inverse of the stepwise path's own triangular factor is used
# only while every diagonal entry of that factor exceeds FACTOR_SOLVE_RTOL
# times the largest one.  Selection admits a column down to a relative
# residual norm of sqrt(SPAN_RTOL2) = RANK_RTOL, so every prefix from the
# first near-dependent column on goes to the minimum-norm solver.


@dataclass(frozen=True, eq=False)
class FsStep:
    """One stepwise addition: the index added, the active set after it
    (ascending), and the least-squares coefficients on that set
    (``coef[i]`` belongs to column ``active[i]``)."""

    added: int
    active: tuple[int, ...]
    coef: np.ndarray


@dataclass(frozen=True, eq=False)
class FsPath:
    """Nested forward-stepwise submodels of sizes 1..len(order).

    ``order`` lists the columns in the order the sweep added them, and
    row ``size - 1`` of ``coefs`` holds the least-squares coefficients
    of the size-``size`` prefix on ``order[:size]`` (0 after them).
    ``order`` is shorter than the size the sweep was asked for when the
    candidates ran out of numerical rank first (empty when every column
    is constant); ``p`` is the number of columns of the problem.  The
    prefixes of sizes 1..``factored`` are solved from the sweep's own
    factor; the near-dependent ones after them are refit by the
    minimum-norm solver.  No array holds a row of p entries per prefix.
    """

    order: np.ndarray
    coefs: np.ndarray
    p: int
    factored: int

    @cached_property
    def steps(self) -> tuple[FsStep, ...]:
        """The prefixes as ``FsStep`` records, built on first use."""
        steps = []
        for size in range(1, self.order.size + 1):
            by_index = np.argsort(self.order[:size])
            steps.append(
                FsStep(
                    added=int(self.order[size - 1]),
                    active=tuple(self.order[:size][by_index].tolist()),
                    coef=self.coefs[size - 1, :size][by_index],
                )
            )
        return tuple(steps)

    def coef_at(self, size: int) -> SparseCoef:
        """Least-squares estimator of the size-``size`` prefix (the zero
        vector at size 0)."""
        if size == 0:
            return SparseCoef.zeros(self.p)
        return SparseCoef.from_dense(self.dense_coefs(size, size)[0])

    def dense_coefs(self, lo: int, hi: int) -> np.ndarray:
        """The coefficient vectors of the prefixes of sizes lo..hi, one
        row of length p each."""
        beta = np.zeros((hi - lo + 1, self.p))
        beta[:, self.order] = self.coefs[lo - 1 : hi]
        return beta


def sis(problem: StandardizedProblem, M: int) -> SparseCoef:
    """Marginal-correlation screening: the top M of |X'y| with a refit,
    which is the first round of ``isis`` admitting all M at once (ties
    toward the smaller index, flagged degenerate columns excluded)."""
    return isis(problem, M, batch=M)


def isis(problem: StandardizedProblem, M: int, batch: int | None = None) -> SparseCoef:
    """Iterated marginal screening against the running residual.

    Repeatedly ranks the not-yet-selected columns by |X'r| for the
    current residual r, admits the top ``batch`` (fewer on the last
    round), and refits least squares on the union, until exactly M
    columns are active.  ``batch=None`` uses max(1, ceil(M/5));
    ``batch=M`` is single-shot screening, ``sis``.
    """
    if not 1 <= M <= problem.p:
        raise ValueError("M must be in [1, p]")
    if batch is None:
        batch = max(1, math.ceil(M / 5))
    if not 1 <= batch <= M:
        raise ValueError("batch must be in [1, M]")

    active = np.zeros(0, dtype=int)
    coef = SparseCoef.zeros(problem.p)
    while active.size < M:
        gains = problem.X.T @ (problem.y - problem.X[:, active] @ coef.beta[active])
        scores = np.abs(gains)
        scores[problem.degenerate] = -np.inf
        scores[active] = -np.inf
        eligible = int(np.sum(np.isfinite(scores)))
        take = min(batch, M - active.size, eligible)
        if take == 0:
            break
        keep = _largest(scores, take)
        keep[active] = True
        active = np.flatnonzero(keep)
        coef = refit_subset(problem, active)
    return coef


def forward_stepwise(problem: StandardizedProblem, max_size: int) -> FsPath:
    """Exact greedy stepwise selection, recorded as a nested path.

    Each step adds the column giving the largest drop in the residual sum
    of squares given the current set (ties toward the smaller index).
    That drop is (x_j'r)^2 / ||z_j||^2, where r is the current residual
    and z_j the part of x_j orthogonal to the selected span; r is itself
    orthogonal to that span, so x_j'r needs no residualized copy of the
    design.  Both are downdated step by step from one product q'X with
    the new basis vector q: ||z_j||^2 is recomputed, a block of columns
    at a time, when it shrinks by eight orders of magnitude, and X'r is
    formed afresh whenever its downdated values, within their rounding
    bound, do not decide the step (a near-tie among the scores).  If the
    candidates run out of numerical rank before ``max_size`` the path
    stops there, shorter than ``max_size``.  Beyond the design, the sweep
    holds O(n k + p) numbers for a path of k steps.

    Every prefix is recorded with its least-squares refit.  The sweep
    builds a QR factorization of the selected columns in selection
    order: each new basis vector is the chosen column minus its
    projection on the basis so far, projected once more to keep the
    basis orthogonal (classical Gram-Schmidt twice).  The path keeps
    T = R^-1 one column per step (its leading block inverts R's), so the
    size-k prefix's coefficients are the sum of T's first k columns,
    each times its entry of Q'y: one cumulative sum gives every prefix,
    O(k^2) for the size-k prefix on top of the O(n p) of the step,
    instead of a fresh O(n k^2) least-squares solve.  From the first
    step whose diagonal entry of R falls to ``FACTOR_SOLVE_RTOL`` times
    the largest one or below, that prefix and every later one are refit
    by ``min_norm_least_squares`` instead, so near-dependent prefixes
    keep minimum-norm semantics (``FsPath.factored`` counts the prefixes
    before them).

    This is ``forward_stepwise_paths`` on a block of one problem.
    """
    return forward_stepwise_paths([problem], max_size)[0]


def forward_stepwise_paths(problems, max_size: int) -> tuple[FsPath, ...]:
    """``forward_stepwise`` for several responses on one design.

    ``problems`` must share one design matrix (``bind`` on one
    ``PreparedDesign``).  Their sweeps run in lockstep, one step of every
    sweep at a time: their new rows q'X are one GEMM per step in place
    of one GEMV per problem, and so is the X'R of the sweeps whose scores
    are formed afresh.  A GEMM forms each column with other rounding
    than a GEMV, so a path can differ from the problem's own
    ``forward_stepwise`` in its last bits (and pick another column at a
    near-tie); within a block, a column's bits do not depend on the
    block's width (checked with OpenBLAS for widths 2 to 16).  A block of
    one is ``forward_stepwise`` itself, bit for bit.

    Raises ValueError when the problems do not share one design or
    ``max_size`` is outside [1, min(n - 1, p)].
    """
    X = problems[0].X
    if any(problem.X is not X for problem in problems):
        raise ValueError("the problems of one stepwise block must share one design")
    n, p = X.shape
    if not 1 <= max_size <= min(n - 1, p):
        raise ValueError("max_size must be in [1, min(n - 1, p)]")
    Y = np.column_stack([problem.y for problem in problems])
    factors = _greedy_factor(X, Y, max_size)
    return tuple(
        _path(problem, order, R, qty) for problem, (order, _, R, qty) in zip(problems, factors)
    )


def _path(problem: StandardizedProblem, order, R, qty) -> FsPath:
    """The prefixes of one sweep's factor X[:, order] = Q R, qty = Q'y."""
    size = order.size
    # Every column has norm sqrt(n) and residualizing only shrinks it,
    # so the first diagonal entry is the largest.
    solvable = np.diagonal(R) > FACTOR_SOLVE_RTOL * (R[0, 0] if size else 0.0)
    usable = int(np.logical_and.accumulate(solvable).sum())  # prefixes the inverse solves
    T = np.zeros_like(R)  # R^-1 on the usable block
    for k in range(usable):
        T[k, k] = 1.0 / R[k, k]
        T[:k, k] = -(T[:k, :k] @ R[:k, k]) / R[k, k]
    coefs = np.zeros((size, size))
    # Column k of the sum is the size-(k + 1) prefix, in selection order,
    # added up in the order of the steps; + 0.0 clears the sign of an
    # all-zero sum, which a running sum from +0.0 never has.
    coefs[:usable, :usable] = (np.cumsum(T[:usable, :usable] * qty[:usable], axis=1) + 0.0).T
    for k in range(usable, size):
        by_index = np.argsort(order[: k + 1])
        active = order[: k + 1][by_index]
        coefs[k, by_index] = min_norm_least_squares(problem.X[:, active], problem.y)
    return FsPath(order=order, coefs=coefs, p=problem.p, factored=usable)


def _greedy_factor(X: np.ndarray, Y: np.ndarray, max_size: int):
    """The greedy column order and the QR factor of the chosen columns,
    for each column y of the n x b response block ``Y`` on the design X.

    Returns, per column of Y, ``(order, Q, R, qty)`` with X[:, order] =
    Q R, Q orthonormal (n x k), R upper-triangular (k x k) and qty = Q'y,
    where k = len(order) is ``max_size`` unless that sweep ran out of
    candidates outside the selected span first.  The b sweeps take their
    steps together; a sweep that runs out leaves the block.

    Each step forms one product with X, the new basis rows w = q'X,
    which downdate both the squared norms and the scores:
    X'r_k = X'r_(k-1) - (q_k'y) w_k.  Where the downdated scores do not
    decide a sweep's step beyond their drift bound (``_pick``), its X'r
    is formed afresh, as ``residual @ X``, before that step is taken.
    """
    n, p = X.shape
    thresh = SPAN_RTOL2 * n
    eps = np.finfo(float).eps
    unit = eps * math.sqrt(n)  # |x_j'd| <= sqrt(n) ||d|| for a column of X
    live = list(range(Y.shape[1]))  # the response each row below belongs to
    b = len(live)
    norms2 = np.tile(np.einsum("ij,ij->j", X, X), (b, 1))
    # Unselected columns still outside the selected span.  A column that
    # falls inside it stays inside as the span grows.
    candidate = norms2 > thresh
    residual = Y.T.copy()
    order = np.empty((b, max_size), dtype=int)
    Q = np.empty((b, n, max_size))
    R = np.zeros((b, max_size, max_size))
    qty = np.empty((b, max_size))
    # Row i of gains is X'r for the residual r of row i, downdated step
    # by step; err[i] bounds its distance from the exact X'r of the
    # computed residual.  None are formed yet, so the first step forms
    # every row's product.
    gains = np.zeros((b, p))
    err = np.full(b, np.inf)
    factors = [None] * b

    def finish(rows, k):
        for i in rows:
            factors[live[i]] = (order[i, :k], Q[i, :, :k], R[i, :k, :k], qty[i, :k])

    rows = np.arange(b)
    for k in range(max_size):
        kept = candidate.any(axis=1)
        if not kept.all():
            finish(np.flatnonzero(~kept), k)
            if not kept.any():
                return factors
            live = [i for i, keep in zip(live, kept) if keep]
            rows = np.arange(len(live))
            residual, norms2, candidate, order, Q, R, qty, gains, err = (
                a[kept] for a in (residual, norms2, candidate, order, Q, R, qty, gains, err)
            )
        # A product formed afresh is itself within n eps sqrt(n) ||r|| of
        # the exact one (the factor 2 over the dot-product bound n u also
        # covers the rounding of the scores compared).
        fresh_err = n * unit * np.linalg.norm(residual, axis=1)
        j, decided = _pick(gains, err + fresh_err, norms2, candidate)
        if not decided.all():
            redo = np.flatnonzero(~decided)
            gains[redo] = residual[redo] @ X
            err[redo] = fresh_err[redo]
            j[redo] = _pick(gains[redo], err[redo], norms2[redo], candidate[redo])[0]

        basis = Q[:, :, :k]
        x_j = X.T[j]
        w_j = np.matmul(x_j[:, None, :], basis)[:, 0]
        z = x_j - np.matmul(basis, w_j[:, :, None])[:, :, 0]
        again = np.matmul(basis.transpose(0, 2, 1), z[:, :, None])
        z -= np.matmul(basis, again)[:, :, 0]
        r_kk = np.sqrt(np.matmul(z[:, None, :], z[:, :, None])[:, 0, 0])
        q = z / r_kk[:, None]
        w = q @ X
        Q[:, :, k] = q
        R[:, :k, k] = w_j + again[:, :, 0]
        R[:, k, k] = r_kk
        qty[:, k] = np.matmul(q[:, None, :], residual[:, :, None])[:, 0, 0]
        residual -= q * qty[:, k, None]
        order[:, k] = j

        # Downdating adds, per step, the rounding of the residual update
        # (u sqrt(n) (||r|| + |q'y|)), of w (n u sqrt(n) |q'y|) and of the
        # subtraction (u |X'r|), each counted twice.
        gains -= qty[:, k, None] * w
        err += unit * (np.linalg.norm(residual, axis=1) + n * np.abs(qty[:, k]))
        err += eps * np.abs(gains).max(axis=1)

        norms2 = np.maximum(norms2 - w * w, 0.0)
        candidate[rows, j] = False
        if k + 1 == max_size:
            break  # the last step's norms are never read
        stale = candidate & (norms2 < NORM_RECOMPUTE_RTOL2 * n)
        for i in np.flatnonzero(stale.any(axis=1)) if stale.any() else ():
            cols = np.flatnonzero(stale[i])
            basis = Q[i, :, : k + 1]
            for start in range(0, cols.size, STALE_BLOCK):
                block = cols[start : start + STALE_BLOCK]
                E = X[:, block]
                E -= basis @ (basis.T @ E)
                norms2[i, block] = np.einsum("ij,ij->j", E, E)
            candidate[i, cols] = norms2[i, cols] > thresh

    finish(range(len(live)), max_size)
    return factors


def _pick(gains, drift, norms2, candidate):
    """Each row's step from its scores gains^2 / norms2, and whether any
    gains within ``drift`` (one bound per row) of these take it too.

    The step adds the smallest index scoring at least (1 - TIE_RTOL)
    times the top score.  It is decided when, with the gains moved by up
    to their drift, the top column's lowest score still exceeds every
    other candidate's highest by that factor: then any such gains have
    the same top and nothing else within TIE_RTOL of it.  So a tie
    within TIE_RTOL is never decided.
    """
    scores = np.full_like(gains, -np.inf)
    np.divide(gains * gains, norms2, out=scores, where=candidate)
    top = scores.max(axis=1, keepdims=True)
    j = np.argmax(scores >= top * (1.0 - TIE_RTOL), axis=1)
    rows = np.arange(j.size)
    lowest = np.maximum(np.abs(gains[rows, j]) - drift, 0.0) ** 2 / norms2[rows, j]
    reach = np.abs(gains)
    reach += drift[:, None]
    highest = scores
    np.divide(reach * reach, norms2, out=highest, where=candidate)
    highest[rows, j] = -np.inf
    return j, highest.max(axis=1) < (1.0 - TIE_RTOL) * lowest
