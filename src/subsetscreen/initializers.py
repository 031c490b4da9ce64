"""Classical screeners used as entry points for the thresholded search.

Marginal-correlation ranking (single-shot and iterated against the
running residual) and exact greedy forward stepwise selection.  Each
returns least-squares refits so the iterative drivers can start from
them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import SparseCoef, refit_subset, rss
from .numerics import FACTOR_SOLVE_RTOL, StandardizedProblem, min_norm_least_squares

__all__ = ["FsStep", "FsPath", "sis", "isis", "forward_stepwise"]

# A residualized column whose remaining squared norm falls below this
# fraction of its original one is numerically inside the selected span.
SPAN_RTOL2 = 1e-20

# Downdated squared norms below this fraction of the original are
# recomputed exactly: the running subtraction accumulates rounding noise
# of roughly eps * n per step, far above SPAN_RTOL2.
NORM_RECOMPUTE_RTOL2 = 1e-8

# Back-substitution on the stepwise path's own triangular factor is used
# only while every diagonal entry of that factor exceeds FACTOR_SOLVE_RTOL
# times the largest one.  Selection admits a column down to a relative
# residual norm of sqrt(SPAN_RTOL2) = RANK_RTOL, so every prefix from the
# first near-dependent column on goes to the minimum-norm solver.


@dataclass(frozen=True, eq=False)
class FsStep:
    """One stepwise addition: the index added, the active set after it
    (ascending), the least-squares coefficients on that set (``coef[i]``
    belongs to column ``active[i]``), and its residual sum of squares."""

    added: int
    active: tuple[int, ...]
    coef: np.ndarray
    rss: float


@dataclass(frozen=True, eq=False)
class FsPath:
    """Nested forward-stepwise submodels of sizes 1..len(steps).

    ``truncated`` is set when the rank budget ran out before reaching
    ``max_size``; ``p`` is the number of columns of the problem.
    """

    steps: tuple[FsStep, ...]
    max_size: int
    truncated: bool
    p: int

    def coef_at(self, size: int) -> SparseCoef:
        """Least-squares estimator of the size-``size`` prefix."""
        step = self.steps[size - 1]
        return _prefix_coef(self.p, step.active, step.coef, size)


def _prefix_coef(p: int, active, values, size: int) -> SparseCoef:
    beta = np.zeros(p)
    beta[list(active)] = values
    return SparseCoef.from_dense(beta, size)


def _eligible_scores(problem: StandardizedProblem, scores: np.ndarray) -> np.ndarray:
    scores = scores.astype(float, copy=True)
    scores[problem.degenerate] = -np.inf
    return scores


def sis(problem: StandardizedProblem, M: int) -> SparseCoef:
    """Marginal-correlation screening: top-M |X'y| with a refit.

    The active set holds the M indices of largest |X'y| (ties toward the
    smaller index, flagged degenerate columns excluded); coefficients are
    the minimum-norm least-squares refit on that set.
    """
    if not 1 <= M <= problem.p:
        raise ValueError("M must be in [1, p]")
    scores = _eligible_scores(problem, np.abs(problem.xty))
    order = np.argsort(-scores, kind="stable")
    take = min(M, int(np.sum(np.isfinite(scores))))
    active = np.sort(order[:take])
    return refit_subset(problem, active, M)


def isis(problem: StandardizedProblem, M: int, batch: int | None = None) -> SparseCoef:
    """Iterated marginal screening against the running residual.

    Repeatedly ranks the not-yet-selected columns by |X'r| for the
    current residual r, admits the top ``batch`` (fewer on the last
    round), and refits least squares on the union, until exactly M
    columns are active.  ``batch=None`` uses max(1, ceil(M/5));
    ``batch=M`` reduces to single-shot screening.
    """
    if not 1 <= M <= problem.p:
        raise ValueError("M must be in [1, p]")
    if batch is None:
        batch = max(1, math.ceil(M / 5))
    if not 1 <= batch <= M:
        raise ValueError("batch must be in [1, M]")

    active = np.zeros(0, dtype=int)
    residual = problem.y
    coef = SparseCoef.zeros(problem.p, M)
    while active.size < M:
        scores = _eligible_scores(problem, np.abs(problem.X.T @ residual))
        if active.size:
            scores[active] = -np.inf
        eligible = int(np.sum(np.isfinite(scores)))
        take = min(batch, M - active.size, eligible)
        if take == 0:
            break
        order = np.argsort(-scores, kind="stable")
        active = np.sort(np.concatenate([active, order[:take]]))
        coef = refit_subset(problem, active, M)
        residual = problem.y - problem.X[:, active] @ coef.beta[active]
    return coef


def forward_stepwise(problem: StandardizedProblem, max_size: int) -> FsPath:
    """Exact greedy stepwise selection, recorded as a nested path.

    Each step adds the column giving the largest drop in the residual sum
    of squares given the current set, computed exactly by residualizing
    the remaining candidates against the selected span (ties toward the
    smaller index).  If the candidates run out of numerical rank before
    ``max_size`` the path truncates and is flagged.

    Every prefix is recorded with its least-squares refit.  The modified
    Gram-Schmidt sweep that residualizes the candidates is a QR
    factorization of the selected columns in selection order, so the
    path keeps its upper-triangular factor R and Q'y and solves each
    prefix by one back-substitution on their leading block: O(k^2) for
    the size-k prefix on top of the O(n p) sweep of the step itself,
    instead of a fresh O(n k^2) pivoted QR.  From the first step whose
    diagonal entry of R falls to ``FACTOR_SOLVE_RTOL`` times the largest
    one or below, that prefix and every later one are refit by
    ``min_norm_least_squares`` instead, so near-dependent prefixes keep
    minimum-norm semantics.
    """
    n, p = problem.n, problem.p
    if not 1 <= max_size <= min(n - 1, p):
        raise ValueError("max_size must be in [1, min(n - 1, p)]")

    Z = problem.X.copy()
    norms2 = np.einsum("ij,ij->j", Z, Z)
    residual = problem.y.copy()
    selected = np.zeros(p, dtype=bool)
    order: list[int] = []
    # Row i holds q_i' Z from step i, so R[i, k] = W[i, order[k]].
    W = np.empty((max_size, p))
    R = np.zeros((max_size, max_size))
    qty = np.empty(max_size)
    factor_usable = True
    steps: list[FsStep] = []
    truncated = False
    thresh = SPAN_RTOL2 * n

    for k in range(max_size):
        eligible = (~selected) & (norms2 > thresh)
        if not eligible.any():
            truncated = True
            break
        gains = Z.T @ residual
        denom = np.where(eligible, norms2, 1.0)
        scores = np.where(eligible, gains * gains / denom, -np.inf)
        j = int(np.argmax(scores))

        r_kk = np.linalg.norm(Z[:, j])
        q = Z[:, j] / r_kk
        w = q @ Z
        W[k] = w
        R[:k, k] = W[:k, j]
        R[k, k] = r_kk
        qty[k] = q @ residual
        Z -= np.outer(q, w)
        norms2 = np.maximum(norms2 - w * w, 0.0)
        Z[:, j] = 0.0
        norms2[j] = 0.0
        residual -= q * qty[k]
        selected[j] = True
        stale = (~selected) & (norms2 < NORM_RECOMPUTE_RTOL2 * n)
        if stale.any():
            norms2[stale] = np.einsum("ij,ij->j", Z[:, stale], Z[:, stale])

        order.append(j)
        by_index = np.argsort(order)
        active = np.asarray(order)[by_index]
        # Every column has norm sqrt(n) and residualizing only shrinks it,
        # so the first diagonal entry is the largest.
        factor_usable = factor_usable and r_kk > FACTOR_SOLVE_RTOL * R[0, 0]
        if factor_usable:
            values = solve_triangular(R[: k + 1, : k + 1], qty[: k + 1])[by_index]
        else:
            values = min_norm_least_squares(problem.X[:, active], problem.y)
        steps.append(
            FsStep(
                added=j,
                active=tuple(int(i) for i in active),
                coef=values,
                rss=rss(problem, _prefix_coef(p, active, values, k + 1)),
            )
        )

    return FsPath(steps=tuple(steps), max_size=max_size, truncated=truncated, p=p)
