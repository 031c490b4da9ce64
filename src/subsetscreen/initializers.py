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

from .core import SparseCoef, refit_subset
from .numerics import FACTOR_SOLVE_RTOL, StandardizedProblem, min_norm_least_squares

__all__ = ["FsStep", "FsPath", "sis", "isis", "forward_stepwise"]

# A residualized column whose remaining squared norm falls below this
# fraction of its original one is numerically inside the selected span.
SPAN_RTOL2 = 1e-20

# Downdated squared norms below this fraction of the original are
# recomputed exactly: the running subtraction accumulates rounding noise
# of roughly eps * n per step, far above SPAN_RTOL2.
NORM_RECOMPUTE_RTOL2 = 1e-8

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
    """Nested forward-stepwise submodels of sizes 1..len(steps).

    ``truncated`` is set when the rank budget ran out before reaching
    ``max_size``; ``p`` is the number of columns of the problem.
    ``gains[size - 1]`` is X'r for the sweep's residual r after ``size``
    steps, kept for the prefixes whose coefficients come from the sweep's
    own factor (not for the near-dependent ones after them).
    """

    steps: tuple[FsStep, ...]
    max_size: int
    truncated: bool
    p: int
    gains: np.ndarray

    def coef_at(self, size: int) -> SparseCoef:
        """Least-squares estimator of the size-``size`` prefix."""
        step = self.steps[size - 1]
        return _prefix_coef(self.p, step.active, step.coef, size)

    def gains_at(self, size: int) -> np.ndarray | None:
        """X'(y - X beta) of the size-``size`` prefix from the sweep, or
        None where the prefix is near-dependent."""
        return self.gains[size - 1] if size <= self.gains.shape[0] else None


def _prefix_coef(p: int, active, values, size: int) -> SparseCoef:
    beta = np.zeros(p)
    beta[list(active)] = values
    return SparseCoef.from_dense(beta, size)


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
    coef = SparseCoef.zeros(problem.p, M)
    gains = problem.xty  # X'r for the first residual, r = y
    while active.size < M:
        if active.size:
            gains = problem.X.T @ (problem.y - problem.X[:, active] @ coef.beta[active])
        scores = np.abs(gains)
        scores[problem.degenerate] = -np.inf
        scores[active] = -np.inf
        eligible = int(np.sum(np.isfinite(scores)))
        take = min(batch, M - active.size, eligible)
        if take == 0:
            break
        order = np.argsort(-scores, kind="stable")
        active = np.sort(np.concatenate([active, order[:take]]))
        coef = refit_subset(problem, active, M)
    return coef


def forward_stepwise(problem: StandardizedProblem, max_size: int) -> FsPath:
    """Exact greedy stepwise selection, recorded as a nested path.

    Each step adds the column giving the largest drop in the residual sum
    of squares given the current set (ties toward the smaller index).
    That drop is (x_j'r)^2 / ||z_j||^2, where r is the current residual
    and z_j the part of x_j orthogonal to the selected span; r is itself
    orthogonal to that span, so x_j'r needs no residualized copy of the
    design, and ||z_j||^2 is downdated step by step (recomputed when it
    shrinks by eight orders of magnitude).  If the candidates run out of
    numerical rank before ``max_size`` the path truncates and is flagged.

    Every prefix is recorded with its least-squares refit.  The sweep
    builds a QR factorization of the selected columns in selection
    order: each new basis vector is the chosen column minus its
    projection on the basis so far, projected once more to keep the
    basis orthogonal (classical Gram-Schmidt twice).  The path keeps
    T = R^-1 one column per step (its leading block inverts R's), so each
    prefix's coefficients are the last prefix's plus T's new column times
    the new entry of Q'y: O(k^2) for the size-k prefix on top of the
    O(n p) of the step, instead of a fresh O(n k^2) least-squares solve.
    From the first step whose diagonal entry of R falls to
    ``FACTOR_SOLVE_RTOL`` times the largest one or below, that prefix and
    every later one are refit by ``min_norm_least_squares`` instead, so
    near-dependent prefixes keep minimum-norm semantics.

    The path also keeps the sweep's scores X'r after each step up to the
    first near-dependent one (``FsPath.gains``): in exact arithmetic the
    sweep's residual is that of the prefix's least-squares fit, so they
    are the gradients the refitting restarts of ``multi_start_foss_fs``
    start from.
    """
    n, p = problem.n, problem.p
    if not 1 <= max_size <= min(n - 1, p):
        raise ValueError("max_size must be in [1, min(n - 1, p)]")

    order, _, R, qty, truncated, gains = _greedy_factor(problem, max_size)
    T, x = np.zeros_like(R), np.zeros_like(qty)  # R^-1; R x = Q'y in selection order
    steps: list[FsStep] = []
    usable = 0  # prefixes solved by the running inverse
    for k in range(len(order)):
        by_index = np.argsort(order[: k + 1])
        active = np.asarray(order[: k + 1])[by_index]
        # Every column has norm sqrt(n) and residualizing only shrinks it,
        # so the first diagonal entry is the largest.
        if usable == k and R[k, k] > FACTOR_SOLVE_RTOL * R[0, 0]:
            usable += 1
            T[k, k] = 1.0 / R[k, k]
            T[:k, k] = -(T[:k, :k] @ R[:k, k]) / R[k, k]
            x[: k + 1] += T[: k + 1, k] * qty[k]
            values = x[: k + 1][by_index]
        else:
            values = min_norm_least_squares(problem.X[:, active], problem.y)
        steps.append(
            FsStep(added=order[k], active=tuple(active.tolist()), coef=values)
        )

    return FsPath(
        steps=tuple(steps), max_size=max_size, truncated=truncated, p=p, gains=gains[:usable]
    )


def _greedy_factor(problem: StandardizedProblem, max_size: int):
    """The greedy column order and the QR factor of the chosen columns.

    Returns ``(order, Q, R, qty, truncated, gains)`` with X[:, order] =
    Q R, Q orthonormal (n x k), R upper-triangular (k x k), qty = Q'y and
    ``gains[i]`` = X'r for the residual r after step i + 1, where k =
    len(order) is ``max_size`` unless the path truncated.
    """
    X = problem.X
    n, p = X.shape
    norms2 = np.einsum("ij,ij->j", X, X)
    thresh = SPAN_RTOL2 * n
    # Unselected columns still outside the selected span.  A column that
    # falls inside it stays inside as the span grows.
    candidate = norms2 > thresh
    residual = problem.y.copy()
    order: list[int] = []
    Q = np.empty((n, max_size))
    # Row i holds q_i' X, the first-pass projection coefficients.
    W = np.empty((max_size, p))
    R = np.zeros((max_size, max_size))
    qty = np.empty(max_size)
    # Row i holds X'r after step i + 1: the scores of step i + 2, and for
    # the last step one product more.
    after = np.empty((max_size, p))

    for k in range(max_size):
        gains = X.T @ residual
        if k:
            after[k - 1] = gains
        if not candidate.any():
            return order, Q[:, :k], R[:k, :k], qty[:k], True, after[:k]
        denom = np.where(candidate, norms2, 1.0)
        scores = np.where(candidate, gains * gains / denom, -np.inf)
        j = int(np.argmax(scores >= scores.max() * (1.0 - TIE_RTOL)))

        basis = Q[:, :k]
        z = X[:, j] - basis @ W[:k, j]
        again = basis.T @ z
        z -= basis @ again
        r_kk = np.linalg.norm(z)
        q = z / r_kk
        w = q @ X
        Q[:, k] = q
        W[k] = w
        R[:k, k] = W[:k, j] + again
        R[k, k] = r_kk
        qty[k] = q @ residual
        residual -= q * qty[k]
        order.append(j)

        norms2 = np.maximum(norms2 - w * w, 0.0)
        candidate[j] = False
        stale = candidate & (norms2 < NORM_RECOMPUTE_RTOL2 * n)
        if stale.any():
            E = X[:, stale] - Q[:, : k + 1] @ W[: k + 1, stale]
            norms2[stale] = np.einsum("ij,ij->j", E, E)
            candidate[stale] = norms2[stale] > thresh

    after[-1] = X.T @ residual
    return order, Q, R, qty, False, after
