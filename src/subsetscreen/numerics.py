"""Dense linear-algebra primitives shared by the subset-search modules.

Everything here is a pure function: standardization of a regression
problem into the centered, equal-column-norm convention, a deterministic
power iteration for the largest eigenvalue of X'X, and minimum-norm
least squares built on rank-revealing QR.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular

__all__ = [
    "StandardizedProblem",
    "standardize",
    "power_method_lambda_max",
    "min_norm_least_squares",
]

# Relative inflation of the power-iteration estimate: thresholded gradient
# steps stay monotone only when the stored constant dominates lambda_max,
# and power iteration approaches it from below.
SPECTRAL_INFLATION = 1e-8

# R diagonals below this fraction of the largest one mark dependent columns.
RANK_RTOL = 1e-10

# A Gram-Schmidt factor is trusted only while every column keeps more than
# this fraction of its norm after the earlier columns are projected out.
# Near RANK_RTOL the factor and the pivoted QR of min_norm_least_squares
# can disagree about the rank through rounding alone; five orders of
# magnitude above it a column clearly adds a direction.  Callers defer
# anything at or below it to min_norm_least_squares.
FACTOR_SOLVE_RTOL = math.sqrt(RANK_RTOL)


@dataclass(frozen=True, eq=False)
class StandardizedProblem:
    """Centered, rescaled regression data with cached solver inputs.

    Attributes
    ----------
    X : ndarray, shape (n, p)
        Design matrix with zero-mean columns scaled so each column's sum
        of squares equals n.  Flagged degenerate columns are identically
        zero.
    y : ndarray, shape (n,)
        Centered response.
    xty : ndarray, shape (p,)
        Cached X'y.
    c : float
        Spectral constant, at least as large as lambda_max(X'X).
    col_means, col_scales : ndarray, shape (p,)
        Column means and scale divisors of the raw data (scale 1 for
        degenerate columns); together with ``y_mean`` they undo the
        standardization.
    y_mean : float
        Mean of the raw response.
    degenerate : ndarray of bool, shape (p,)
        Marks constant (zero-variance) input columns.  Solvers never
        select these.
    """

    X: np.ndarray
    y: np.ndarray
    xty: np.ndarray
    c: float
    col_means: np.ndarray
    col_scales: np.ndarray
    y_mean: float
    degenerate: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def standardize(X_raw, y_raw) -> StandardizedProblem:
    """Center and rescale a regression problem.

    Columns of ``X_raw`` are centered and scaled so each column's sum of
    squares equals the number of rows; ``y_raw`` is centered.  Constant
    columns are kept (scale 1, zeroed out) and flagged so downstream
    solvers skip them.  The returned problem carries X'y and a spectral
    constant slightly above lambda_max(X'X).

    Parameters
    ----------
    X_raw : array_like, shape (n, p)
    y_raw : array_like, shape (n,)

    Returns
    -------
    StandardizedProblem

    Raises
    ------
    ValueError
        On dimension mismatch, fewer than two rows, or non-finite input.
    """
    X_raw = np.asarray(X_raw, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float).reshape(-1)
    if X_raw.ndim != 2:
        raise ValueError("X must be a 2-D array")
    n, p = X_raw.shape
    if n < 2:
        raise ValueError("need at least two rows to standardize")
    if p < 1:
        raise ValueError("X must have at least one column")
    if y_raw.shape[0] != n:
        raise ValueError(
            f"shape mismatch: X has {n} rows, y has {y_raw.shape[0]} entries"
        )
    if not np.all(np.isfinite(X_raw)):
        raise ValueError("X contains non-finite entries")
    if not np.all(np.isfinite(y_raw)):
        raise ValueError("y contains non-finite entries")

    col_means = X_raw.mean(axis=0)
    Xc = X_raw - col_means
    col_sd = np.sqrt(np.einsum("ij,ij->j", Xc, Xc) / n)
    degenerate = col_sd <= 1e-12 * np.maximum(1.0, np.abs(col_means))
    col_scales = np.where(degenerate, 1.0, col_sd)
    X = Xc / col_scales
    if degenerate.any():
        X[:, degenerate] = 0.0

    y_mean = float(y_raw.mean())
    y = y_raw - y_mean

    lam = power_method_lambda_max(X)
    c = (1.0 + SPECTRAL_INFLATION) * lam if lam > 0.0 else 1.0
    return StandardizedProblem(
        X=X,
        y=y,
        xty=X.T @ y,
        c=c,
        col_means=col_means,
        col_scales=col_scales,
        y_mean=y_mean,
        degenerate=degenerate,
    )


def power_method_lambda_max(X, rel_tol: float = 1e-12, max_iter: int = 100_000) -> float:
    """Largest eigenvalue of X'X by power iteration.

    Deterministic: starts from the normalized all-ones vector and stops
    once successive Rayleigh quotients agree to ``rel_tol`` relative.  If
    the start vector is annihilated by X'X the iteration restarts once
    from a fixed fallback direction.  Hitting ``max_iter`` issues a
    RuntimeWarning and returns the current estimate.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a non-empty 2-D array")
    p = X.shape[1]
    v = np.full(p, 1.0 / np.sqrt(p))
    restarted = False
    lam_prev = None
    lam = 0.0
    for _ in range(max_iter):
        w = X.T @ (X @ v)
        lam = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            if restarted:
                return 0.0  # X'X annihilates both starts: zero spectrum
            v = _fallback_start(p)
            restarted = True
            lam_prev = None
            continue
        if lam_prev is not None and abs(lam - lam_prev) <= rel_tol * lam:
            return lam
        lam_prev = lam
        v = w / norm_w
    warnings.warn(
        f"power iteration did not converge within {max_iter} iterations; "
        "returning the current Rayleigh quotient",
        RuntimeWarning,
        stacklevel=2,
    )
    return lam


def _fallback_start(p: int) -> np.ndarray:
    v = np.random.default_rng(987654321).standard_normal(p)
    return v / np.linalg.norm(v)


def min_norm_least_squares(A, y) -> np.ndarray:
    """Minimum-Euclidean-norm minimizer of ||y - A b||.

    Uses column-pivoted QR to detect the numerical rank; when columns are
    dependent the basic solution is completed to the minimum-norm one via
    a second orthogonal factorization, reproducing the Moore-Penrose
    pseudoinverse solution.

    Parameters
    ----------
    A : array_like, shape (n, p)
    y : array_like, shape (n,)

    Returns
    -------
    ndarray, shape (p,)
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D array")
    n, p = A.shape
    if y.shape[0] != n:
        raise ValueError(
            f"shape mismatch: A has {n} rows, y has {y.shape[0]} entries"
        )
    if p == 0:
        return np.zeros(0)

    Q, R, piv = qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    dmax = float(diag.max(initial=0.0))
    rank = int(np.sum(diag > RANK_RTOL * dmax)) if dmax > 0.0 else 0
    beta = np.zeros(p)
    if rank == 0:
        return beta

    rhs = Q[:, :rank].T @ y
    if rank == p:
        z = solve_triangular(R, rhs)
    else:
        # Complete the factorization: QR of the trapezoidal block's
        # transpose gives the minimum-norm completion over the dependent
        # columns instead of a basic (zero-padded) solution.
        Q2, R2 = qr(R[:rank, :].T, mode="economic")
        w = solve_triangular(R2.T, rhs, lower=True)
        z = Q2 @ w
    beta[piv] = z
    return beta
