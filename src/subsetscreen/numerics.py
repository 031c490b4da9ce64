"""Dense linear-algebra primitives shared by the subset-search modules.

Everything here is a pure function: standardization of a regression
problem into the centered, equal-column-norm convention (split into the
design-only part, ``prepare_design``, and the response part, ``bind``),
the largest eigenvalue of X'X by Lanczos from a fixed random start
(its tridiagonal's top eigenpair found in plain Python, with no LAPACK
call per step; the older power iteration is kept for comparison), and
minimum-norm least squares by one SVD-based solve, the package's only
least-squares solver outside the stepwise path's running inverse of its
own factor.  numpy is the only dependency.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PreparedDesign",
    "StandardizedProblem",
    "bind",
    "prepare_design",
    "standardize",
    "lanczos_lambda_max",
    "power_method_lambda_max",
    "min_norm_least_squares",
]

# Relative inflation of the Lanczos estimate: thresholded gradient steps
# stay monotone only when the stored constant dominates lambda_max, and
# Ritz values approach it from below.
SPECTRAL_INFLATION = 1e-8

# Lanczos stops once the residual bound of its largest Ritz value is at
# most this fraction of the value.
LANCZOS_RTOL = 1e-13

# Initial number of Lanczos basis vectors; the basis doubles as needed.
LANCZOS_BLOCK = 32

# Cap on Laguerre iterations for one top Ritz value (it takes 2-9).
LAGUERRE_MAX_ITER = 100

# Smallest positive normal float: with the largest squared off-diagonal
# entry it sets the magnitude that replaces an exactly zero pivot.
_SAFE_MIN = sys.float_info.min

# Singular values at or below this fraction of the largest one mark a
# dependent direction in min_norm_least_squares.
RANK_RTOL = 1e-10

# A Gram-Schmidt factor is trusted only while every column keeps more than
# this fraction of its norm after the earlier columns are projected out.
# Near RANK_RTOL the factor and the singular values min_norm_least_squares
# judges the rank by can disagree through rounding alone; five orders of
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


@dataclass(frozen=True, eq=False)
class PreparedDesign:
    """A standardized design matrix with everything that depends on X alone.

    Built once by :func:`prepare_design` and shared, read-only, by every
    response :func:`bind` attaches to it.

    Attributes
    ----------
    X : ndarray, shape (n, p)
        Zero-mean columns scaled so each column's sum of squares equals
        n; flagged degenerate columns are identically zero.
    col_means, col_scales : ndarray, shape (p,)
        Column means and scale divisors of the raw data (scale 1 for
        degenerate columns).
    degenerate : ndarray of bool, shape (p,)
        Marks constant (zero-variance) input columns.
    c : float
        Spectral constant, at least as large as lambda_max(X'X).
    """

    X: np.ndarray
    col_means: np.ndarray
    col_scales: np.ndarray
    degenerate: np.ndarray
    c: float

    @property
    def n(self) -> int:
        return self.X.shape[0]


def prepare_design(X_raw) -> PreparedDesign:
    """Center and rescale a design matrix and compute its spectral constant.

    Columns are centered and scaled so each column's sum of squares
    equals the number of rows.  Constant columns are kept (scale 1,
    zeroed out) and flagged so downstream solvers skip them.  The
    returned arrays are read-only, so one design can back any number of
    problems.  Beyond the caller's X, the work holds one n x p float
    array (centered, then scaled in place into the returned X), an
    n x p finiteness mask while checking, and O(n + p) more (the
    spectral constant's Lanczos basis has min(n, p) rows).

    Parameters
    ----------
    X_raw : array_like, shape (n, p)

    Returns
    -------
    PreparedDesign

    Raises
    ------
    ValueError
        When X is not 2-D, has fewer than two rows or no column, holds
        a non-finite entry, or has a column whose mean or centered sum of
        squares overflows (named by its 1-based index).
    """
    X_raw = np.asarray(X_raw, dtype=float)
    if X_raw.ndim != 2:
        raise ValueError("X must be a 2-D array")
    n, p = X_raw.shape
    if n < 2:
        raise ValueError("need at least two rows to standardize")
    if p < 1:
        raise ValueError("X must have at least one column")
    if not np.all(np.isfinite(X_raw)):
        raise ValueError("X contains non-finite entries")

    with np.errstate(over="ignore", invalid="ignore"):
        col_means = X_raw.mean(axis=0)
        Xc = X_raw - col_means
        col_sd = np.sqrt(np.einsum("ij,ij->j", Xc, Xc) / n)
    overflowed = np.flatnonzero(~np.isfinite(col_sd))
    if overflowed.size:
        raise ValueError(
            f"column {overflowed[0] + 1} of X overflows when standardized: "
            "its mean or sum of squares is not finite"
        )
    degenerate = col_sd <= 1e-12 * np.maximum(1.0, np.abs(col_means))
    col_scales = np.where(degenerate, 1.0, col_sd)
    X = Xc
    X /= col_scales  # in place: the same quotients as Xc / col_scales
    if degenerate.any():
        X[:, degenerate] = 0.0

    lam = lanczos_lambda_max(X)
    c = (1.0 + SPECTRAL_INFLATION) * lam if lam > 0.0 else 1.0
    for array in (X, col_means, col_scales, degenerate):
        array.setflags(write=False)
    return PreparedDesign(
        X=X, col_means=col_means, col_scales=col_scales, degenerate=degenerate, c=c
    )


def bind(design: PreparedDesign, y_raw) -> StandardizedProblem:
    """Attach a response to a prepared design.

    Centers ``y_raw`` and caches X'y; the design's arrays are shared, not
    copied.

    Parameters
    ----------
    design : PreparedDesign
    y_raw : array_like, shape (n,)

    Returns
    -------
    StandardizedProblem

    Raises
    ------
    ValueError
        When y does not have one entry per row of X, holds a non-finite
        entry, or has a centered mean or sum of squares that overflows.
    """
    y_raw = np.asarray(y_raw, dtype=float).reshape(-1)
    if y_raw.shape[0] != design.n:
        raise ValueError(
            f"shape mismatch: X has {design.n} rows, y has {y_raw.shape[0]} entries"
        )
    if not np.all(np.isfinite(y_raw)):
        raise ValueError("y contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        y_mean = float(y_raw.mean())
        y = y_raw - y_mean
        sum_sq = float(y @ y)
    if not math.isfinite(sum_sq):
        raise ValueError("y overflows when centered: its mean or sum of squares is not finite")
    return StandardizedProblem(
        X=design.X,
        y=y,
        xty=design.X.T @ y,
        c=design.c,
        col_means=design.col_means,
        col_scales=design.col_scales,
        y_mean=y_mean,
        degenerate=design.degenerate,
    )


def standardize(X_raw, y_raw) -> StandardizedProblem:
    """Center and rescale a regression problem: ``bind(prepare_design(X_raw), y_raw)``.

    Columns of ``X_raw`` are centered and scaled so each column's sum of
    squares equals the number of rows; ``y_raw`` is centered.  Constant
    columns are kept (scale 1, zeroed out) and flagged so downstream
    solvers skip them.  The returned problem carries X'y and a spectral
    constant slightly above lambda_max(X'X); its design arrays are
    read-only.  To solve several responses on one design, call
    :func:`prepare_design` once and :func:`bind` per response.

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
    return bind(prepare_design(X_raw), y_raw)


def lanczos_lambda_max(X) -> float:
    """Largest eigenvalue of X'X by Lanczos from a fixed random start.

    Works on the smaller of XX' and X'X, which share their nonzero
    eigenvalues, applied as two matrix-vector products with X; the Gram
    matrix is never formed.  The start is a seeded Gaussian vector, so
    the result is deterministic, and it is orthogonal to the top
    eigenvector with probability zero (the all-ones start of
    :func:`power_method_lambda_max` can be).  Each new basis vector is
    orthogonalized against the whole basis twice (classical
    Gram-Schmidt).  Iteration stops when the residual bound
    beta_k |s_k| of the largest Ritz value theta falls to
    ``LANCZOS_RTOL`` * theta, or after min(n, p) steps, when the Krylov
    space is the whole space.  Returns 0.0 for an all-zero X.

    theta and s_k, the last component of theta's unit eigenvector of the
    Lanczos tridiagonal T_k, come from :func:`_top_ritz`: O(k) passes
    over T_k in Python floats, with no LAPACK call, so no BLAS thread
    pool is woken at every step.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a non-empty 2-D array")
    n, p = X.shape
    m = min(n, p)
    if n <= p:
        def apply(v):
            return X @ (X.T @ v)
    else:
        def apply(v):
            return X.T @ (X @ v)

    basis = np.empty((m, min(m, LANCZOS_BLOCK)))
    alpha: list[float] = []
    beta: list[float] = []
    theta = resid = 0.0
    q = _random_start(m)
    for k in range(m):
        if k == basis.shape[1]:
            grown = np.empty((m, min(m, 2 * k)))
            grown[:, :k] = basis
            basis = grown
        basis[:, k] = q
        Q = basis[:, : k + 1]
        w = apply(q)
        h = Q.T @ w
        w -= Q @ h
        h2 = Q.T @ w
        w -= Q @ h2
        alpha.append(float(h[k] + h2[k]))
        b = float(np.linalg.norm(w))
        # Weyl: T_k is diag(T_{k-1}, alpha_k) plus a coupling of norm beta_{k-1}.
        # The last Ritz value plus its residual bound is usually tighter.
        upper = max(theta, alpha[k]) + beta[-1] if beta else alpha[0]
        theta, s = _top_ritz(alpha, beta, upper, guess=theta + resid)
        resid = b * s
        if resid <= LANCZOS_RTOL * abs(theta) or k == m - 1:
            break
        beta.append(b)
        q = w / b
    return theta


def _top_ritz(alpha, beta, upper, guess=None):
    """Largest eigenvalue theta of a symmetric tridiagonal T, and |s_k|.

    ``alpha`` is the diagonal of T (k floats), ``beta`` its k - 1 nonzero
    off-diagonal entries, ``upper`` a bound at or above theta, and
    ``s_k`` the last component of theta's unit eigenvector.  ``guess``,
    when every pivot at it is positive (so it lies above theta too), is
    a closer start than ``upper``.

    theta: Laguerre's method on f(x) = det(xI - T), whose roots are all
    real, so from above it decreases monotonically onto the largest
    one; it stops once a step no longer decreases x.  Each iteration is
    one O(k) pass of :func:`_pivot_sums`.  A pivot that is exactly zero
    makes x an eigenvalue of a leading block of T to rounding; those lie
    at or below theta, itself at or below x, so x is returned.

    s_k: see :func:`_last_component`.
    """
    k = len(alpha)
    if k == 1:
        return alpha[0], 1.0
    rows = list(zip(alpha[1:], [b * b for b in beta]))
    x, sums = upper, None
    if guess is not None and guess < upper:
        probe = _pivot_sums(alpha[0], rows, guess)
        if probe is not None and probe[2]:
            x, sums = guess, probe
    for _ in range(LAGUERRE_MAX_ITER):
        sums = sums or _pivot_sums(alpha[0], rows, x)
        if sums is None:
            break
        G, H, _ = sums
        sums = None
        if G <= 0.0:
            break
        step = k / (G + math.sqrt(max((k - 1) * (k * H - G * G), 0.0)))
        if not x - step < x:
            break
        x -= step
    return x, _last_component(alpha, beta, x)


def _pivot_sums(alpha0, rows, x):
    """f'/f and -(f'/f)' at x for f(x) = det(xI - T), and whether x > theta.

    One pass of the LDL' pivots d_1 = x - alpha_1 and
    d_i = x - alpha_i - beta_{i-1}^2 / d_{i-1}.  f is their product, so
    both sums collect the pivots' g_i = d_i'/d_i and h_i = d_i''/d_i,
    which follow d_i by the same recurrence.  Every pivot is positive
    exactly when x lies above every eigenvalue (Sturm).  Returns None at
    a pivot that is exactly zero.
    """
    d = x - alpha0
    if d == 0.0:
        return None
    g = 1.0 / d
    h = 0.0
    G, H = g, g * g
    above = d > 0.0
    for a, b2 in rows:
        r = b2 / d
        d = x - a - r
        if d <= 0.0:
            if d == 0.0:
                return None
            above = False
        g, h = (1.0 + r * g) / d, r * (h - 2.0 * g * g) / d
        G += g
        H += g * g - h
    return G, H, above


def _last_component(alpha, beta, theta):
    """|s_k| of the unit eigenvector of T for ``theta``, from a twisted factorization.

    The eigenvector solves (theta I - T) z = 0.  Its components follow a
    three-term recurrence, which is stable only in the direction in which
    they grow: run against it, rounding excites the growing solution and
    swamps the true one.  So the recurrence runs outwards from the twist
    index r where the eigenvector peaks (Parlett and Dhillon's twisted
    factorization, as in LAPACK's xLAR1V): z_r = 1, upwards by the
    pivots of the LDL' factorization of theta I - T from the top, and
    downwards by those of its UDU' factorization from the bottom.  r
    minimises |gamma_r|, the diagonal where the two factorizations meet.
    The closed form s_k^2 = 1 / d_k'(theta), from the last pivot of
    :func:`_pivot_sums`, loses every digit once the Ritz value has
    converged; this one keeps its relative accuracy for s_k far below
    1e-10.
    """
    k = len(alpha)
    squares = [b * b for b in beta]
    # A pivot that is exactly zero is replaced by a tiny one, as xLAR1V does.
    pivmin = _SAFE_MIN * max([1.0, *squares])
    top = []
    d = 1.0
    for a, b2 in zip(alpha, [0.0, *squares]):
        d = theta - a - b2 / d
        if d == 0.0:
            d = pivmin
        top.append(d)
    bottom = [0.0] * k
    q = 1.0
    for i, b2 in zip(range(k - 1, -1, -1), [0.0, *reversed(squares)]):
        q = theta - alpha[i] - b2 / q
        if q == 0.0:
            q = pivmin
        bottom[i] = q
    r = min(range(k), key=lambda i: abs(top[i] + bottom[i] - (theta - alpha[i])))
    z = total = 1.0
    for i in range(r - 1, -1, -1):
        z *= beta[i] / top[i]
        total += z * z
    z = 1.0
    for i in range(r + 1, k):
        z *= beta[i - 1] / bottom[i]
        total += z * z
    return abs(z) / math.sqrt(total)


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
            v = _random_start(p)
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


def _random_start(p: int) -> np.ndarray:
    v = np.random.default_rng(987654321).standard_normal(p)
    return v / np.linalg.norm(v)


def min_norm_least_squares(A, y) -> np.ndarray:
    """Minimum-Euclidean-norm minimizer of ||y - A b||.

    The Moore-Penrose pseudoinverse solution at numerical rank: one
    SVD-based LAPACK solve (xGELSD, through ``np.linalg.lstsq``) that
    treats singular values at or below ``RANK_RTOL`` times the largest
    one as zero, so dependent columns share their coefficient instead of
    one of them being dropped.

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
    return np.linalg.lstsq(A, y, rcond=RANK_RTOL)[0]
