"""Orthogonal designs are the easy case: one thresholded step is optimal.

When the (standardized) design has exactly orthogonal columns, keeping
the M largest entries of X'y/c already solves the size-M best-subset
problem.  This script builds such a design, takes a single step of the
thresholded iteration from zero, and checks it against full enumeration.
"""

import numpy as np

from subsetscreen import (
    SparseCoef,
    exhaustive_best_subset,
    oss_step,
    rss,
    standardize,
)

rng = np.random.default_rng(1)

n, p, M = 32, 8, 3
raw = rng.standard_normal((n, p))
raw -= raw.mean(axis=0)
Q, _ = np.linalg.qr(raw)
X = Q * np.sqrt(n)  # columns: zero mean, squared norm n, mutually orthogonal
y = rng.standard_normal(n)

prob = standardize(X, y)
print(f"design: {n} x {p}, column Gram matrix is n*I "
      f"(max off-diagonal {np.abs(prob.X.T @ prob.X - n * np.eye(p)).max():.1e})")

one_step = oss_step(prob, SparseCoef.zeros(p), M)
print(f"one thresholded step from zero selects {one_step.active.tolist()}")
print(f"  objective: {rss(prob, one_step):.6f}")

oracle = exhaustive_best_subset(prob, M)
print(f"exhaustive search over C({p},{M}) subsets selects {oracle.coef.active.tolist()}")
print(f"  objective: {oracle.final_rss:.6f}")

gap = rss(prob, one_step) - oracle.final_rss
print(f"objective gap: {gap:.2e} (the single step is already optimal)")

ranking = np.sort(np.argsort(-np.abs(prob.X.T @ prob.y), kind="stable")[:M])
print(f"equivalently: the top-{M} marginal correlations are {ranking.tolist()}")
