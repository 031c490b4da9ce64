"""Seeded generation of simulation inputs.

Equicorrelated Gaussian designs, two-level Kronecker-product designs
built from Hadamard matrices, and responses from the sparse linear
model.  All randomness flows through replayable child streams derived
from (master seed, repetition index, purpose tag), so repetitions can
run in any order or thread without changing output.
"""

from __future__ import annotations

import csv
import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GenerativeModel",
    "TrueModel",
    "child_stream",
    "gen_equicorrelated_design",
    "gen_response",
    "sylvester_hadamard",
    "kronecker_design",
    "load_base_design",
    "TwoLevelWarning",
]


class TwoLevelWarning(UserWarning):
    """A base design has entries other than +-1."""


def child_stream(master_seed: int, rep_index: int, tag: str) -> np.random.Generator:
    """Derive an independent, replayable stream for (repetition, purpose).

    Distinct (rep_index, tag) pairs never share output; the derivation is
    a pure function of its arguments, so replays are exact regardless of
    execution order or thread count.
    """
    key = (int(rep_index), zlib.crc32(tag.encode("utf-8")))
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class GenerativeModel:
    """One simulation cell: sizes, correlation, noise level, signal value.

    The true support is always the first ``d`` columns, each with
    coefficient ``beta_value``.
    """

    n: int
    p: int
    d: int
    rho: float
    sigma: float
    beta_value: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if not 0 <= self.d <= self.p:
            raise ValueError("d must be in [0, p]")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def true_model(self) -> "TrueModel":
        beta = np.zeros(self.p)
        beta[: self.d] = self.beta_value
        return TrueModel(
            support=np.arange(self.d), beta=beta, sigma=float(self.sigma)
        )


@dataclass(frozen=True, eq=False)
class TrueModel:
    """Ground truth for one generated dataset: support, coefficients, noise."""

    support: np.ndarray
    beta: np.ndarray
    sigma: float


def gen_equicorrelated_design(
    n: int, p: int, rho: float, stream: np.random.Generator
) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with unit variances and constant correlation.

    Uses the one-factor construction x_ij = sqrt(rho) g_i +
    sqrt(1 - rho) e_ij, which matches the compound-symmetry covariance
    exactly at O(np) cost.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    shared = stream.standard_normal(n)
    noise = stream.standard_normal((n, p))
    return np.sqrt(rho) * shared[:, None] + np.sqrt(1.0 - rho) * noise


def gen_response(X, true_model: TrueModel, stream: np.random.Generator) -> np.ndarray:
    """Response y = X beta + sigma * z with z i.i.d. standard normal.

    Raises ValueError, naming the coefficient value, when X beta
    overflows the float range.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] != true_model.beta.shape[0]:
        raise ValueError("design and coefficient dimensions disagree")
    z = stream.standard_normal(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        signal = X @ true_model.beta
    if not np.all(np.isfinite(signal)):
        beta_value = float(np.max(np.abs(true_model.beta)))
        raise ValueError(
            f"X @ beta overflowed; beta_value={beta_value:g} makes the response non-finite"
        )
    return signal + true_model.sigma * z


def sylvester_hadamard(m: int) -> np.ndarray:
    """Hadamard matrix of power-of-two order m by Sylvester doubling."""
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"order {m} is not a power of 2")
    H = np.ones((1, 1))
    while H.shape[0] < m:
        H = np.block([[H, H], [H, -H]])
    return H


def kronecker_design(H, D) -> np.ndarray:
    """Kronecker product H (x) D of a Hadamard matrix and a two-level design.

    H must be square with +-1 entries and orthogonal rows (H H' = m I).
    Non +-1 entries in D are tolerated with a warning, since the product
    is well defined either way.
    """
    H = np.asarray(H, dtype=float)
    D = np.asarray(D, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    m = H.shape[0]
    if not np.all(np.abs(H) == 1.0) or not np.allclose(H @ H.T, m * np.eye(m)):
        raise ValueError("H is not a Hadamard matrix")
    if D.ndim != 2:
        raise ValueError("D must be 2-D")
    if not np.all(np.abs(D) == 1.0):
        warnings.warn("base design has entries other than +-1", TwoLevelWarning, stacklevel=2)
    return np.kron(H, D)


def load_base_design(path) -> np.ndarray:
    """Read a two-level base design from a headerless CSV of +-1 entries.

    Raises ValueError naming the file and line of a row of another width
    than the first, or of a cell that is not a number or not finite;
    warns (``TwoLevelWarning``) when some finite entry is not +-1.
    """
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, found {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite entry")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    D = np.asarray(rows)
    if not np.all(np.abs(D) == 1.0):
        warnings.warn(f"{path}: entries other than +-1 present", TwoLevelWarning, stacklevel=2)
    return D
