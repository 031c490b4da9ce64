"""Seeded generation of simulation inputs, and the numeric-CSV reader.

Equicorrelated Gaussian designs, two-level Kronecker-product designs
built from Hadamard matrices, and responses from the sparse linear
model.  All randomness flows through replayable child streams derived
from (master seed, repetition index, purpose tag), so repetitions can
run in any order or thread without changing output.  ``read_matrix_csv``
reads every numeric CSV: base designs here, and the data of the CLI.
"""

from __future__ import annotations

import csv
import io
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
    overflows the float range, and naming ``sigma`` when the noise or the
    sum overflows it.
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
    with np.errstate(over="ignore", invalid="ignore"):
        y = signal + true_model.sigma * z
    if not np.all(np.isfinite(y)):
        raise ValueError(
            f"X @ beta + sigma * z overflowed; sigma={true_model.sigma:g} "
            "makes the response non-finite"
        )
    return y


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

    The file is read by ``read_matrix_csv(path, header=False)``, so a
    malformed one raises ``InputFileError`` (a ValueError) naming the
    file and line; warns (``TwoLevelWarning``) when some entry is not +-1.
    """
    D = read_matrix_csv(path, header=False)
    if not np.all(np.abs(D) == 1.0):
        warnings.warn(f"{path}: entries other than +-1 present", TwoLevelWarning, stacklevel=2)
    return D


class InputFileError(ValueError):
    """Malformed or unreadable input file; carries the path and line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.path = path
        self.line = line


def read_text(path) -> str:
    """The text of a UTF-8 file (a leading byte-order mark is dropped).

    Raises ``InputFileError``: ``path: message`` when the file cannot be
    read, and ``path:line: not UTF-8: byte 0x..`` at the first byte that
    is not UTF-8.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputFileError(path, None, exc.strerror or str(exc)) from exc
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        byte = exc.object[exc.start]
        raise InputFileError(path, line, f"not UTF-8: byte 0x{byte:02x}") from None


def _read_rows(path):
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    # line_num counts lines, not rows: a quoted cell may span lines.
    rows = [(reader.line_num, row) for row in reader if not _is_blank(row)]
    if not rows:
        raise InputFileError(path, 1, "no data rows")
    return rows


def _is_blank(row) -> bool:
    return not row or not any(cell.strip() for cell in row)


def _is_numeric_row(row) -> bool:
    try:
        [float(cell) for cell in row]
    except ValueError:
        return False
    return True


def read_matrix_csv(path, header=True) -> np.ndarray:
    """Read a UTF-8 CSV matrix of finite numbers; blank rows are skipped.

    With ``header`` a non-numeric first row is a header; without it every
    row is data.  Files of plain numbers with a consistent width go
    through ``np.loadtxt``; anything it does not read (quoted cells,
    ragged rows, a cell that is not a finite number, an unreadable file)
    falls back to a row-by-row parser that reads the same values and
    raises ``InputFileError`` naming the path and line of the problem.
    """
    fast = _read_matrix_fast(path, header)
    return fast if fast is not None else _read_matrix_rows(path, header)


def _read_matrix_fast(path, header=True) -> np.ndarray | None:
    """``np.loadtxt`` after the same header decision; None on any failure."""
    try:
        skip = 0
        if header:  # an empty file reads as numeric; loadtxt then finds no data
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                first = next((row for row in reader if not _is_blank(row)), [])
                skip = 0 if _is_numeric_row(first) else reader.line_num
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input without data
            data = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, dtype=float,
                skiprows=skip, encoding="utf-8-sig",
            )
    except (OSError, ValueError, csv.Error, UserWarning):
        return None
    return np.ascontiguousarray(data) if data.size and np.isfinite(data).all() else None


def _read_matrix_rows(path, header=True) -> np.ndarray:
    """The row-by-row reader behind ``read_matrix_csv``."""
    rows = _read_rows(path)
    if header and not _is_numeric_row(rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise InputFileError(path, 2, "no data rows after the header")
    width = len(rows[0][1])
    data = []
    for lineno, row in rows:
        if len(row) != width:
            raise InputFileError(
                path, lineno, f"expected {width} columns, found {len(row)}"
            )
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            bad = next(cell for cell in row if not _is_numeric_row([cell]))
            raise InputFileError(path, lineno, f"not a number: {bad!r}") from None
        if not all(map(math.isfinite, values)):
            raise InputFileError(path, lineno, "non-finite entry")
        data.append(values)
    return np.asarray(data)


def read_vector_csv(path) -> np.ndarray:
    """Read a single-column numeric CSV (optional header)."""
    matrix = read_matrix_csv(path)
    if matrix.shape[1] != 1:
        raise InputFileError(
            path, 1, f"expected a single column, found {matrix.shape[1]}"
        )
    return matrix[:, 0]
