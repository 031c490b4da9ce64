"""Output checks behind ``failed`` (and so the error rate).

Each checker returns a list of problems; an empty list means the call
passed.  They recompute what they can from the raw inputs with plain numpy
instead of trusting the program's own numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Relative slack of the paper's monotonicity guarantee: an iterated method
# never ends above its initializer's residual sum of squares.
MONOTONE_RTOL = 1e-9
# Relative agreement between a reported RSS and an independent refit.
RSS_RTOL = 1e-8


def _split_method(method: str):
    for alg in ("oss", "foss"):
        if method.startswith(alg + "-"):
            return alg, method[len(alg) + 1:]
    return None, method


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def lstsq_rss(X: np.ndarray, y: np.ndarray, columns) -> float:
    """RSS of the least-squares fit of y on an intercept plus ``columns``."""
    A = np.column_stack([np.ones(X.shape[0]), X[:, list(columns)]])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ coef
    return float(r @ r)


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_simulate(returncode: int, out_dir: Path, config: dict, ref_digest: str | None):
    """Exit code, no exclusions, reps x methods rows, monotonicity, replay digest."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    out_dir = Path(out_dir)
    try:
        with open(out_dir / "aggregate.csv", newline="") as fh:
            aggregate = list(csv.DictReader(fh))
        with open(out_dir / "repetitions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"missing output: {exc}"]
    methods, reps, M = config["methods"], config["repetitions"], config["M"]
    if any(int(row["exclusions"]) != 0 for row in aggregate):
        problems.append("excluded repetitions")
    if len(rows) != reps * len(methods):
        problems.append(f"{len(rows)} rows, expected {reps} x {len(methods)}")
    by_rep: dict[int, dict[str, float]] = {}
    for row in rows:
        rss = float(row["rss"])
        selected = [tok for tok in row["selected_indices"].split(";") if tok]
        if not math.isfinite(rss) or rss < 0.0 or len(selected) > M:
            problems.append(f"rep {row['rep']} {row['method']}: bad row")
        by_rep.setdefault(int(row["rep"]), {})[row["method"]] = rss
    if sorted(by_rep) != list(range(reps)):
        problems.append("repetition indices are not 0..reps-1")
    for rep, values in sorted(by_rep.items()):
        for method, value in values.items():
            alg, base = _split_method(method)
            if alg is not None and base in values:
                if value > values[base] * (1.0 + MONOTONE_RTOL):
                    problems.append(
                        f"rep {rep}: {method} rss {value!r} above {base} rss {values[base]!r}"
                    )
    if ref_digest is not None and file_digest(out_dir / "repetitions.csv") != ref_digest:
        problems.append("repetitions.csv differs from the first call at this seed")
    return problems


def _load_result(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _selected(result: dict, p: int):
    selected = [int(j) for j in result["selected"]]
    if len(set(selected)) != len(selected) or not all(1 <= j <= p for j in selected):
        raise ValueError(f"bad selected indices {selected}")
    return [j - 1 for j in selected]


def check_screen(returncode: int, result_path: Path, X: np.ndarray, y: np.ndarray, M: int):
    """Reported RSS equals both the RSS of the reported coefficients and a refit."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        result = _load_result(result_path)
        selected = _selected(result, X.shape[1])
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable result: {exc}"]
    problems = []
    if len(selected) > M:
        problems.append(f"{len(selected)} selected, more than M = {M}")
    coef = {int(c["index"]) - 1: float(c["value"]) for c in result["coefficients"]}
    if sorted(coef) != sorted(selected):
        problems.append("coefficient indices differ from the selected set")
    reported = float(result["rss"])
    residual = y - result["intercept"] - X[:, list(coef)] @ np.array(list(coef.values()))
    from_coef = float(residual @ residual)
    refit = lstsq_rss(X, y, selected)
    for label, value in (("reported coefficients", from_coef), ("lstsq refit", refit)):
        if _rel_diff(reported, value) > RSS_RTOL:
            problems.append(f"rss {reported!r} differs from {label} rss {value!r}")
    return problems


def check_oracle(returncode: int, result_path: Path, X: np.ndarray, y: np.ndarray, M: int):
    """Reported RSS equals a refit of the reported subset and beats top-M correlation."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        result = _load_result(result_path)
        selected = _selected(result, X.shape[1])
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable result: {exc}"]
    problems = []
    p = X.shape[1]
    if len(selected) != M:
        problems.append(f"{len(selected)} selected, expected M = {M}")
    if result.get("subsets_evaluated") != math.comb(p, M):
        problems.append(f"subsets_evaluated {result.get('subsets_evaluated')} != C({p}, {M})")
    reported = float(result["rss"])
    refit = lstsq_rss(X, y, selected)
    if _rel_diff(reported, refit) > RSS_RTOL:
        problems.append(f"rss {reported!r} differs from lstsq refit rss {refit!r}")
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    corr = np.abs(Xc.T @ yc) / np.linalg.norm(Xc, axis=0)
    marginal = lstsq_rss(X, y, np.argsort(-corr, kind="stable")[:M])
    if reported > marginal * (1.0 + MONOTONE_RTOL):
        problems.append(f"rss {reported!r} above top-{M} marginal subset rss {marginal!r}")
    return problems


def check_call(command: str, returncode: int, inputs, ref_digest: str | None = None):
    """Dispatch to the checker of ``command`` for one finished call."""
    if command == "simulate":
        return check_simulate(returncode, inputs.out, inputs.config, ref_digest)
    if command == "screen":
        return check_screen(returncode, inputs.out, inputs.X, inputs.y, inputs.M)
    return check_oracle(returncode, inputs.out, inputs.X, inputs.y, inputs.M)
