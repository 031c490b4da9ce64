"""Batch command-line front end.

Three subcommands: ``screen`` fits a screening method to CSV data,
``simulate`` runs a Monte Carlo grid from a JSON config, and ``oracle``
invokes the exhaustive best-subset search.  Every run emits a manifest
sufficient to replay it exactly.  Indices in output files are 1-based;
the library is 0-based internally.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import EnumerationCapError, exhaustive_best_subset
from .experiments import (
    BASIC_METHODS,
    config_from_dict,
    config_to_dict,
    method_catalog,
    run_experiment,
    run_method,
    write_method_table,
    write_repetition_records,
)
from .numerics import standardize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_CAP = 4


class InputFileError(Exception):
    """Malformed input file; carries the path and line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_rows(path):
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not _is_blank(row):
                    rows.append((lineno, row))
    except OSError as exc:
        raise InputFileError(path, 0, exc.strerror or str(exc)) from exc
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


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix; a non-numeric first row is a header.

    Blank rows are skipped.  Files of plain numbers with a consistent
    width go through ``np.loadtxt``; anything it does not read (quoted
    cells, ragged rows, a cell that is not a number, an unreadable file)
    falls back to a row-by-row parser that reads the same values and
    raises ``InputFileError`` naming the path and line of the problem.
    """
    fast = _read_matrix_fast(path)
    return fast if fast is not None else _read_matrix_rows(path)


def _read_matrix_fast(path) -> np.ndarray | None:
    """``np.loadtxt`` after the same header decision; None on any failure."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next((row for row in reader if not _is_blank(row)), None)
            skip = reader.line_num
        if first is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input without data
            data = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, dtype=float,
                skiprows=0 if _is_numeric_row(first) else skip, encoding="utf-8-sig",
            )
    except (OSError, ValueError, csv.Error, UserWarning):
        return None
    return np.ascontiguousarray(data) if data.size else None


def _read_matrix_rows(path) -> np.ndarray:
    """The row-by-row reader behind ``read_matrix_csv``."""
    rows = _read_rows(path)
    if not _is_numeric_row(rows[0][1]):
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
            data.append([float(cell) for cell in row])
        except ValueError:
            bad = next(cell for cell in row if not _is_numeric_row([cell]))
            raise InputFileError(path, lineno, f"not a number: {bad!r}") from None
    return np.asarray(data)


def read_vector_csv(path) -> np.ndarray:
    """Read a single-column numeric CSV (optional header)."""
    matrix = read_matrix_csv(path)
    if matrix.shape[1] != 1:
        raise InputFileError(
            path, 1, f"expected a single column, found {matrix.shape[1]}"
        )
    return matrix[:, 0]


def _write_manifest(path, command, config, outputs, argv) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "library_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "outputs": {k: str(v) for k, v in outputs.items()},
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _back_transform(problem, beta_std):
    # Standardized model: y - ybar = sum_j beta_j (x_j - mean_j)/scale_j.
    slope = beta_std / problem.col_scales
    intercept = problem.y_mean - float(slope @ problem.col_means)
    return slope, intercept


def cmd_screen(args, argv) -> int:
    """Fit one screening method to CSV data and write the selection."""
    try:
        X = read_matrix_csv(args.x_path)
        y = read_vector_csv(args.y_path)
    except InputFileError as exc:
        return _fail(EXIT_INPUT, str(exc))

    if y.shape[0] != X.shape[0]:
        return _fail(
            EXIT_DIMENSION,
            f"{args.y_path}: has {y.shape[0]} rows but {args.x_path} has {X.shape[0]}",
        )

    X_test = y_test = None
    if args.test_x or args.test_y:
        if not (args.test_x and args.test_y):
            return _fail(EXIT_INPUT, "--test-x and --test-y must be given together")
        if args.test_rows is not None:
            return _fail(EXIT_INPUT, "--test-rows excludes --test-x and --test-y")
        try:
            X_test = read_matrix_csv(args.test_x)
            y_test = read_vector_csv(args.test_y)
        except InputFileError as exc:
            return _fail(EXIT_INPUT, str(exc))
        if X_test.shape[1] != X.shape[1]:
            return _fail(
                EXIT_DIMENSION,
                f"{args.test_x}: has {X_test.shape[1]} columns but "
                f"{args.x_path} has {X.shape[1]}",
            )
        if y_test.shape[0] != X_test.shape[0]:
            return _fail(
                EXIT_DIMENSION,
                f"{args.test_y}: has {y_test.shape[0]} rows but "
                f"{args.test_x} has {X_test.shape[0]}",
            )
    elif args.test_rows is not None:
        if not 1 <= args.test_rows <= X.shape[0] - 2:
            return _fail(
                EXIT_DIMENSION,
                f"--test-rows {args.test_rows} leaves no training data "
                f"(n = {X.shape[0]})",
            )
        X, X_test = X[: -args.test_rows], X[-args.test_rows :]
        y, y_test = y[: -args.test_rows], y[-args.test_rows :]

    method = args.method.lower()
    if method not in method_catalog():
        return _fail(
            EXIT_INPUT, f"unknown method {args.method!r}; choose from {method_catalog()}"
        )
    if method in BASIC_METHODS:
        for flag, value in (("--rel-tol", args.rel_tol), ("--max-iter", args.max_iter)):
            if value is not None:
                return _fail(
                    EXIT_INPUT, f"{flag} applies only to oss- and foss- methods, not {method!r}"
                )

    requested_m = args.subset_size
    M = min(requested_m, X.shape[0] - 1, X.shape[1])
    if M < 1:
        return _fail(EXIT_DIMENSION, "not enough rows/columns to select anything")

    try:
        problem = standardize(X, y)
        outcome = run_method(
            problem, method, M, rel_tol=args.rel_tol, max_iter=args.max_iter
        )
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))

    slope, intercept = _back_transform(problem, outcome.coef.beta)
    result = {
        "command": "screen",
        "method": method,
        "subset_size": M,
        "requested_subset_size": requested_m,
        "n": int(X.shape[0]),
        "p": int(X.shape[1]),
        "selected": [int(j) + 1 for j in outcome.selected],
        "coefficients": [
            {"index": int(j) + 1, "value": float(slope[j])} for j in outcome.selected
        ],
        "intercept": float(intercept),
        "rss": float(outcome.rss),
        "iterations": int(outcome.iterations),
    }
    if X_test is not None:
        pred = intercept + X_test @ slope
        result["test_mse"] = float(np.mean((y_test - pred) ** 2))
        result["test_rows"] = int(X_test.shape[0])

    out = Path(args.out or "screen_result.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "screen",
        {
            "x_path": str(args.x_path),
            "y_path": str(args.y_path),
            "method": method,
            "subset_size": requested_m,
            "rel_tol": args.rel_tol,
            "max_iter": args.max_iter,
            "test_rows": args.test_rows,
            "test_x": args.test_x,
            "test_y": args.test_y,
        },
        {"result": out},
        argv,
    )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args, argv) -> int:
    """Run a Monte Carlo grid from a JSON config (or a prior manifest)."""
    try:
        with open(args.config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        return _fail(EXIT_INPUT, f"{args.config_path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        return _fail(EXIT_INPUT, f"{args.config_path}:{exc.lineno}: {exc.msg}")

    if isinstance(raw, dict) and "config" in raw and "command" in raw:
        raw = raw["config"]  # replaying a manifest
    if args.seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": args.seed}
    if args.rel_tol is not None and isinstance(raw, dict):
        raw = {**raw, "rel_tol": args.rel_tol}
    if args.max_iter is not None and isinstance(raw, dict):
        raw = {**raw, "max_iter": args.max_iter}

    try:
        config = config_from_dict(raw)
        result = run_experiment(config, workers=args.workers)
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))

    out_dir = Path(args.out or "simulate_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    agg_path = out_dir / "aggregate.csv"
    rep_path = out_dir / "repetitions.csv"
    write_method_table(agg_path, result.table)
    write_repetition_records(rep_path, result.records)
    _write_manifest(
        out_dir / "manifest.json",
        "simulate",
        config_to_dict(config),
        {"aggregate": agg_path, "repetitions": rep_path},
        argv,
    )
    if result.exclusions:
        print(f"excluded {len(result.exclusions)} repetition(s) due to failures")
    print(f"wrote {agg_path} and {rep_path}")
    return EXIT_OK


def cmd_oracle(args, argv) -> int:
    """Exhaustively search all size-M subsets of a CSV dataset."""
    try:
        X = read_matrix_csv(args.x_path)
        y = read_vector_csv(args.y_path)
    except InputFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    if y.shape[0] != X.shape[0]:
        return _fail(
            EXIT_DIMENSION,
            f"{args.y_path}: has {y.shape[0]} rows but {args.x_path} has {X.shape[0]}",
        )
    p = X.shape[1]
    M = args.subset_size
    if not 0 <= M <= p:
        return _fail(EXIT_DIMENSION, f"M = {M} is outside [0, p] with p = {p}")

    try:
        problem = standardize(X, y)
        res = exhaustive_best_subset(problem, M)
    except EnumerationCapError as exc:
        return _fail(EXIT_CAP, str(exc))
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))

    result = {
        "command": "oracle",
        "subset_size": M,
        "n": int(X.shape[0]),
        "p": p,
        "subsets_evaluated": math.comb(p, M),
        "selected": [int(j) + 1 for j in res.coef.active],
        "rss": res.final_rss,
    }
    out = Path(args.out or "oracle_result.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "oracle",
        {"x_path": str(args.x_path), "y_path": str(args.y_path), "subset_size": M},
        {"result": out},
        argv,
    )
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it uses.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output file or directory")
    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument(
        "--rel-tol", type=float, default=None, dest="rel_tol",
        help="relative objective-decrease stopping tolerance",
    )
    iteration.add_argument(
        "--max-iter", type=int, default=None, dest="max_iter",
        help="iteration cap for the iterative methods",
    )

    parser = argparse.ArgumentParser(
        prog="subsetscreen",
        description="Sparse-regression variable screening on CSV data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    screen = sub.add_parser(
        "screen", parents=[output, iteration],
        help="screen a dataset and write the selection",
    )
    screen.add_argument("x_path", help="CSV of predictors (optional header row)")
    screen.add_argument("y_path", help="single-column CSV response")
    screen.add_argument(
        "--method", default="foss-fs", help=f"one of {', '.join(method_catalog())}"
    )
    screen.add_argument(
        "-M", "--subset-size", type=int, default=20, dest="subset_size",
        help="number of variables to keep (clipped to min(n-1, p))",
    )
    screen.add_argument(
        "--test-rows", type=int, default=None,
        help="hold out this many final rows as a test split",
    )
    screen.add_argument("--test-x", default=None, help="separate test predictor CSV")
    screen.add_argument("--test-y", default=None, help="separate test response CSV")

    simulate = sub.add_parser(
        "simulate", parents=[output, iteration],
        help="run a Monte Carlo study from a JSON config",
    )
    simulate.add_argument(
        "config_path", help="JSON config (or a manifest.json from a prior run)"
    )
    simulate.add_argument("--seed", type=int, default=None, help="master seed (64-bit)")
    simulate.add_argument(
        "--workers", type=int, default=1, help="parallel workers for repetitions"
    )

    oracle = sub.add_parser(
        "oracle", parents=[output], help="exhaustive best-subset search"
    )
    oracle.add_argument("x_path", help="CSV of predictors (optional header row)")
    oracle.add_argument("y_path", help="single-column CSV response")
    oracle.add_argument(
        "-M", "--subset-size", type=int, required=True, dest="subset_size",
        help="subset size to search",
    )

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    handler = {"screen": cmd_screen, "simulate": cmd_simulate, "oracle": cmd_oracle}[
        args.command
    ]
    return handler(args, argv)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
