"""Batch command-line front end.

Three subcommands: ``screen`` fits a screening method to CSV data,
``simulate`` runs a Monte Carlo grid from a JSON config, and ``oracle``
invokes the exhaustive best-subset search.  Every run emits a manifest
sufficient to replay it exactly.  Indices in output files are 1-based;
the library is 0-based internally.  ``main`` alone maps failures to exit
codes: 2 for bad input or data too large to allocate, 3 for inconsistent
dimensions, 4 for an oracle search beyond the enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import EnumerationCapError, exhaustive_best_subset
from .experiments import (
    config_from_dict,
    config_to_dict,
    iterates_any,
    method_catalog,
    run_experiment,
    run_method,
    write_exclusions,
    write_method_table,
    write_repetition_records,
)
from .numerics import standardize
from .simgen import InputFileError, read_matrix_csv, read_text, read_vector_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_CAP = 4

# Thread-count variables of the BLAS builds numpy ships with or links to.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Failure(Exception):
    """Ends a command with ``error: message`` on stderr and the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_xy(x_path, y_path):
    """Read X and y; exit 3 when their row counts differ."""
    X, y = read_matrix_csv(x_path), read_vector_csv(y_path)
    if y.shape[0] != X.shape[0]:
        raise _Failure(
            EXIT_DIMENSION,
            f"{y_path}: has {y.shape[0]} rows but {x_path} has {X.shape[0]}",
        )
    return X, y


@contextmanager
def _writing(path):
    """Exit 2 naming the output ``path`` (or the file in it that failed)
    and the OS reason when writing it fails."""
    try:
        yield
    except OSError as exc:
        raise _Failure(EXIT_INPUT, f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path, command, config, outputs, argv) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "library_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "outputs": {k: str(v) for k, v in outputs.items()},
        # The numeric environment, for the record: replay reads only "config".
        "environment": {
            "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "cpu_count": os.cpu_count(),
        },
    }
    _write_json(path, manifest)


def _write_result(out, result, config, argv) -> None:
    """Write a command's result JSON, and its manifest beside it."""
    with _writing(out):
        _write_json(out, result)
        _write_manifest(
            out.with_suffix(out.suffix + ".manifest.json"),
            result["command"], config, {"result": out}, argv,
        )
    print(f"wrote {out}")


def _back_transform(problem, beta_std):
    # Standardized model: y - ybar = sum_j beta_j (x_j - mean_j)/scale_j.
    slope = beta_std / problem.col_scales
    intercept = problem.y_mean - float(slope @ problem.col_means)
    return slope, intercept


def cmd_screen(args, argv) -> int:
    """Fit one screening method to CSV data and write the selection."""
    X, y = _read_xy(args.x_path, args.y_path)
    X_test = y_test = None
    if args.test_x or args.test_y:
        if not (args.test_x and args.test_y):
            raise _Failure(EXIT_INPUT, "--test-x and --test-y must be given together")
        if args.test_rows is not None:
            raise _Failure(EXIT_INPUT, "--test-rows excludes --test-x and --test-y")
        X_test, y_test = _read_xy(args.test_x, args.test_y)
        if X_test.shape[1] != X.shape[1]:
            raise _Failure(
                EXIT_DIMENSION,
                f"{args.test_x}: has {X_test.shape[1]} columns but "
                f"{args.x_path} has {X.shape[1]}",
            )
    elif args.test_rows is not None:
        if not 1 <= args.test_rows <= X.shape[0] - 2:
            raise _Failure(
                EXIT_DIMENSION,
                f"--test-rows {args.test_rows} leaves no training data "
                f"(n = {X.shape[0]})",
            )
        # A copy, so the held-out rows do not keep the whole design alive
        # once the training rows are standardized.
        X, X_test = X[: -args.test_rows], X[-args.test_rows :].copy()
        y, y_test = y[: -args.test_rows], y[-args.test_rows :]

    method = args.method.lower()
    if method not in method_catalog():
        raise _Failure(
            EXIT_INPUT, f"unknown method {args.method!r}; choose from {method_catalog()}"
        )
    if not iterates_any([method]):
        for flag, value in (("--rel-tol", args.rel_tol), ("--max-iter", args.max_iter)):
            if value is not None:
                raise _Failure(
                    EXIT_INPUT, f"{flag} applies only to oss- and foss- methods, not {method!r}"
                )

    requested_m = args.subset_size
    if requested_m < 1:
        raise _Failure(EXIT_DIMENSION, f"-M {requested_m} selects nothing: it must be at least 1")
    M = min(requested_m, X.shape[0] - 1, X.shape[1])
    if M < 1:
        raise _Failure(EXIT_DIMENSION, "not enough rows/columns to select anything")

    n, p = X.shape
    problem = standardize(X, y)
    del X  # the method needs only the standardized copy
    outcome = run_method(problem, method, M, rel_tol=args.rel_tol, max_iter=args.max_iter)

    slope, intercept = _back_transform(problem, outcome.coef.beta)
    result = {
        "command": "screen",
        "method": method,
        "subset_size": M,
        "requested_subset_size": requested_m,
        "n": int(n),
        "p": int(p),
        "selected": [int(j) + 1 for j in outcome.coef.active],
        "coefficients": [
            {"index": int(j) + 1, "value": float(slope[j])} for j in outcome.coef.active
        ],
        "intercept": float(intercept),
        "rss": outcome.final_rss,
        "iterations": int(outcome.iterations),
    }
    if X_test is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            test_mse = float(np.mean((y_test - (intercept + X_test @ slope)) ** 2))
        if not math.isfinite(test_mse):
            held_out = (args.test_x, args.test_y) if args.test_x else (args.x_path, args.y_path)
            raise _Failure(
                EXIT_INPUT, "the held-out squared error on {} and {} overflows".format(*held_out)
            )
        result["test_mse"] = test_mse
        result["test_rows"] = int(X_test.shape[0])

    _write_result(
        Path(args.out or "screen_result.json"),
        result,
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
        argv,
    )
    return EXIT_OK


def cmd_simulate(args, argv) -> int:
    """Run a Monte Carlo grid from a JSON config (or a prior manifest)."""
    try:
        raw = json.loads(read_text(args.config_path))
    except json.JSONDecodeError as exc:
        raise _Failure(EXIT_INPUT, f"{args.config_path}:{exc.lineno}: {exc.msg}")

    if isinstance(raw, dict) and "config" in raw and "command" in raw:
        raw = raw["config"]  # replaying a manifest
    if args.seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": args.seed}
    if args.rel_tol is not None and isinstance(raw, dict):
        raw = {**raw, "rel_tol": args.rel_tol}
    if args.max_iter is not None and isinstance(raw, dict):
        raw = {**raw, "max_iter": args.max_iter}

    config = config_from_dict(raw)
    # The rel_tol key itself stays valid here: every manifest carries it.
    if args.rel_tol is not None and not iterates_any(config.methods):
        raise _Failure(
            EXIT_INPUT, f"--rel-tol applies only to oss- and foss- methods, not {config.methods}"
        )
    # Made before the run, so a path that cannot be a directory fails at
    # once; a run that fails, or is interrupted, takes away what this made.
    out_dir = Path(args.out or "simulate_out")
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_experiment(config, workers=args.workers)
    except BaseException:
        for path in made:
            path.rmdir()
        raise

    agg_path = out_dir / "aggregate.csv"
    rep_path = out_dir / "repetitions.csv"
    excl_path = out_dir / "exclusions.csv"
    with _writing(out_dir):
        write_method_table(agg_path, result.table)
        write_repetition_records(rep_path, result.records)
        write_exclusions(excl_path, result.exclusions)
        _write_manifest(
            out_dir / "manifest.json",
            "simulate",
            config_to_dict(config),
            {"aggregate": agg_path, "repetitions": rep_path, "exclusions": excl_path},
            argv,
        )
    if result.exclusions:
        print(f"excluded {len(result.exclusions)} repetition(s) due to failures (see {excl_path})")
    print(f"wrote {agg_path} and {rep_path}")
    return EXIT_OK


def cmd_oracle(args, argv) -> int:
    """Exhaustively search all size-M subsets of a CSV dataset."""
    X, y = _read_xy(args.x_path, args.y_path)
    p = X.shape[1]
    M = args.subset_size
    if not 0 <= M <= p:
        raise _Failure(EXIT_DIMENSION, f"M = {M} is outside [0, p] with p = {p}")

    res = exhaustive_best_subset(standardize(X, y), M)
    result = {
        "command": "oracle",
        "subset_size": M,
        "n": int(X.shape[0]),
        "p": p,
        "subsets_evaluated": math.comb(p, M),
        "selected": [int(j) + 1 for j in res.coef.active],
        "rss": res.final_rss,
    }
    _write_result(
        Path(args.out or "oracle_result.json"),
        result,
        {"x_path": str(args.x_path), "y_path": str(args.y_path), "subset_size": M},
        argv,
    )
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
    try:
        return handler(args, argv)
    except _Failure as exc:
        code, message = exc.code, str(exc)
    except EnumerationCapError as exc:
        code, message = EXIT_CAP, str(exc)
    except ValueError as exc:
        code, message = EXIT_INPUT, str(exc)
    except MemoryError as exc:
        # numpy's names the allocation; a bare one says nothing.
        code, message = EXIT_INPUT, str(exc) or "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
