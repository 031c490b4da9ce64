"""Monte Carlo harness for coverage-rate / average-objective studies.

Runs the configured screening methods over seeded repetitions of a
generative model (or a fixed two-level design), collects per-repetition
records for audit, and aggregates two criteria per method: the coverage
rate (fraction of repetitions whose selected set contains the true
support) and the average objective (mean final residual sum of squares).
Every method's result on a repetition is a ``core.ScreeningResult``: the
one ``run`` or ``multi_start_foss_fs`` returns for an iterated method,
and for a basic method its estimate with its RSS, 0 iterations and an
empty termination.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from .core import (
    DEFAULT_REL_TOL,
    IterationOptions,
    ScreeningResult,
    SparseCoef,
    multi_start_foss_fs,
    multi_start_window,
    rss,
    run,
)
from .initializers import FsPath, forward_stepwise, forward_stepwise_paths, isis, sis
from .numerics import PreparedDesign, StandardizedProblem, bind, prepare_design
from .simgen import (
    GenerativeModel,
    TwoLevelWarning,
    child_stream,
    gen_equicorrelated_design,
    gen_response,
    kronecker_design,
    load_base_design,
    sylvester_hadamard,
)

__all__ = [
    "ConfigError",
    "DesignSpec",
    "ExperimentConfig",
    "MethodAggregate",
    "MethodTable",
    "RepetitionRecord",
    "ExperimentResult",
    "method_catalog",
    "config_from_dict",
    "config_to_dict",
    "run_method",
    "evaluate_repetition",
    "run_experiment",
    "write_repetition_records",
    "load_repetition_records",
    "write_exclusions",
    "aggregate_records",
    "write_method_table",
]

BASIC_METHODS = ("sis", "isis", "fs")

REPETITION_FIELDS = (
    "rep", "method", "covered", "rss", "iterations", "selected_indices", "termination",
)
AGGREGATE_FIELDS = ("method", "cr", "ao", "mean_iterations", "repetitions", "exclusions")
EXCLUSION_FIELDS = ("rep", "reason")

# Repetitions on a fixed design are evaluated in blocks of this many,
# whose stepwise sweeps run in lockstep (one GEMM per step where each
# repetition made one GEMV).  A column's bits do not depend on the width
# from 2 to 16, and with the BLAS thread variables unset OpenBLAS keeps a
# 528 x 96 GEMM on one thread up to width 16.  Blocks are the pool's unit
# of work, so narrower ones balance the workers better; wider ones save
# time in one process (2 cores, in process, BLAS threads unset: the 80
# repetitions of the benchmark's mc-fixed-design at seed 41 took
# 0.46-0.50 s at width 16 against 0.52-0.54 s at width 4, medians).
SWEEP_BLOCK = 4


def method_catalog() -> tuple[str, ...]:
    """All recognized method identifiers."""
    derived = [f"{alg}-{base}" for alg in ("oss", "foss") for base in BASIC_METHODS]
    return BASIC_METHODS + tuple(derived)


class ConfigError(ValueError):
    """Configuration rejected; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


@dataclass(frozen=True)
class DesignSpec:
    """Where the design matrix comes from: a generative family or a file."""

    kind: str = "equicorrelated"
    base_design_path: str | None = None
    hadamard_order: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: generative model, subset size, methods, seed."""

    model: GenerativeModel
    M: int
    repetitions: int
    methods: tuple[str, ...]
    design: DesignSpec = DesignSpec()
    rel_tol: float = DEFAULT_REL_TOL
    max_iter: int | None = None
    isis_batch: int | None = None

    @property
    def seed(self) -> int:
        return self.model.seed

    @property
    def true_support(self) -> tuple[int, ...]:
        return tuple(self.model.true_model().support.tolist())


@dataclass(frozen=True)
class MethodAggregate:
    method: str
    cr: float
    ao: float
    mean_iterations: float
    repetitions: int
    exclusions: int


@dataclass(frozen=True)
class MethodTable:
    """Per-method coverage-rate and average-objective aggregates."""

    rows: tuple[MethodAggregate, ...]

    def row(self, method: str) -> MethodAggregate:
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(method)


@dataclass(frozen=True)
class RepetitionRecord:
    """One audit row: what one method selected on one repetition, and
    why it stopped (empty for a basic method)."""

    rep: int
    method: str
    covered: int
    rss: float
    iterations: int
    selected: tuple[int, ...]
    termination: str = ""


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    table: MethodTable
    records: tuple[RepetitionRecord, ...]
    exclusions: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def _split_method(method: str) -> tuple[str | None, str]:
    name = method.lower()
    if name in BASIC_METHODS:
        return None, name
    for alg in ("oss", "foss"):
        prefix = alg + "-"
        if name.startswith(prefix) and name[len(prefix):] in BASIC_METHODS:
            return alg, name[len(prefix):]
    raise ValueError(f"unknown method {method!r} (expected one of {method_catalog()})")


def _repetition_methods(
    problem: StandardizedProblem,
    methods,
    M: int,
    rel_tol: float | None = None,
    max_iter: int | None = None,
    isis_batch: int | None = None,
    path: FsPath | None = None,
) -> dict[str, ScreeningResult]:
    """Run every configured method on one standardized problem.

    Initializers are computed once and shared between a basic method and
    its iterated counterparts, so the iterated runs start from exactly
    the submodel estimates the basic method reports.  ``path`` is the
    problem's stepwise path when a block sweep already made it (see
    ``_stepwise_size``); without it the path is swept here.
    """
    if rel_tol is None:
        rel_tol = DEFAULT_REL_TOL
    parsed = [(m, *_split_method(m)) for m in methods]
    bases = {base for _, _, base in parsed}

    inits: dict[str, SparseCoef] = {}
    if "sis" in bases:
        inits["sis"] = sis(problem, M)
    if "isis" in bases:
        inits["isis"] = isis(problem, M, batch=isis_batch)
    if fs_size := _stepwise_size(methods, M, problem.n, problem.p):
        if path is None:
            path = forward_stepwise(problem, fs_size)
        inits["fs"] = path.coef_at(min(M, path.order.size))

    outcomes: dict[str, ScreeningResult] = {}
    for method, alg, base in parsed:
        if alg is None:
            coef = inits[base]
            outcomes[method] = ScreeningResult(coef, np.array([rss(problem, coef)]), 0, "")
        elif alg == "foss" and base == "fs":
            outcomes[method] = multi_start_foss_fs(
                problem, M, path, IterationOptions("foss", rel_tol, max_iter)
            )
        else:
            outcomes[method] = run(
                problem, inits[base], M, IterationOptions(alg, rel_tol, max_iter)
            )
    return outcomes


def _stepwise_size(methods, M: int, n: int, p: int) -> int:
    """The length of stepwise path the methods need (0 for none): M, or
    the top of the restart window for ``foss-fs``, within min(n - 1, p)."""
    parsed = [_split_method(m) for m in methods]
    if all(base != "fs" for _, base in parsed):
        return 0
    size = M
    if ("foss", "fs") in parsed:
        size = max(size, multi_start_window(n, p, M)[1])
    return min(size, n - 1, p)


def run_method(
    problem: StandardizedProblem,
    method: str,
    M: int,
    rel_tol: float | None = None,
    max_iter: int | None = None,
) -> ScreeningResult:
    """Run a single method by name on an already-standardized problem."""
    return _repetition_methods(
        problem, [method], M, rel_tol=rel_tol, max_iter=max_iter
    )[method]


def _fixed_design(config: ExperimentConfig) -> tuple[np.ndarray, PreparedDesign] | None:
    """A run's fixed (Kronecker) design and its prepared form, read-only
    because every repetition shares them; None for equicorrelated runs."""
    design = config.design
    if design.kind == "equicorrelated":
        return None
    if design.kind != "kronecker":
        raise ConfigError("design.kind", f"unknown design kind {design.kind!r}")
    # config_from_dict read this file and warned about its entries.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TwoLevelWarning)
        base = load_base_design(design.base_design_path)
        X = kronecker_design(sylvester_hadamard(design.hadamard_order), base)
    X.setflags(write=False)
    return X, prepare_design(X)


def evaluate_repetition(
    config: ExperimentConfig, rep_index: int
) -> dict[str, ScreeningResult]:
    """Generate one repetition's data and run every configured method on it.

    The design and the noise come from separate child streams of the
    master seed, so the same repetition index always reproduces the same
    data regardless of scheduling.  A fixed (Kronecker) design is built
    afresh by each call.
    """
    return _config_methods(config, _problem(config, _fixed_design(config), rep_index))


def _problem(config: ExperimentConfig, fixed, rep_index: int) -> StandardizedProblem:
    """One repetition's standardized problem, on the run's fixed design
    or, when ``fixed`` is None, on a design of its own."""
    if fixed is None:
        stream = child_stream(config.seed, rep_index, "design")
        X = gen_equicorrelated_design(
            config.model.n, config.model.p, config.model.rho, stream
        )
        design = prepare_design(X)
    else:
        X, design = fixed
    y = gen_response(
        X, config.model.true_model(), child_stream(config.seed, rep_index, "response")
    )
    return bind(design, y)


def _config_methods(config: ExperimentConfig, problem, path=None):
    return _repetition_methods(
        problem,
        config.methods,
        config.M,
        rel_tol=config.rel_tol,
        max_iter=config.max_iter,
        isis_batch=config.isis_batch,
        path=path,
    )


def _attempt(fn, *args):
    """``(fn(*args), None)``, or ``(None, reason)`` when it fails the way a
    repetition is excluded for."""
    try:
        return fn(*args), None
    except (ValueError, np.linalg.LinAlgError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _blocks(config: ExperimentConfig) -> list[range]:
    """The repetitions, in blocks that are evaluated together.

    Repetitions on a fixed (Kronecker) design go in blocks of
    ``SWEEP_BLOCK`` by index, so a block, and with it every GEMM column
    of its sweep, is the same for any worker count; equicorrelated
    repetitions, each on its own design, are blocks of one.
    """
    width = SWEEP_BLOCK if config.design.kind == "kronecker" else 1
    reps = config.repetitions
    return [range(start, min(start + width, reps)) for start in range(0, reps, width)]


def _evaluate_block(config: ExperimentConfig, fixed, reps: range):
    """``(rep, outcomes, error)`` for each repetition of one block.

    The block takes its repetitions' stepwise paths from one sweep
    (``forward_stepwise_paths``), then runs the methods repetition by
    repetition.  A repetition whose data or methods fail is excluded
    alone; if the block's sweep itself fails, each repetition sweeps on
    its own.  ``fixed`` is the run's fixed design or None; numpy
    unpickles arrays writeable, so a pool worker makes it read-only again.
    """
    if fixed is not None:
        X, design = fixed
        for array in (X, design.X, design.col_means, design.col_scales, design.degenerate):
            array.setflags(write=False)
    made = {rep: _attempt(_problem, config, fixed, rep) for rep in reps}
    problems = {rep: problem for rep, (problem, error) in made.items() if error is None}
    paths = {}
    size = _stepwise_size(config.methods, config.M, config.model.n, config.model.p)
    if size and problems:
        swept, error = _attempt(forward_stepwise_paths, list(problems.values()), size)
        if error is None:
            paths = dict(zip(problems, swept))
    evaluated = []
    for rep in reps:
        problem, error = made[rep]
        outcomes = None
        if error is None:
            outcomes, error = _attempt(_config_methods, config, problem, paths.get(rep))
        evaluated.append((rep, outcomes, error))
    return evaluated


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all repetitions, aggregate, and keep per-repetition records.

    Repetitions are independent jobs keyed by their index, evaluated in
    fixed blocks (see ``_blocks``): on a fixed (Kronecker) design, the
    repetitions of a block share one lockstep stepwise sweep.  With
    ``workers > 1`` the blocks run in a pool of at most one process per
    block.  Output is identical for any worker count because every
    repetition derives its own streams, block membership depends on the
    repetition index alone, and the aggregation folds records in
    repetition order.  A fixed design is built and prepared once per
    call and passed to every block.  A repetition that fails is
    excluded on its own and listed in ``exclusions`` with the reason.

    Raises ValueError when ``workers`` is below 1, when the fixed design
    fails to build, and when every repetition is excluded (naming the
    first exclusion); ConfigError for an unknown design kind.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    blocks = _blocks(config)
    task = partial(_evaluate_block, config, _fixed_design(config))
    # The pool starts all its processes at the first submit.
    workers = min(workers, len(blocks))
    if workers > 1:
        # Imported here: the pool's modules are a few MB that a run in
        # this process never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            evaluated = list(chain.from_iterable(pool.map(task, blocks)))
    else:
        evaluated = [item for block in blocks for item in task(block)]

    support = set(config.true_support)
    records: list[RepetitionRecord] = []
    exclusions: list[tuple[int, str]] = []
    for rep_index, outcome_map, error in evaluated:
        if error is not None:
            exclusions.append((rep_index, error))
            continue
        for method in config.methods:
            outcome = outcome_map[method]
            selected = tuple(outcome.coef.active.tolist())
            records.append(
                RepetitionRecord(
                    rep=rep_index,
                    method=method,
                    covered=int(support.issubset(selected)),
                    rss=outcome.final_rss,
                    iterations=outcome.iterations,
                    selected=selected,
                    termination=outcome.termination,
                )
            )
    if not records:
        rep_index, error = exclusions[0]
        raise ValueError(
            f"all {len(exclusions)} repetition(s) were excluded; "
            f"the first, repetition {rep_index}, failed with {error}"
        )
    table = aggregate_records(records, exclusions=len(exclusions))
    return ExperimentResult(
        table=table, records=tuple(records), exclusions=tuple(exclusions)
    )


def aggregate_records(records, exclusions: int = 0) -> MethodTable:
    """Fold repetition records into the per-method table.

    The coverage rate is the exact count of records whose selected set
    contains the true support, divided by the number of repetitions; the
    average objective is the mean of the final residual sums of squares.
    Methods appear in the order of their first record.
    """
    if not records:
        raise ValueError("no records to aggregate")
    per_method: dict[str, tuple[list, list, list]] = {}
    for record in records:
        covered, rss_values, iters = per_method.setdefault(record.method, ([], [], []))
        covered.append(record.covered)
        rss_values.append(record.rss)
        iters.append(record.iterations)
    rows = []
    for method, (covered, rss_values, iters) in per_method.items():
        count = len(rss_values)
        rows.append(
            MethodAggregate(
                method=method,
                cr=sum(covered) / count,
                ao=float(np.mean(rss_values)),
                mean_iterations=float(np.mean(iters)),
                repetitions=count,
                exclusions=exclusions,
            )
        )
    return MethodTable(rows=tuple(rows))


def write_repetition_records(path, records) -> None:
    """Persist audit records as CSV; selected indices are 1-based, and the
    last column is the termination (empty for a basic method)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPETITION_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.rep,
                    r.method,
                    r.covered,
                    repr(r.rss),
                    r.iterations,
                    ";".join(str(j + 1) for j in r.selected),
                    r.termination,
                ]
            )


def load_repetition_records(path) -> tuple[RepetitionRecord, ...]:
    """Read back records written by :func:`write_repetition_records`."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            selected = tuple(
                int(tok) - 1 for tok in row["selected_indices"].split(";") if tok
            )
            records.append(
                RepetitionRecord(
                    rep=int(row["rep"]),
                    method=row["method"],
                    covered=int(row["covered"]),
                    rss=float(row["rss"]),
                    iterations=int(row["iterations"]),
                    selected=selected,
                    termination=row["termination"],
                )
            )
    return tuple(records)


def write_exclusions(path, exclusions) -> None:
    """Persist the excluded repetitions as CSV (``rep``, ``reason``), in
    repetition order; a run with none writes the header alone."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXCLUSION_FIELDS)
        writer.writerows(exclusions)


def write_method_table(path, table: MethodTable) -> None:
    """Persist the aggregate table as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_FIELDS)
        for row in table.rows:
            writer.writerow(
                [
                    row.method,
                    repr(row.cr),
                    repr(row.ao),
                    repr(row.mean_iterations),
                    row.repetitions,
                    row.exclusions,
                ]
            )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a configuration mapping and build an ExperimentConfig.

    Raises ConfigError naming the offending key on any violation.  For
    file-based designs the matrix dimensions are resolved from the file
    and checked against ``n``/``p`` when those are also given.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    known = {
        "n", "p", "d", "rho", "sigma", "beta_value", "M", "repetitions",
        "methods", "seed", "design", "rel_tol", "max_iter", "isis_batch",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown key")

    design_raw = raw.get("design", {"kind": "equicorrelated"})
    if not isinstance(design_raw, dict):
        raise ConfigError("design", "must be an object")
    kind = design_raw.get("kind", "equicorrelated")
    if kind not in ("equicorrelated", "kronecker"):
        raise ConfigError("design.kind", f"unknown design kind {kind!r}")

    def require_int(key, minimum=None, raw_map=raw, label=None):
        label = label or key
        if key not in raw_map:
            raise ConfigError(label, "missing")
        value = raw_map[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(label, "must be an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(label, f"must be at least {minimum}")
        return value

    def require_number(key, raw_map=raw, label=None):
        label = label or key
        if key not in raw_map:
            raise ConfigError(label, "missing")
        value = raw_map[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(label, "must be a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(label, "must be finite")
        return number

    if kind == "equicorrelated":
        n = require_int("n", 2)
        p = require_int("p", 1)
        rho = require_number("rho")
        if not 0.0 <= rho < 1.0:
            raise ConfigError("rho", "must be in [0, 1)")
        design = DesignSpec(kind="equicorrelated")
    else:
        path = design_raw.get("base_design_path")
        if not isinstance(path, str) or not path:
            raise ConfigError("design.base_design_path", "missing")
        order = require_int("hadamard_order", 1, design_raw, "design.hadamard_order")
        if order & (order - 1) != 0:
            raise ConfigError("design.hadamard_order", "must be a power of 2")
        try:
            base = load_base_design(path)
        except (OSError, ValueError) as exc:
            raise ConfigError("design.base_design_path", str(exc)) from exc
        n = order * base.shape[0]
        p = order * base.shape[1]
        if "n" in raw and raw["n"] != n:
            raise ConfigError("n", f"design file implies n = {n}")
        if "p" in raw and raw["p"] != p:
            raise ConfigError("p", f"design file implies p = {p}")
        if "rho" in raw:
            raise ConfigError("rho", "does not apply to a kronecker design")
        rho = 0.0
        design = DesignSpec(
            kind="kronecker", base_design_path=path, hadamard_order=order
        )

    d = require_int("d", 0)
    if d > p:
        raise ConfigError("d", "must not exceed p")
    sigma = require_number("sigma")
    if sigma <= 0.0:
        raise ConfigError("sigma", "must be positive")
    beta_value = require_number("beta_value")
    M = require_int("M", 1)
    if M > min(n - 1, p):
        raise ConfigError("M", f"must not exceed min(n - 1, p) = {min(n - 1, p)}")
    repetitions = require_int("repetitions", 1)
    seed = require_int("seed", 0)

    methods_raw = raw.get("methods")
    if not isinstance(methods_raw, list) or not methods_raw:
        raise ConfigError("methods", "must be a non-empty list")
    methods = []
    parsed = []
    for method in methods_raw:
        if not isinstance(method, str):
            raise ConfigError("methods", "entries must be strings")
        try:
            parsed.append(_split_method(method))
        except ValueError as exc:
            raise ConfigError("methods", str(exc)) from exc
        if method.lower() in methods:
            raise ConfigError("methods", f"{method!r} is listed twice")
        methods.append(method.lower())

    rel_tol = require_number("rel_tol") if "rel_tol" in raw else DEFAULT_REL_TOL
    if rel_tol < 0.0:
        raise ConfigError("rel_tol", "must be nonnegative")
    # rel_tol stays accepted without an iterated method: every manifest
    # carries it, and a manifest must replay.
    max_iter = require_int("max_iter", 1) if "max_iter" in raw else None
    if max_iter is not None and all(alg is None for alg, _ in parsed):
        raise ConfigError("max_iter", "applies only to oss- and foss- methods")
    isis_batch = require_int("isis_batch", 1) if "isis_batch" in raw else None
    if isis_batch is not None and all(base != "isis" for _, base in parsed):
        raise ConfigError("isis_batch", "applies only to isis-based methods")
    if isis_batch is not None and isis_batch > M:
        raise ConfigError("isis_batch", "must not exceed M")

    model = GenerativeModel(
        n=n, p=p, d=d, rho=rho, sigma=sigma, beta_value=beta_value, seed=seed
    )
    return ExperimentConfig(
        model=model,
        M=M,
        repetitions=repetitions,
        methods=tuple(methods),
        design=design,
        rel_tol=rel_tol,
        max_iter=max_iter,
        isis_batch=isis_batch,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize a configuration to its JSON form (inverse of parsing)."""
    out = {
        "n": config.model.n,
        "p": config.model.p,
        "d": config.model.d,
        "rho": config.model.rho,
        "sigma": config.model.sigma,
        "beta_value": config.model.beta_value,
        "M": config.M,
        "repetitions": config.repetitions,
        "methods": list(config.methods),
        "seed": config.seed,
        "design": {"kind": config.design.kind},
        "rel_tol": config.rel_tol,
    }
    if config.design.kind == "kronecker":
        out["design"]["base_design_path"] = config.design.base_design_path
        out["design"]["hadamard_order"] = config.design.hadamard_order
        del out["n"], out["p"], out["rho"]
    if config.max_iter is not None:
        out["max_iter"] = config.max_iter
    if config.isis_batch is not None:
        out["isis_batch"] = config.isis_batch
    return out
