"""Benchmark workloads: seeded input generation and the CLI call each one times.

Every workload writes its inputs (CSV and JSON files) into a work directory
and hands only those files to ``subsetscreen``.  The same workload seed
always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One timed CLI call and why it is in the benchmark.

    ``work_unit`` names what ``work_per_s`` counts for this workload, and
    ``layer_map`` records which end-to-end metric each per-layer metric is
    predicted to move here.
    """

    name: str
    why: str
    command: str
    work_unit: str
    layer_map: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-pool",
            why=(
                "simulate --workers 2 on the 200x500 acceptance cell: the only "
                "path through the process pool, where each worker's BLAS pool "
                "oversubscribes the cores"
            ),
            command="simulate",
            work_unit="repetitions",
            layer_map={
                "cli.write_s": "wall_s",
                "numerics.standardize_s": "work_per_s",
                "numerics.lambda_max_s": "work_per_s",
                "simgen.design_s": "work_per_s",
                "simgen.response_s": "work_per_s",
                "initializers.sis_s": "work_per_s",
                "initializers.isis_s": "work_per_s",
                "initializers.fs_path_s": "work_per_s",
                "core.multi_start_s": "work_per_s",
                "experiments.pool_efficiency": "work_per_s, cpu_s",
            },
        ),
        Workload(
            name="mc-fixed-design",
            why=(
                "simulate --workers 1 on 96x528 Kronecker designs: no pool, "
                "small BLAS calls, time in the Python iteration loops of core "
                "(oss, foss, multi-start)"
            ),
            command="simulate",
            work_unit="repetitions",
            layer_map={
                "cli.write_s": "wall_s",
                "numerics.lstsq_us": "work_per_s",
                "simgen.design_s": "work_per_s",
                "simgen.response_s": "work_per_s",
                "core.oss_step_us": "work_per_s",
                "core.foss_step_us": "work_per_s",
                "core.refit_us": "work_per_s",
                "core.multi_start_s": "work_per_s",
                "experiments.pool_efficiency": "none (prediction: unchanged)",
            },
        ),
        Workload(
            name="screen-wide",
            why=(
                "screen --method foss-fs on a 400x2000 CSV: the single-process "
                "practitioner path, dominated by CSV parsing, the spectral "
                "constant and the stepwise path"
            ),
            command="screen",
            work_unit="columns",
            layer_map={
                "cli.read_csv_s": "wall_s",
                "numerics.standardize_s": "wall_s",
                "numerics.lambda_max_s": "wall_s",
                "initializers.fs_path_s": "wall_s",
                "core.multi_start_s": "wall_s",
            },
        ),
        Workload(
            name="oracle",
            why=(
                "oracle -M 4 on a 60x30 CSV (C(30,4) = 27,405 subsets): the only "
                "path through exhaustive_best_subset and its per-subset least "
                "squares"
            ),
            command="oracle",
            work_unit="subsets",
            layer_map={
                "cli.read_csv_s": "wall_s",
                "numerics.lstsq_us": "work_per_s",
                "core.oracle_subset_us": "work_per_s",
            },
        ),
    )
}


@dataclass
class Inputs:
    """Generated inputs of one workload and what the output checks need.

    ``argv`` is the argument list after ``subsetscreen``; ``out`` is the
    output path it names.  ``X``/``y``/``M`` are the raw data for the
    screen and oracle checks; ``config`` is the simulate config.
    """

    argv: list
    out: Path
    work: int
    M: int
    X: np.ndarray | None = None
    y: np.ndarray | None = None
    config: dict | None = None


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


def _write_csv(path: Path, array: np.ndarray) -> None:
    # %.17g round-trips every double, so the program reads the exact values.
    np.savetxt(path, array, delimiter=",", fmt="%.17g")


def random_two_level_base(rng: np.random.Generator, runs: int = 12, factors: int = 66):
    """Random +-1 design with no constant, duplicate or negated columns."""
    columns, seen = [], set()
    while len(columns) < factors:
        col = rng.choice([-1.0, 1.0], size=runs)
        key = tuple(col) if col[0] > 0 else tuple(-col)
        if key in seen or abs(col.sum()) == runs:
            continue
        seen.add(key)
        columns.append(col)
    return np.column_stack(columns)


def _sparse_gaussian(rng, n, p, d, beta, sigma):
    X = rng.standard_normal((n, p))
    support = rng.choice(p, size=d, replace=False)
    y = X[:, support] @ np.full(d, beta) + sigma * rng.standard_normal(n)
    return X, y


def _simulate_inputs(work_dir: Path, config: dict, workers: int) -> Inputs:
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    out = work_dir / "out"
    argv = ["simulate", str(config_path), "--workers", str(workers), "--out", str(out)]
    return Inputs(argv=argv, out=out, work=config["repetitions"], M=config["M"], config=config)


def _csv_inputs(work_dir: Path, command: str, X, y, M: int, extra: list) -> Inputs:
    x_path, y_path = work_dir / "x.csv", work_dir / "y.csv"
    _write_csv(x_path, X)
    _write_csv(y_path, y[:, None])
    out = work_dir / "result.json"
    argv = [command, str(x_path), str(y_path), "-M", str(M), *extra, "--out", str(out)]
    work = math.comb(X.shape[1], M) if command == "oracle" else X.shape[1]
    return Inputs(argv=argv, out=out, work=work, M=M, X=X, y=y)


# mc-fixed-design cycles through this many seeded base designs, so a run's
# median does not hinge on how hard one random design happens to be.
FIXED_DESIGNS = 4


def make_inputs(
    name: str, seed: int, work_dir: Path, repetitions: int | None = None
) -> list[Inputs]:
    """Write the inputs of workload ``name`` for ``seed`` into ``work_dir``.

    Returns the input variants the timed calls cycle through (one, except
    for mc-fixed-design).  ``repetitions`` overrides the per-call
    repetition count of the simulate workloads (the traced run needs more
    samples).
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    if name == "mc-pool":
        config = {
            "n": 200, "p": 500, "d": 10, "rho": 0.0, "sigma": 1.0,
            "beta_value": 3.0, "M": 30, "repetitions": repetitions or 4,
            "methods": ["sis", "foss-sis", "fs", "foss-fs"], "seed": int(seed),
        }
        return [_simulate_inputs(work_dir, config, workers=2)]
    if name == "mc-fixed-design":
        variants = []
        for k in range(FIXED_DESIGNS):
            design_dir = work_dir / f"design{k}"
            design_dir.mkdir(exist_ok=True)
            base_path = design_dir / "base12x66.csv"
            base = random_two_level_base(_rng(seed, 1, k))
            np.savetxt(base_path, base, delimiter=",", fmt="%.0f")
            # Uncapped, oss-sis needs 1 to 10,000 iterations per repetition
            # on these designs, so a few repetitions set a call's time.  The
            # cap keeps up to 300 cheap oss steps per repetition while
            # bounding that tail.
            config = {
                "d": 2, "sigma": 0.5, "beta_value": 1.0, "M": 10, "max_iter": 300,
                "repetitions": repetitions or 20,
                "methods": ["sis", "isis", "oss-sis", "foss-isis", "fs", "foss-fs"],
                "seed": int(seed),
                "design": {
                    "kind": "kronecker",
                    "base_design_path": str(base_path),
                    "hadamard_order": 8,
                },
            }
            variants.append(_simulate_inputs(design_dir, config, workers=1))
        return variants
    if name == "screen-wide":
        X, y = _sparse_gaussian(_rng(seed, 2), 400, 2000, 10, 3.0, 1.0)
        return [_csv_inputs(work_dir, "screen", X, y, 20, ["--method", "foss-fs"])]
    if name == "oracle":
        X, y = _sparse_gaussian(_rng(seed, 3), 60, 30, 4, 1.0, 1.0)
        return [_csv_inputs(work_dir, "oracle", X, y, 4, [])]
    raise KeyError(name)
