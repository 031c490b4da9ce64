"""Traced in-process run: per-layer spans around the public layer functions.

The workload's command runs once untraced and once traced in this
process, through ``subsetscreen.cli.main``.  For the traced run every
public function listed in ``TARGETS`` is replaced, in every
``subsetscreen`` module that holds it, by a wrapper that records a span
(name, start, end, parent span, trace id, attributes).  Nothing in the
package itself changes.  Spans stay in memory and are written out as
JSON lines when the run ends.

Simulate workloads run serially here (``--workers 1``, 100 repetitions,
first input variant only) so every repetition's spans land in this
process and ``rep_s.p90`` has at least ten samples beyond it; the process
pool is timed separately, untraced, for ``experiments.pool_efficiency``.

A layer metric whose functions the workload never calls reads 0; the
result file lists those functions under ``not_on_path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import check_call, file_digest
from workloads import make_inputs

TRACE_REPS = 100
POOL_REPS = 10
POOL_WORKERS = 2
# Starts whose final RSS is within this relative distance of the winner's
# count as having reached it.
HIT_RTOL = 1e-9

TARGETS = {
    "cli": ("cmd_screen", "cmd_simulate", "cmd_oracle", "read_matrix_csv", "read_vector_csv"),
    "numerics": ("standardize", "power_method_lambda_max", "min_norm_least_squares"),
    "simgen": (
        "gen_equicorrelated_design", "gen_response", "sylvester_hadamard",
        "kronecker_design", "load_base_design",
    ),
    "initializers": ("sis", "isis", "forward_stepwise"),
    "core": (
        "oss_step", "foss_step", "refit_subset", "run", "multi_start_foss_fs",
        "exhaustive_best_subset",
    ),
    "experiments": (
        "config_from_dict", "run_experiment", "evaluate_repetition", "run_method",
        "write_method_table", "write_repetition_records",
    ),
}
LAYERS = tuple(TARGETS)
DESIGN_SPANS = (
    "simgen.gen_equicorrelated_design", "simgen.sylvester_hadamard",
    "simgen.kronecker_design", "simgen.load_base_design",
)

PER_LAYER_UNITS = {
    "cli.read_csv_s": "s",
    "cli.write_s": "s",
    "numerics.standardize_s": "s",
    "numerics.lambda_max_s": "s",
    "numerics.lstsq_us": "us",
    "simgen.design_s": "s",
    "simgen.response_s": "s",
    "initializers.sis_s": "s",
    "initializers.isis_s": "s",
    "initializers.fs_path_s": "s",
    "initializers.fs_path_steps": "count",
    "core.oss_step_us": "us",
    "core.foss_step_us": "us",
    "core.refit_us": "us",
    "core.iterations.oss": "count",
    "core.iterations.foss": "count",
    "core.cycle_share": "ratio",
    "core.multi_start_s": "s",
    "core.multi_start_starts": "count",
    "core.multi_start_hit_ratio": "ratio",
    "core.oracle_subset_us": "us",
    "experiments.rep_s.p50": "s",
    "experiments.rep_s.p90": "s",
    "experiments.pool_efficiency": "ratio",
    "tracing.overhead_s": "s",
    "tracing.overhead_share": "ratio",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}


def _run_annotation(args, kwargs, result):
    opts = args[3] if len(args) > 3 else kwargs.get("opts")
    return {
        "algorithm": opts.algorithm if opts is not None else "foss",
        "iterations": result.iterations,
        "termination": result.termination,
        "rss": result.final_rss,
    }


ANNOTATE = {
    "numerics.min_norm_least_squares": lambda a, k, r: {"cols": int(r.shape[0])},
    "initializers.forward_stepwise": lambda a, k, r: {"steps": len(r.steps)},
    "core.run": _run_annotation,
    "core.multi_start_foss_fs": lambda a, k, r: {"rss": r.final_rss},
    "core.exhaustive_best_subset": lambda a, k, r: {
        "subsets": math.comb(a[0].p, a[1] if len(a) > 1 else k["M"])
    },
}


class Tracer:
    """In-memory span recorder; one trace id per repetition or command."""

    FIELDS = ("name", "start_s", "end_s", "parent", "trace", "attrs")

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace = "cmd"
        self.t0 = time.perf_counter()

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        per_rep = name == "experiments.evaluate_repetition"

        def wrapper(*args, **kwargs):
            saved = self.trace
            if per_rep:
                self.trace = f"rep{args[1] if len(args) > 1 else kwargs['rep_index']}"
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.trace, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter() - self.t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self.t0
                self.stack.pop()
                self.trace = saved
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Swap every target, in every package module holding it; return an undo."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "subsetscreen"]
        undo = []
        for layer, names in TARGETS.items():
            owner = sys.modules[f"subsetscreen.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))

        def restore():
            for module, attr, original in undo:
                setattr(module, attr, original)

        return restore


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, M: int):
    """Per-layer metrics and per-span self times from a finished trace."""
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += durations[i]
            children[s[3]].append(i)
    self_time = [d - c for d, c in zip(durations, child_time)]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(name):
        return [durations[i] for i in by_name[name]]

    def attr(name, key, where=lambda a: True):
        return [spans[i][5][key] for i in by_name[name] if where(spans[i][5])]

    reads = [
        i for n in ("cli.read_matrix_csv", "cli.read_vector_csv") for i in by_name[n]
        if spans[i][3] is None or not spans[spans[i][3]][0].startswith("cli.read_")
    ]
    writes = [durations[i] for n in ("experiments.write_method_table",
                                     "experiments.write_repetition_records") for i in by_name[n]]
    commands = [self_time[i] for n in ("cli.cmd_screen", "cli.cmd_simulate", "cli.cmd_oracle")
                for i in by_name[n]]
    lstsq = [durations[i] for i in by_name["numerics.min_norm_least_squares"]
             if spans[i][5]["cols"] == M] or dur("numerics.min_norm_least_squares")
    reps = dur("experiments.evaluate_repetition")
    design = sum(durations[i] for n in DESIGN_SPANS for i in by_name[n]
                 if spans[i][4].startswith("rep"))

    foss_runs = attr("core.run", "termination", lambda a: a["algorithm"] == "foss")
    starts = hits = 0
    for i in by_name["core.multi_start_foss_fs"]:
        winner = spans[i][5]["rss"]
        for c in children[i]:
            if spans[c][0] == "core.run":
                starts += 1
                hits += spans[c][5]["rss"] <= winner * (1.0 + HIT_RTOL)
    subsets = sum(attr("core.exhaustive_best_subset", "subsets"))

    metrics = {
        "cli.read_csv_s": sum((durations[i] for i in reads), 0.0),
        "cli.write_s": sum(writes) + sum(commands),
        "numerics.standardize_s": _mean(dur("numerics.standardize")),
        "numerics.lambda_max_s": _mean(dur("numerics.power_method_lambda_max")),
        "numerics.lstsq_us": 1e6 * _mean(lstsq),
        "simgen.design_s": design / len(reps) if reps else 0.0,
        "simgen.response_s": _mean(dur("simgen.gen_response")),
        "initializers.sis_s": _mean(dur("initializers.sis")),
        "initializers.isis_s": _mean(dur("initializers.isis")),
        "initializers.fs_path_s": _mean(dur("initializers.forward_stepwise")),
        "initializers.fs_path_steps": _mean(attr("initializers.forward_stepwise", "steps")),
        "core.oss_step_us": 1e6 * _mean(dur("core.oss_step")),
        "core.foss_step_us": 1e6 * _mean(dur("core.foss_step")),
        "core.refit_us": 1e6 * _mean(dur("core.refit_subset")),
        "core.iterations.oss": _mean(
            attr("core.run", "iterations", lambda a: a["algorithm"] == "oss")),
        "core.iterations.foss": _mean(
            attr("core.run", "iterations", lambda a: a["algorithm"] == "foss")),
        "core.cycle_share": (foss_runs.count("cycle") / len(foss_runs)) if foss_runs else 0.0,
        "core.multi_start_s": _mean(dur("core.multi_start_foss_fs")),
        "core.multi_start_starts": (starts / len(by_name["core.multi_start_foss_fs"])
                                    if starts else 0.0),
        "core.multi_start_hit_ratio": hits / starts if starts else 0.0,
        "core.oracle_subset_us": (1e6 * sum(dur("core.exhaustive_best_subset")) / subsets
                                  if subsets else 0.0),
        "experiments.rep_s.p50": statistics.median(reps) if reps else 0.0,
        # p90 needs at least ten samples beyond it.
        "experiments.rep_s.p90": (statistics.quantiles(reps, n=10)[8]
                                  if len(reps) >= 100 else 0.0),
    }
    span_table = {}
    for name, idx in sorted(by_name.items()):
        if not idx:
            continue
        span_table[name] = {
            "count": len(idx),
            "total_s": sum(durations[i] for i in idx),
            "self_s": sum(self_time[i] for i in idx),
        }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = sum(
            (v["self_s"] for n, v in span_table.items() if n.split(".")[0] == layer), 0.0
        )
    return metrics, span_table


def _call_cli(cli, argv):
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return time.perf_counter() - start, code


def run_traced(workload, seed: int, seconds: float, work_dir: Path, out_root: Path, src: Path):
    """Run the workload's command in process, untraced then traced.

    ``seconds`` is unused: the traced run does a fixed amount of work so
    its per-layer numbers compare across commits.
    """
    sys.path.insert(0, str(src))
    import subsetscreen
    from subsetscreen import cli, experiments

    if not Path(subsetscreen.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported subsetscreen from {subsetscreen.__file__}")

    simulate = workload.command == "simulate"
    inputs = make_inputs(workload.name, seed, work_dir,
                         repetitions=TRACE_REPS if simulate else None)[0]
    argv = list(inputs.argv)
    if simulate:
        argv[argv.index("--workers") + 1] = "1"

    attempted = failed = 0
    problems: list[str] = []

    def checked(wall_code, ref):
        nonlocal attempted, failed
        attempted += 1
        found = check_call(workload.command, wall_code[1], inputs, ref)
        if found:
            failed += 1
            problems.extend(found)
        return wall_code[0]

    # The first call in a process pays one-off costs; it runs untimed so the
    # untraced and traced calls below compare like with like.  For simulate
    # the untraced pool measurement plays that part.
    pool_efficiency = 0.0
    if simulate:
        config = experiments.config_from_dict({**inputs.config, "repetitions": POOL_REPS})
        start = time.perf_counter()
        experiments.run_experiment(config, workers=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        experiments.run_experiment(config, workers=POOL_WORKERS)
        pool_s = time.perf_counter() - start
        pool_efficiency = serial_s / (POOL_WORKERS * pool_s)
    else:
        checked(_call_cli(cli, argv), None)

    untraced_s = checked(_call_cli(cli, argv), None)
    ref = file_digest(inputs.out / "repetitions.csv") if simulate and not failed else None
    tracer = Tracer()
    restore = tracer.install()
    try:
        traced_s = checked(_call_cli(cli, argv), ref)
    finally:
        restore()

    metrics, span_table = layer_metrics(tracer.spans, inputs.M)
    metrics["experiments.pool_efficiency"] = pool_efficiency
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    metrics["tracing.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    not_on_path = [f"{layer}.{fname}" for layer, names in TARGETS.items()
                   for fname in names if f"{layer}.{fname}" not in span_table]

    out_root.mkdir(exist_ok=True)
    trace_path = out_root / f"trace-{workload.name}-seed{seed}.jsonl"
    with open(trace_path, "w") as fh:
        header = {"fields": Tracer.FIELDS, "workload": workload.name, "seed": seed,
                  "argv": argv, "untraced_s": untraced_s, "traced_s": traced_s,
                  "spans": len(tracer.spans)}
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

    print("span self time (traced run):")
    for name, row in sorted(span_table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<40} calls {row['count']:>7}  total {row['total_s']:10.4f} s"
              f"  self {row['self_s']:10.4f} s")
    detail = {
        "argv": argv,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": span_table,
        "not_on_path": not_on_path,
        "trace_file": trace_path.name,
        "problems": problems,
    }
    return attempted, failed, metrics, detail
