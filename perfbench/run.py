"""Benchmark of the ``subsetscreen`` command line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each call of the workload's command is a fresh
subprocess, timed end to end with tracing off; calls repeat until
``--seconds`` have passed; ``setup_s`` is the median wall time of
``subsetscreen --version`` (interpreter start plus package import).  The
output checks are in ``checks.py`` and ``selftest.py`` feeds them
corrupted outputs.  With ``--trace 1`` the same command runs once
in this process with spans around every public layer function (see
``trace_layers.py``) and the per-layer metrics are reported instead.

The BLAS thread variables are passed through exactly as inherited, and
recorded.  Inputs come only from ``--seed``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment block,
is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from checks import check_call, file_digest
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CALLS = 7
MIN_CALLS = 3
CALL_TIMEOUT_S = 150.0

UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment() -> dict:
    """Numeric environment of this run, recorded in every result file."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "git_commit": commit,
    }


def cli_env() -> dict:
    """Inherited environment with only PYTHONPATH pointed at this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_call(argv, cwd: Path, log_path: Path) -> dict:
    """Run ``subsetscreen <argv>`` as a fresh process and measure it.

    CPU time is the change in RUSAGE_CHILDREN, which covers the whole
    process tree once every descendant is reaped; peak RSS is the largest
    resident set of any process in that tree, as wait4 reports it.
    """
    cmd = [sys.executable, "-m", "subsetscreen.cli", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=cli_env(), stdout=log, stderr=log)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def clear_output(path: Path) -> None:
    """Remove a previous call's output so a check never reads stale files."""
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_untraced(workload, seed: int, seconds: float, work_dir: Path):
    """Time fresh CLI processes until ``seconds`` have passed.

    Calls cycle through the workload's input variants and stop only after
    a whole cycle, so every variant weighs the same in the medians.
    """
    variants = make_inputs(workload.name, seed, work_dir)
    log = work_dir / "call.log"
    attempted = failed = 0
    problems: list[str] = []

    setup = []
    for _ in range(SETUP_CALLS):
        call = timed_call(["--version"], work_dir, log)
        attempted += 1
        if call["returncode"] != 0 or not log.read_text().strip():
            failed += 1
            problems.append(f"--version: exit code {call['returncode']}")
        setup.append(call["wall_s"])

    calls = []
    ref_digests: dict[int, str] = {}
    deadline = time.perf_counter() + seconds
    while (len(calls) < MIN_CALLS or time.perf_counter() < deadline
           or len(calls) % len(variants)):
        k = len(calls) % len(variants)
        inputs = variants[k]
        clear_output(inputs.out)
        call = timed_call(inputs.argv, work_dir, log)
        found = check_call(workload.command, call["returncode"], inputs, ref_digests.get(k))
        if workload.command == "simulate" and not found and k not in ref_digests:
            ref_digests[k] = file_digest(inputs.out / "repetitions.csv")
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
        call["work_per_s"] = inputs.work / call["wall_s"]
        calls.append(call)

    samples = {name: [c[name] for c in calls] for name in UNITS if name != "setup_s"}
    samples["setup_s"] = setup
    metrics = {
        name: {"value": statistics.median(values), "unit": UNITS[name]}
        for name, values in samples.items()
    }
    detail = {
        "calls": len(calls),
        "work_per_call": variants[0].work,
        "work_unit": workload.work_unit,
        "argv": [v.argv for v in variants],
        "samples": samples,
        "quartiles": {name: quartiles(values) for name, values in samples.items()},
        "problems": problems,
    }
    return attempted, failed, metrics, detail


def print_table(workload, attempted, failed, metrics, detail) -> None:
    label = {"work_per_s": f"{workload.work_unit}_per_s"}
    print(f"workload {workload.name}: {attempted} operations, {failed} failed, "
          f"error_rate {failed / attempted:.4g} (ratio)")
    for name, metric in metrics.items():
        q = detail.get("quartiles", {}).get(name)
        n = len(detail.get("samples", {}).get(name, [])) or 1
        spread = f"  q1 {q[0]:.6g}  q3 {q[1]:.6g}  n {n}" if q else ""
        print(f"  {label.get(name, name):<34} {metric['value']:>14.6g} {metric['unit']:<6}{spread}")
    for problem in detail.get("problems", [])[:20]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running call is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "subsetscreen" / "cli.py").is_file():
        print(f"error: no subsetscreen sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    env = environment()
    try:
        if args.trace:
            from trace_layers import run_traced

            attempted, failed, metrics, detail = run_traced(
                workload, args.seed, args.seconds, work_dir, OUT_ROOT, SRC
            )
        else:
            attempted, failed, metrics, detail = run_untraced(
                workload, args.seed, args.seconds, work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    OUT_ROOT.mkdir(exist_ok=True)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "layer_map": workload.layer_map,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }
    result_path = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print_table(workload, attempted, failed, metrics, detail)
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
