"""Self-test of the benchmark's output checks.

Runs each command once on small seeded inputs, confirms the matching
checker passes on the real output, then feeds it corrupted copies (a
flipped index, a changed RSS, a non-zero exit code) and confirms each one
is counted as a failure.  Exits 0 when every case behaves as expected.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from checks import check_call, file_digest
from run import SRC, WORK_ROOT, timed_call
from workloads import _csv_inputs, _rng, _sparse_gaussian, make_inputs


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _rewrite_rows(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _flip_selected(data: dict, p: int) -> None:
    old = data["selected"][0]
    new = next(j for j in range(1, p + 1) if j not in data["selected"])
    data["selected"][0] = new
    for coef in data.get("coefficients", []):
        if coef["index"] == old:
            coef["index"] = new


def _raise_iterated_rss(rows) -> None:
    base = next(r for r in rows if r["method"] == "fs" and r["rep"] == "0")
    target = next(r for r in rows if r["method"] == "foss-fs" and r["rep"] == "0")
    target["rss"] = repr(float(base["rss"]) * 1.01)


def _flip_rep_index(rows) -> None:
    row = rows[0]
    picked = [int(t) for t in row["selected_indices"].split(";")]
    new = next(j for j in range(1, 10_000) if j not in picked)
    row["selected_indices"] = ";".join(str(j) for j in [new, *picked[1:]])


def main() -> int:
    if not (SRC / "subsetscreen" / "cli.py").is_file():
        print(f"error: no subsetscreen sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    cases = []

    def case(label, command, returncode, inputs, ref, expect_fail):
        problems = check_call(command, returncode, inputs, ref)
        ok = bool(problems) == expect_fail
        cases.append(ok)
        verdict = "counted as failure" if problems else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    try:
        sim = make_inputs("mc-fixed-design", 5, work / "simulate", repetitions=2)[0]
        rc = timed_call(sim.argv, sim.out.parent, sim.out.parent / "log")["returncode"]
        case("simulate, real output", "simulate", rc, sim, None, False)
        reps = sim.out / "repetitions.csv"
        digest = file_digest(reps)
        original = reps.read_bytes()
        case("simulate, non-zero exit", "simulate", 1, sim, digest, True)
        _rewrite_rows(reps, _flip_rep_index)
        case("simulate, flipped index", "simulate", rc, sim, digest, True)
        reps.write_bytes(original)
        _rewrite_rows(reps, _raise_iterated_rss)
        case("simulate, changed rss", "simulate", rc, sim, None, True)

        for command, shape, M in (("screen", (50, 40), 5), ("oracle", (30, 10), 3)):
            X, y = _sparse_gaussian(_rng(5, 9), *shape, 3, 1.0, 1.0)
            extra = ["--method", "foss-fs"] if command == "screen" else []
            (work / command).mkdir(parents=True)
            inputs = _csv_inputs(work / command, command, X, y, M, extra)
            rc = timed_call(inputs.argv, inputs.out.parent, inputs.out.parent / "log")["returncode"]
            case(f"{command}, real output", command, rc, inputs, None, False)
            original = inputs.out.read_bytes()
            case(f"{command}, non-zero exit", command, 1, inputs, None, True)
            _rewrite_json(inputs.out, lambda d: _flip_selected(d, shape[1]))
            case(f"{command}, flipped index", command, rc, inputs, None, True)
            inputs.out.write_bytes(original)
            _rewrite_json(inputs.out, lambda d: d.update(rss=d["rss"] * 1.01))
            case(f"{command}, changed rss", command, rc, inputs, None, True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{sum(cases)}/{len(cases)} cases as expected")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
