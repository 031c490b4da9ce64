"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[ACCEPTANCE n] ... PASS/FAIL`` line (run pytest
with ``-s`` to see them) and then asserts, so the suite both reports and
gates.
"""

import json
import time
from itertools import combinations

import numpy as np

from subsetscreen import (
    IterationOptions,
    SparseCoef,
    TrueModel,
    child_stream,
    config_from_dict,
    exhaustive_best_subset,
    foss_step,
    gen_equicorrelated_design,
    gen_response,
    oss_step,
    rss,
    run,
    run_experiment,
    standardize,
)
from subsetscreen.cli import main as cli_main

from _support import orthogonal_design, unique_solution_problem

WORKERS = 4


def report(index, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {index}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {index} failed: {detail}"


def test_criterion_1_monotonicity_suite():
    rng = np.random.default_rng(11001)
    start = time.time()
    step_violations = refit_violations = 0
    for _ in range(1000):
        n = int(rng.integers(20, 101))
        p = int(rng.integers(10, 201))
        M = int(rng.integers(1, 16))
        X = rng.standard_normal((n, p))
        signal = np.zeros(p)
        k = int(rng.integers(0, M + 1))
        if k:
            signal[rng.choice(p, size=k, replace=False)] = rng.normal(0, 2, size=k)
        y = X @ signal + rng.standard_normal(n)
        prob = standardize(X, y)
        beta = np.zeros(p)
        k_test = int(rng.integers(0, M + 1))
        if k_test:
            beta[rng.choice(p, size=k_test, replace=False)] = rng.normal(0, 2, size=k_test)
        coef = SparseCoef.from_dense(beta)
        before = rss(prob, coef)
        after_step = rss(prob, oss_step(prob, coef, M))
        after_refit = rss(prob, foss_step(prob, coef, M))
        step_violations += not (after_step <= before * (1 + 1e-9))
        refit_violations += not (after_refit <= after_step * (1 + 1e-9))
    elapsed = time.time() - start
    ok = step_violations == 0 and refit_violations == 0 and elapsed < 30.0
    report(
        1,
        "monotone step and dominated refit on 1000 instances",
        ok,
        f"(step violations {step_violations}, refit violations {refit_violations}, {elapsed:.1f}s)",
    )


def test_criterion_2_orthogonal_optimality():
    rng = np.random.default_rng(22002)
    start = time.time()
    failures = 0
    for i in range(100):
        p = int(rng.integers(4, 13))
        n = int(rng.integers(p + 5, 40))
        M = int(rng.integers(1, min(p, 4) + 1))
        X = orthogonal_design(int(rng.integers(0, 2**31)), n=n, p=p)
        y = rng.standard_normal(n)
        prob = standardize(X, y)
        one_step = rss(prob, oss_step(prob, SparseCoef.zeros(p), M))
        oracle = exhaustive_best_subset(prob, M).final_rss
        failures += not (one_step <= oracle * (1 + 1e-10))
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 10.0
    report(
        2,
        "one step from zero attains the exhaustive optimum on 100 orthogonal designs",
        ok,
        f"(failures {failures}, {elapsed:.1f}s)",
    )


def test_criterion_3_fixed_point_and_local_convergence():
    start = time.time()
    fixed_ok = local_ok = 0
    total = 50
    for seed in range(total):
        prob, M = unique_solution_problem(7000 + seed)
        star = exhaustive_best_subset(prob, M).coef
        stepped = oss_step(prob, star, M)
        fixed_ok += bool(
            np.array_equal(stepped.active, star.active)
            and np.allclose(stepped.beta, star.beta, rtol=0, atol=1e-10)
        )
        perturbed = star.beta.copy()
        perturbed[star.active] += 1e-3
        res = run(
            prob,
            SparseCoef.from_dense(perturbed),
            M,
            IterationOptions("oss", rel_tol=0.0, max_iter=200),
        )
        local_ok += bool(
            np.array_equal(res.coef.active, star.active)
            and np.max(np.abs(res.coef.beta - star.beta)) <= 1e-8
        )
    elapsed = time.time() - start
    ok = fixed_ok == total and local_ok >= 49 and elapsed < 20.0
    report(
        3,
        "optimum is a fixed point and attracts 1e-3 perturbations",
        ok,
        f"(fixed {fixed_ok}/{total}, local {local_ok}/{total}, {elapsed:.1f}s)",
    )


def test_criterion_4_better_fitting_better_screening_desk_check():
    n, p, d, M, sigma = 200, 10, 2, 3, 1.0
    seed, reps = 20240, 200
    start = time.time()
    hits = 0
    support = set(range(d))
    for rep in range(reps):
        X = gen_equicorrelated_design(n, p, 0.0, child_stream(seed, rep, "design"))
        beta = np.zeros(p)
        beta[:d] = 1.0
        tm = TrueModel(support=np.arange(d), beta=beta, sigma=sigma)
        y = gen_response(X, tm, child_stream(seed, rep, "response"))
        prob = standardize(X, y)
        worst_covering = -np.inf
        best_noncovering = np.inf
        for subset in combinations(range(p), M):
            idx = list(subset)
            coefs, *_ = np.linalg.lstsq(prob.X[:, idx], prob.y, rcond=None)
            resid = prob.y - prob.X[:, idx] @ coefs
            value = float(resid @ resid)
            if support <= set(subset):
                worst_covering = max(worst_covering, value)
            else:
                best_noncovering = min(best_noncovering, value)
        hits += worst_covering < best_noncovering
    elapsed = time.time() - start
    rate = hits / reps
    ok = rate >= 0.95 and elapsed < 60.0
    report(
        4,
        "covering subsets fit better than non-covering ones",
        ok,
        f"(event rate {rate:.3f} over {reps} repetitions, {elapsed:.1f}s)",
    )


def test_criterion_5_large_cell_coverage_and_objective_ordering():
    config = config_from_dict(
        {
            "n": 200, "p": 500, "d": 10, "rho": 0.0, "sigma": 1.0,
            "beta_value": 3.0, "M": 30, "repetitions": 100,
            "methods": ["sis", "foss-sis", "fs", "foss-fs"], "seed": 501,
        }
    )
    start = time.time()
    result = run_experiment(config, workers=WORKERS)
    elapsed = time.time() - start
    table = result.table
    per_rep = {}
    for record in result.records:
        per_rep.setdefault(record.rep, {})[record.method] = record.rss
    violations = sum(
        1
        for rep_rss in per_rep.values()
        if rep_rss["foss-sis"] > rep_rss["sis"] * (1 + 1e-9)
        or rep_rss["foss-fs"] > rep_rss["fs"] * (1 + 1e-9)
    )
    checks = {
        "fs cr": table.row("fs").cr >= 0.95,
        "foss-sis cr": table.row("foss-sis").cr >= 0.95,
        "sis cr": 0.80 <= table.row("sis").cr <= 1.0,
        "ao foss-sis<=sis": table.row("foss-sis").ao <= table.row("sis").ao,
        "ao foss-fs<=fs": table.row("foss-fs").ao <= table.row("fs").ao,
        "per-rep inequality": violations == 0,
        "runtime": elapsed < 900.0,
    }
    detail = (
        f"(fs cr {table.row('fs').cr:.2f}, foss-sis cr {table.row('foss-sis').cr:.2f}, "
        f"sis cr {table.row('sis').cr:.2f}, violations {violations}, {elapsed:.0f}s)"
    )
    failed = [name for name, good in checks.items() if not good]
    report(5, "coverage and objective ordering in the 200x500, d=10 cell", not failed,
           detail + (f" failed: {failed}" if failed else ""))


def test_criterion_6_hard_cell_coverage_gap():
    config = config_from_dict(
        {
            "n": 200, "p": 500, "d": 20, "rho": 0.0, "sigma": 1.0,
            "beta_value": 3.0, "M": 30, "repetitions": 100,
            "methods": ["sis", "foss-sis"], "seed": 601,
        }
    )
    start = time.time()
    result = run_experiment(config, workers=WORKERS)
    elapsed = time.time() - start
    gap = result.table.row("foss-sis").cr - result.table.row("sis").cr
    ok = gap >= 0.8 and elapsed < 1200.0
    report(
        6,
        "refit iteration rescues marginal screening in the d=20 cell",
        ok,
        f"(cr gap {gap:.2f}, sis {result.table.row('sis').cr:.3f} -> "
        f"foss-sis {result.table.row('foss-sis').cr:.3f}, {elapsed:.0f}s)",
    )


def test_criterion_7_two_level_design_harness_runs(tmp_path):
    # The published base design is external data; a synthetic +-1 matrix
    # of the same shape exercises the full pipeline.  Values are not
    # gated, only completion and well-formed output.
    rng = np.random.default_rng(70707)
    base_path = tmp_path / "base12x66.csv"
    np.savetxt(base_path, rng.choice([-1.0, 1.0], size=(12, 66)), delimiter=",", fmt="%.0f")
    start = time.time()
    shapes = {}
    for order in (2, 4):
        config = config_from_dict(
            {
                "d": 5, "sigma": 1.0, "beta_value": 1.0, "M": 10,
                "repetitions": 3, "methods": ["sis", "foss-sis", "fs", "foss-fs"],
                "seed": 808,
                "design": {
                    "kind": "kronecker",
                    "base_design_path": str(base_path),
                    "hadamard_order": order,
                },
            }
        )
        shapes[order] = (config.model.n, config.model.p)
        result = run_experiment(config)
        assert len(result.records) == 3 * 4
        for row in result.table.rows:
            assert 0.0 <= row.cr <= 1.0 and np.isfinite(row.ao) and row.ao >= 0.0
    elapsed = time.time() - start
    ok = shapes == {2: (24, 132), 4: (48, 264)}
    report(
        7,
        "two-level Kronecker configurations run to completion (not value-gated)",
        ok,
        f"(shapes {shapes}, {elapsed:.1f}s)",
    )


def test_criterion_8_simulate_replay_is_byte_identical(tmp_path):
    raw = {
        "n": 40, "p": 20, "d": 3, "rho": 0.3, "sigma": 1.0, "beta_value": 3.0,
        "M": 6, "repetitions": 6, "methods": ["sis", "foss-sis", "fs", "foss-fs"],
        "seed": 31415,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    first = tmp_path / "first"
    replay = tmp_path / "replay"
    assert cli_main(["simulate", str(config_path), "--out", str(first), "--workers", "1"]) == 0
    manifest = first / "manifest.json"
    assert cli_main(["simulate", str(manifest), "--out", str(replay), "--workers", "3"]) == 0
    identical = (first / "repetitions.csv").read_bytes() == (replay / "repetitions.csv").read_bytes()
    report(
        8,
        "manifest replay reproduces per-repetition records byte for byte at any worker count",
        identical,
        "",
    )
