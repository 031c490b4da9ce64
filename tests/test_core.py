import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from subsetscreen import (
    EnumerationCapError,
    IterationOptions,
    SparseCoef,
    TERM_CONVERGED,
    TERM_CYCLE,
    TERM_MAX_ITER,
    exhaustive_best_subset,
    foss_step,
    hard_threshold,
    min_norm_least_squares,
    multi_start_foss_fs,
    multi_start_window,
    oss_step,
    refit_subset,
    rss,
    run,
    sis,
    forward_stepwise,
    kronecker_design,
    standardize,
    sylvester_hadamard,
)
from subsetscreen import core

from _support import (
    assert_same_oracle,
    count_min_norm_calls,
    exact_rss,
    jacobi_max_eigenvalue,
    orthogonal_design,
    plain_multi_start,
    random_problem,
    reference_hard_threshold,
    reference_oss_step,
    reference_refit,
    reference_run,
    unique_solution_problem,
)


class TestRss:
    def test_zero_coefficients(self):
        prob = random_problem(10)
        zero = SparseCoef.zeros(prob.p)
        assert rss(prob, zero) == pytest.approx(float(prob.y @ prob.y))

    def test_exact_fit(self):
        prob = random_problem(11)
        beta = np.zeros(prob.p)
        beta[0] = 1.0
        y = prob.X @ beta
        exact = standardize(prob.X, y)
        assert rss(exact, SparseCoef.from_dense(beta)) <= 1e-20

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(12)
        prob = standardize(rng.standard_normal((10, 4)), rng.standard_normal(10))
        beta = np.array([0.5, 0.0, -1.2, 0.0])
        coef = SparseCoef.from_dense(beta)
        naive = float(np.sum((prob.y - prob.X @ beta) ** 2))
        assert rss(prob, coef) == pytest.approx(naive, rel=1e-12)


class TestHardThreshold:
    def test_basic(self):
        np.testing.assert_array_equal(
            hard_threshold(np.array([3.0, -1.0, 2.0]), 2), [3.0, 0.0, 2.0]
        )

    def test_m_at_least_p_is_identity(self):
        x = np.array([0.1, -0.2, 0.0])
        np.testing.assert_array_equal(hard_threshold(x, 3), x)
        np.testing.assert_array_equal(hard_threshold(x, 10), x)

    def test_tie_keeps_smaller_index(self):
        np.testing.assert_array_equal(hard_threshold(np.array([1.0, -1.0]), 1), [1.0, 0.0])

    def test_m_zero(self):
        np.testing.assert_array_equal(hard_threshold(np.array([1.0, 2.0]), 0), [0.0, 0.0])

    def test_negative_m_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hard_threshold(np.array([1.0, 2.0]), -1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stable_argsort_on_ties(self, seed):
        # Few distinct magnitudes, both signs, zeros of both signs: most
        # cuts fall inside a run of tied entries.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 60))
        x = rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], size=p)
        if seed % 2:
            x *= rng.choice([1.0, 1.0 + 2.0**-52], size=p)  # ties one ulp apart
        for M in sorted({0, 1, max(p - 1, 0), p, *rng.integers(0, p + 1, size=8).tolist()}):
            got, ref = hard_threshold(x, M), reference_hard_threshold(x, M)
            assert got.tobytes() == ref.tobytes()
            assert np.count_nonzero(hard_threshold(np.abs(x) + 1.0, M)) == M


class TestSteps:
    def test_orthogonal_one_step_is_global(self):
        X = orthogonal_design(13, n=24, p=8)
        rng = np.random.default_rng(14)
        prob = standardize(X, rng.standard_normal(24))
        M = 3
        stepped = oss_step(prob, SparseCoef.zeros(8), M)
        expected = hard_threshold(prob.X.T @ prob.y, M) / prob.c
        np.testing.assert_allclose(stepped.beta, expected, atol=1e-14)
        oracle = exhaustive_best_subset(prob, M)
        assert rss(prob, stepped) == pytest.approx(oracle.final_rss, rel=1e-10)

    def test_zero_response_stays_zero(self):
        rng = np.random.default_rng(15)
        prob = standardize(rng.standard_normal((12, 5)), np.zeros(12))
        stepped = oss_step(prob, SparseCoef.zeros(5), 2)
        np.testing.assert_array_equal(stepped.beta, np.zeros(5))

    def test_optimum_is_fixed_point(self):
        prob, M = unique_solution_problem(7003)
        star = exhaustive_best_subset(prob, M).coef
        stepped = oss_step(prob, star, M)
        np.testing.assert_array_equal(stepped.active, star.active)
        np.testing.assert_allclose(stepped.beta, star.beta, atol=1e-10)

    def test_monotone_and_dominated(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(15, 40))
            p = int(rng.integers(5, 30))
            M = int(rng.integers(1, 8))
            prob = standardize(rng.standard_normal((n, p)), rng.standard_normal(n))
            beta = np.zeros(p)
            k = int(rng.integers(0, M + 1))
            if k:
                beta[rng.choice(p, size=k, replace=False)] = rng.normal(0, 2, size=k)
            coef = SparseCoef.from_dense(beta)
            before = rss(prob, coef)
            after_step = rss(prob, oss_step(prob, coef, M))
            after_refit = rss(prob, foss_step(prob, coef, M))
            assert after_step <= before * (1 + 1e-9)
            assert after_refit <= after_step * (1 + 1e-9)

    def test_refit_matches_plain_step_on_orthogonal_design(self):
        X = orthogonal_design(17, n=30, p=6)
        rng = np.random.default_rng(18)
        prob = standardize(X, rng.standard_normal(30))
        zero = SparseCoef.zeros(6)
        stepped = oss_step(prob, zero, 2)
        refit = foss_step(prob, zero, 2)
        np.testing.assert_array_equal(stepped.active, refit.active)
        np.testing.assert_allclose(stepped.beta, refit.beta, rtol=1e-6)

    def test_refit_residual_orthogonal_to_selection(self):
        rng = np.random.default_rng(19)
        prob = standardize(rng.standard_normal((50, 20)), rng.standard_normal(50))
        refit = foss_step(prob, SparseCoef.zeros(20), 6)
        resid = prob.y - prob.X @ refit.beta
        scale = np.linalg.norm(prob.y) * np.sqrt(prob.n)
        assert np.max(np.abs(prob.X[:, refit.active].T @ resid)) <= 1e-8 * scale

    def test_spectral_constant_sees_a_direction_orthogonal_to_ones(self):
        # Columns a, -a, a, -a, b, c of mutually orthogonal +-1 vectors:
        # X'X has lambda_max = 32 along (1, -1, 1, -1, 0, 0), which is
        # orthogonal to the all-ones vector, so power iteration from the
        # ones vector settles on 8.  A constant below lambda_max lets one
        # step from zero overshoot and raise the RSS from 8 to 72.
        H = sylvester_hadamard(8)
        a, b, c = H[:, 1], H[:, 2], H[:, 3]
        X = np.column_stack([a, -a, a, -a, b, c])
        prob = standardize(X, a)
        assert prob.c >= jacobi_max_eigenvalue(prob.X.T @ prob.X)
        zero = SparseCoef.zeros(6)
        assert rss(prob, oss_step(prob, zero, 4)) <= rss(prob, zero)

    def test_degenerate_columns_never_selected(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 5))
        X[:, 2] = 4.0
        prob = standardize(X, rng.standard_normal(20))
        beta = np.zeros(5)
        beta[2] = 9.0  # junk weight on the constant column
        stepped = oss_step(prob, SparseCoef.from_dense(beta), 2)
        assert 2 not in stepped.active


def _near_collinear_refit_case(seed, rho):
    # The last column leaves a fraction of about rho of its norm outside
    # the span of two others, so the set's triangular factor has a
    # relative pivot of about rho.
    rng = np.random.default_rng(seed)
    n, k = (40, 6) if seed % 2 else (96, 10)
    X = rng.standard_normal((n, k + 3))
    mixed = X[:, :2] @ rng.standard_normal(2)
    X[:, k] = mixed + rho * np.linalg.norm(mixed) / np.sqrt(n) * rng.standard_normal(n)
    y = X[:, :3] @ rng.standard_normal(3) + rng.uniform(0.1, 3.0) * rng.standard_normal(n)
    return standardize(X, y), np.arange(k + 1)


def _kahan_refit_case(c, p=10):
    # Kahan's triangular factor behind orthonormal columns: every pivot
    # stays above FACTOR_SOLVE_RTOL while the condition number reaches
    # 1e7, far beyond what the smallest pivot shows.
    rng = np.random.default_rng(48)
    s = np.sqrt(1.0 - c * c) ** np.arange(p)
    R = np.diag(s) - c * np.triu(np.ones((p, p)), 1) * s[:, None]
    Q, _ = np.linalg.qr(rng.standard_normal((40, p)))
    return standardize(Q @ R, rng.standard_normal(40)), np.arange(p)


# Near-collinear sets with relative pivots spread log-uniformly over
# [FACTOR_SOLVE_RTOL, 1], and Kahan sets.
REFIT_CASES = {
    **{
        f"near-collinear-{seed:02d}": partial(
            _near_collinear_refit_case,
            seed,
            10.0 ** (np.log10(core.FACTOR_SOLVE_RTOL) * (seed + 0.5) / 24),
        )
        for seed in range(24)
    },
    **{f"kahan-{c}": partial(_kahan_refit_case, c) for c in (0.9, 0.911, 0.922, 0.933, 0.944, 0.955)},
}


class TestStepEngine:
    """The partition step and the refit against their stable-argsort
    and complete-orthogonal-factorization references."""

    @pytest.mark.parametrize("case", ["random", "kronecker"])
    def test_step_matches_reference_step(self, case):
        if case == "random":
            prob, M = random_problem(22, n=50, p=80, d=4), 6
        else:
            prob, M = _kronecker_problem(22)
        coef = SparseCoef.zeros(prob.p)
        for _ in range(30):
            got, ref = oss_step(prob, coef, M), reference_oss_step(prob, coef, M)
            assert got.beta.tobytes() == ref.beta.tobytes()
            coef = ref

    @pytest.mark.parametrize("case", sorted(REFIT_CASES))
    def test_refit_matches_qr(self, case):
        prob, active = REFIT_CASES[case]()
        got = refit_subset(prob, active)
        ref = reference_refit(prob, active)
        np.testing.assert_array_equal(got.active, ref.active)
        assert np.abs(got.beta - ref.beta).max() <= 1e-8 * np.abs(ref.beta).max()
        # Compared exactly: forming either residual in floating point
        # rounds by more than 1e-12 of the RSS on the worst of these sets.
        exact_got, exact_ref = exact_rss(prob, got), exact_rss(prob, ref)
        assert abs(exact_got - exact_ref) <= 1e-12 * exact_ref


def _active_stabilization(problem, coef, M, step, cap=400):
    actives = []
    for _ in range(cap):
        coef = step(problem, coef, M)
        actives.append(tuple(coef.active))
    last_change = 0
    for k, active in enumerate(actives, start=1):
        if active != actives[-1]:
            last_change = k
    return last_change + 1, actives[-1]


class TestDrivers:
    def test_refit_driver_stabilizes_much_faster(self):
        # Seeded correlated instance where the plain step needs >= 40
        # iterations to settle on its final active set while the refit
        # step reaches the same set within 10.
        rng = np.random.default_rng(1022)
        n, p, d, M, rho = 40, 60, 8, 10, 0.3
        shared = rng.standard_normal(n)
        X = np.sqrt(rho) * shared[:, None] + np.sqrt(1 - rho) * rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:d] = 2.0
        y = X @ beta + rng.standard_normal(n)
        prob = standardize(X, y)
        init = sis(prob, M)
        it_plain, set_plain = _active_stabilization(prob, init, M, oss_step)
        it_refit, set_refit = _active_stabilization(prob, init, M, foss_step)
        assert it_plain >= 40
        assert it_refit <= 10
        assert set_plain == set_refit

    def test_fixed_point_terminates_after_one_check(self):
        prob, M = unique_solution_problem(7005)
        star = exhaustive_best_subset(prob, M).coef
        res = run(prob, star, M, IterationOptions("oss"))
        assert res.termination == TERM_CONVERGED
        assert res.iterations == 1
        np.testing.assert_array_equal(res.coef.active, star.active)
        np.testing.assert_allclose(res.coef.beta, star.beta, atol=1e-10)

    def test_final_rss_sandwich(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 8))
        beta = np.zeros(8)
        beta[:3] = [2.0, -1.5, 1.0]
        y = X @ beta + 0.8 * rng.standard_normal(40)
        prob = standardize(X, y)
        M = 3
        init = sis(prob, M)
        res = run(prob, init, M, IterationOptions("foss"))
        assert res.final_rss <= rss(prob, init) * (1 + 1e-9)
        assert res.final_rss >= exhaustive_best_subset(prob, M).final_rss * (1 - 1e-12)

    def test_local_convergence_from_perturbed_optimum(self):
        prob, M = unique_solution_problem(7007)
        star = exhaustive_best_subset(prob, M).coef
        perturbed = star.beta.copy()
        perturbed[star.active] += 1e-3
        res = run(prob, SparseCoef.from_dense(perturbed), M, IterationOptions("oss", 0.0, 200))
        np.testing.assert_array_equal(res.coef.active, star.active)
        assert np.max(np.abs(res.coef.beta - star.beta)) <= 1e-8

    def test_trace_non_increasing_even_from_dense_start(self):
        rng = np.random.default_rng(22)
        for seed in range(20):
            prob = random_problem(300 + seed, n=30, p=12, d=3)
            M = 4
            dense = SparseCoef.from_dense(rng.normal(0, 1, size=12))
            for algorithm in ("oss", "foss"):
                res = run(prob, dense, M, IterationOptions(algorithm))
                trace = res.rss_trace
                assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-9))

    @pytest.mark.parametrize("algorithm", ["foss", "oss"])
    def test_infeasible_start_excluded_from_trace(self, algorithm):
        prob = random_problem(23, n=30, p=10, d=3)
        dense = SparseCoef.from_dense(np.ones(10))
        res = run(prob, dense, 2, IterationOptions(algorithm))
        # one trace entry per produced iterate; the over-budget start is
        # not recorded (its objective is not comparable to thresholded ones)
        assert len(res.rss_trace) == res.iterations
        feasible = SparseCoef.zeros(10)
        res_feasible = run(prob, feasible, 2, IterationOptions(algorithm))
        assert len(res_feasible.rss_trace) == res_feasible.iterations + 1

    def test_bitwise_determinism(self):
        prob = random_problem(24, n=35, p=15, d=4)
        init = sis(prob, 5)
        first = run(prob, init, 5, IterationOptions("foss"))
        second = run(prob, init, 5, IterationOptions("foss"))
        assert np.array_equal(first.coef.beta, second.coef.beta)
        assert np.array_equal(first.rss_trace, second.rss_trace)
        assert first.termination == second.termination
        assert first.iterations == second.iterations

    @pytest.mark.parametrize("algorithm", ["oss", "foss"])
    def test_rejects_an_empty_budget(self, algorithm):
        prob = random_problem(26, n=20, p=5, d=2)
        with pytest.raises(ValueError, match="M must be at least 1"):
            run(prob, SparseCoef.zeros(5), 0, IterationOptions(algorithm))

    def test_rejects_bad_options(self):
        with pytest.raises(ValueError):
            IterationOptions("newton")
        with pytest.raises(ValueError):
            IterationOptions("oss", rel_tol=-1.0)
        with pytest.raises(ValueError):
            IterationOptions("oss", max_iter=0)
        for rel_tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                IterationOptions("foss", rel_tol=rel_tol)


class TestMultiStart:
    def test_window_collapses_for_small_p(self):
        assert multi_start_window(n=40, p=8, M=3) == (3, 3)

    def test_window_clamps(self):
        assert multi_start_window(n=200, p=500, M=30) == (1, 80)
        assert multi_start_window(n=50, p=50, M=30) == (25, 35)

    def test_single_start_equals_plain_run(self):
        prob = random_problem(25, n=40, p=8, d=3)
        M = 3
        path = forward_stepwise(prob, M)
        multi = multi_start_foss_fs(prob, M, path)
        single = run(prob, path.coef_at(M), M, IterationOptions("foss"))
        assert np.array_equal(multi.coef.beta, single.coef.beta)
        assert multi.final_rss == single.final_rss

    def test_never_worse_than_stepwise_refit(self):
        # small-sample hard cell: many signals relative to the budget
        for rep in range(20):
            rng = np.random.default_rng(2600 + rep)
            n, p, d, M = 50, 50, 20, 20
            X = rng.standard_normal((n, p))
            beta = np.zeros(p)
            beta[:d] = 3.0
            y = X @ beta + rng.standard_normal(n)
            prob = standardize(X, y)
            lo, hi = multi_start_window(n, p, M)
            path = forward_stepwise(prob, min(hi, min(n - 1, p)))
            fs_rss = rss(prob, path.coef_at(M))
            multi = multi_start_foss_fs(prob, M, path)
            assert multi.final_rss <= fs_rss * (1 + 1e-9)

    def test_rejects_plain_algorithm(self):
        prob = random_problem(27, n=30, p=8, d=2)
        path = forward_stepwise(prob, 3)
        with pytest.raises(ValueError):
            multi_start_foss_fs(prob, 3, path, IterationOptions("oss"))


def _kronecker_problem(seed):
    # 96 x 528: an order-8 Hadamard matrix times a random 12 x 66 +-1 base.
    rng = np.random.default_rng(seed)
    X = kronecker_design(sylvester_hadamard(8), rng.choice([-1.0, 1.0], size=(12, 66)))
    beta = np.zeros(X.shape[1])
    beta[:2] = 1.0
    return standardize(X, X @ beta + 0.5 * rng.standard_normal(X.shape[0])), 10


def _duplicated_problem(seed):
    # Column 4 carries the weakest signal and appears three times (4, 18,
    # 19); a restart that thresholds onto two copies refits a
    # rank-deficient set.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, 18))
    X = np.hstack([base, base[:, [4]], base[:, [4]]])
    y = base[:, :5] @ np.array([3.0, -2.5, 2.0, 1.5, 1.0]) + rng.standard_normal(40)
    return standardize(X, y), 6


MULTI_START_CASES = {
    "random": lambda: (random_problem(28, n=50, p=60, d=5), 6),
    "duplicated": lambda: _duplicated_problem(30),
    "kronecker": lambda: _kronecker_problem(30),
}


class TestMultiStartMatchesPlainRestarts:
    @pytest.mark.parametrize("case", sorted(MULTI_START_CASES))
    def test_bitwise_equal_and_each_set_refit_once(self, monkeypatch, case):
        prob, M = MULTI_START_CASES[case]()
        hi = multi_start_window(prob.n, prob.p, M)[1]
        path = forward_stepwise(prob, hi)

        refit_sets = []
        refit = core.refit_subset

        def recorded(problem, active):
            refit_sets.append(tuple(int(j) for j in active))
            return refit(problem, active)

        with monkeypatch.context() as patch:
            patch.setattr(core, "refit_subset", recorded)
            ref = plain_multi_start(prob, M, path)
        plain_sets, refit_sets = refit_sets, []
        monkeypatch.setattr(core, "refit_subset", recorded)
        res = multi_start_foss_fs(prob, M, path)

        assert res.coef.beta.tobytes() == ref.coef.beta.tobytes()
        assert res.rss_trace.tobytes() == ref.rss_trace.tobytes()
        assert res.iterations == ref.iterations
        assert res.termination == ref.termination
        distinct = set(plain_sets)
        assert sorted(refit_sets) == sorted(distinct)
        assert len(distinct) < len(plain_sets)
        if case == "duplicated":
            assert any(len({4, 18, 19} & set(s)) > 1 for s in distinct)

    def test_an_empty_path_restarts_from_zero(self):
        # Every column constant: the sweep adds nothing, and the one
        # restart is the run from the zero vector.
        rng = np.random.default_rng(34)
        prob = standardize(np.tile(rng.standard_normal(6), (15, 1)), rng.standard_normal(15))
        path = forward_stepwise(prob, 4)
        assert path.order.size == 0
        assert path.coef_at(0).beta.tobytes() == np.zeros(6).tobytes()
        res = multi_start_foss_fs(prob, 3, path)
        ref = plain_multi_start(prob, 3, path)
        assert res.coef.beta.tobytes() == ref.coef.beta.tobytes() == np.zeros(6).tobytes()
        assert res.rss_trace.tobytes() == ref.rss_trace.tobytes()
        assert (res.iterations, res.termination) == (ref.iterations, ref.termination)

    @pytest.mark.parametrize("seed", range(30, 36))
    def test_iteration_count_ignores_last_ulps_of_the_starts(self, seed):
        prob, M = _kronecker_problem(seed)
        path = forward_stepwise(prob, multi_start_window(prob.n, prob.p, M)[1])
        base = multi_start_foss_fs(prob, M, path)
        # Row size - 1 of path.coefs holds the size-prefix's coefficients
        # in its first size places.
        within = np.tri(path.order.size, dtype=bool)
        for ulps in (1, 2, 3):
            nudged = replace(
                path, coefs=np.where(within, path.coefs + ulps * np.spacing(path.coefs), 0.0)
            )
            res = multi_start_foss_fs(prob, M, nudged)
            np.testing.assert_array_equal(res.coef.active, base.coef.active)
            assert res.iterations == base.iterations
            assert res.termination == base.termination


def _near_dependent_problem(seed):
    # Column 19 is column 0 plus a 1e-7 perturbation that carries signal:
    # from the step that adds the second of them, the stepwise prefixes
    # are refit by the minimum-norm solver.  M is set so that the restart
    # window [M - 2, M + 2] spans both kinds.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, 19))
    e = rng.standard_normal(40)
    X = np.hstack([base, base[:, [0]] + 1e-7 * e[:, None]])
    prob = standardize(X, base[:, :4] @ np.array([2.0, -1.5, 1.0, 0.5]) + 3.0 * e)
    return prob, forward_stepwise(prob, 12).factored + 1


def _degenerate_problem(seed):
    # Two constant columns, which standardizing flags and zeroes.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 30))
    X[:, [3, 17]] = 2.5
    y = X[:, :5] @ np.array([2.0, -2.0, 1.5, 0.0, 1.0]) + rng.standard_normal(40)
    return standardize(X, y), 5


WALK_CASES = {
    **MULTI_START_CASES,
    "near-dependent": lambda: _near_dependent_problem(31),
    "degenerate": lambda: _degenerate_problem(32),
}

# A cap of one and two steps, a tolerance at which the first step from
# a prefix within the budget often meets the stop rule against the
# prefix, and one at which runs end on a repeated set.
WALK_OPTIONS = {
    "default": IterationOptions("foss"),
    "max_iter-1": IterationOptions("foss", max_iter=1),
    "max_iter-2": IterationOptions("foss", max_iter=2),
    "rel_tol-0.5": IterationOptions("foss", rel_tol=0.5),
    "cycle": IterationOptions("foss", rel_tol=0.0),
}


def _walk_case(case):
    prob, M = WALK_CASES[case]()
    path = forward_stepwise(prob, multi_start_window(prob.n, prob.p, M)[1])
    return prob, M, path


class TestMultiStartWalksMatchPlainRestarts:
    """``multi_start_foss_fs`` walks each first set once and builds every
    restart from its walk; the restarts run one by one through
    ``reference_run`` give the same result bit for bit."""

    @pytest.mark.parametrize("option", sorted(WALK_OPTIONS))
    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_bitwise_equal(self, case, option):
        prob, M, path = _walk_case(case)
        opts = WALK_OPTIONS[option]
        res = multi_start_foss_fs(prob, M, path, opts)
        ref = plain_multi_start(prob, M, path, opts)
        assert res.coef.beta.tobytes() == ref.coef.beta.tobytes()
        assert res.rss_trace.tobytes() == ref.rss_trace.tobytes()
        assert (res.iterations, res.termination) == (ref.iterations, ref.termination)

    def test_a_prefix_tied_with_its_first_step_is_the_one_returned(self):
        # Exact ties go to the earliest iterate.  On an orthogonal design
        # the size-M prefix's set is a fixed point of the refitting step;
        # given its set's refit as coefficients plus a -0.0 outside the
        # set, the prefix ties its first step's refit in RSS but not in
        # bytes.
        prob = standardize(orthogonal_design(40), np.random.default_rng(41).standard_normal(24))
        M = 3
        assert multi_start_window(prob.n, prob.p, M) == (M, M)
        path = forward_stepwise(prob, M + 1)
        refit = refit_subset(prob, path.steps[M - 1].active)
        coefs = path.coefs.copy()
        coefs[M - 1, :M] = refit.beta[path.order[:M]]
        coefs[M - 1, M] = -0.0
        tied = replace(path, coefs=coefs)
        res = multi_start_foss_fs(prob, M, tied)
        ref = plain_multi_start(prob, M, tied)
        assert res.rss_trace.tobytes() == ref.rss_trace.tobytes()
        assert res.rss_trace[0] == res.rss_trace[1]
        assert res.coef.beta.tobytes() == ref.coef.beta.tobytes()
        assert res.coef.beta.tobytes() == tied.coef_at(M).beta.tobytes()
        assert res.coef.beta.tobytes() != refit.beta.tobytes()

    def test_the_cases_reach_every_rule(self):
        # Each rule the walks compose is met by some restart of the cases.
        met = set()
        for case in WALK_CASES:
            prob, M, path = _walk_case(case)
            lo, hi = multi_start_window(prob.n, prob.p, M)
            for size in range(lo, min(hi, len(path.steps)) + 1):
                init = path.coef_at(size)
                if size > path.factored:
                    met.add("near-dependent prefix")
                for name, opts in WALK_OPTIONS.items():
                    got = reference_run(prob, init, M, opts)
                    if init.active.size <= M and got.termination == TERM_CONVERGED:
                        if got.iterations == 1:
                            met.add(f"first step stops against the prefix at {name}")
                    if got.termination == TERM_CYCLE:
                        met.add("cycle")
                    if got.termination == TERM_MAX_ITER and got.iterations == opts.max_iter:
                        met.add(name)
            if prob.degenerate.any():
                met.add("degenerate columns")
        assert {
            "near-dependent prefix", "degenerate columns", "cycle", "max_iter-1", "max_iter-2",
            "first step stops against the prefix at rel_tol-0.5",
        } <= met


# Option sets that end the refitting runs of the cases below on each of
# the three terminations: a fixed point at the default tolerance, a
# repeated set when no decrease counts as too small, and a cap of two steps.
FOSS_ENDINGS = {
    TERM_CONVERGED: IterationOptions("foss"),
    TERM_CYCLE: IterationOptions("foss", rel_tol=0.0),
    TERM_MAX_ITER: IterationOptions("foss", max_iter=2),
}


class TestFossRunMatchesStepByStep:
    """``run``'s refitting variant, through the memoized step it shares
    with the multi-start restarts, gives the ``foss_step`` loop's answer
    bit for bit."""

    @pytest.mark.parametrize("ending", sorted(FOSS_ENDINGS))
    @pytest.mark.parametrize("case", sorted(MULTI_START_CASES))
    def test_bitwise_equal(self, case, ending):
        prob, M = MULTI_START_CASES[case]()
        opts = FOSS_ENDINGS[ending]
        path = forward_stepwise(prob, multi_start_window(prob.n, prob.p, M)[1])
        starts = [SparseCoef.zeros(prob.p), sis(prob, M)]
        starts += [path.coef_at(size) for size in range(1, len(path.steps) + 1)]
        endings = set()
        for init in starts:
            got = run(prob, init, M, opts)
            ref = reference_run(prob, init, M, opts)
            assert got.coef.beta.tobytes() == ref.coef.beta.tobytes()
            assert got.rss_trace.tobytes() == ref.rss_trace.tobytes()
            assert (got.iterations, got.termination) == (ref.iterations, ref.termination)
            endings.add(got.termination)
        assert ending in endings


class TestExhaustive:
    def test_full_model(self):
        prob = random_problem(28, n=30, p=5, d=2)
        res = exhaustive_best_subset(prob, 5)
        full = refit_subset(prob, np.arange(5))
        assert res.final_rss == pytest.approx(rss(prob, full), rel=1e-12)

    def test_beats_every_subset_independently(self):
        from itertools import combinations

        prob = random_problem(29, n=25, p=6, d=2)
        res = exhaustive_best_subset(prob, 2)
        for subset in combinations(range(6), 2):
            coefs, *_ = np.linalg.lstsq(prob.X[:, list(subset)], prob.y, rcond=None)
            resid = prob.y - prob.X[:, list(subset)] @ coefs
            assert res.final_rss <= float(resid @ resid) * (1 + 1e-12)

    def test_orthogonal_matches_marginal_ranking(self):
        X = orthogonal_design(30, n=30, p=7)
        rng = np.random.default_rng(31)
        prob = standardize(X, rng.standard_normal(30))
        res = exhaustive_best_subset(prob, 3)
        expected = np.sort(np.argsort(-np.abs(prob.X.T @ prob.y), kind="stable")[:3])
        np.testing.assert_array_equal(res.coef.active, expected)

    def test_cap(self):
        prob = random_problem(32, n=40, p=30, d=2)
        with pytest.raises(EnumerationCapError, match=r"C\(30, 10\)"):
            exhaustive_best_subset(prob, 10)

    @pytest.mark.parametrize("M", [-1, 6])
    def test_budget_outside_zero_to_p_is_rejected(self, M):
        prob = random_problem(32, n=20, p=5, d=2)
        with pytest.raises(ValueError, match=r"outside \[0, p\]"):
            exhaustive_best_subset(prob, M)

    def test_minimum_norm_refit_handles_duplicate_columns(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((20, 4))
        X[:, 3] = X[:, 0]
        y = 2.0 * X[:, 0] + 0.1 * rng.standard_normal(20)
        prob = standardize(X, y)
        res = exhaustive_best_subset(prob, 2)
        assert np.isfinite(res.final_rss)
        assert min_norm_least_squares(prob.X[:, res.coef.active], prob.y).shape[0] == res.coef.active.size


def _gaussian(seed, n=25, p=8, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = X[:, :3] @ np.array([1.5, -1.0, 0.7]) + noise * rng.standard_normal(n)
    return X, y, rng


def _near_collinear(gap):
    def build():
        X, y, rng = _gaussian(43)
        X[:, 4] = X[:, 1] + gap * rng.standard_normal(X.shape[0])
        return X, y

    return build


def _duplicated():
    X, y, _ = _gaussian(41)
    X[:, 5] = X[:, 2]
    return X, y


def _constant():
    X, y, _ = _gaussian(42)
    X[:, 3] = 4.0
    return X, y


def _two_constants():
    # Zeroed columns at the front and in the middle: the oracle must move
    # them behind the others before it factors a subset.
    X, y, _ = _gaussian(49)
    X[:, 0] = 2.0
    X[:, 5] = -1.0
    return X, y


def _integer_ties():
    rng = np.random.default_rng(44)
    X = np.round(1.5 * rng.standard_normal((20, 8)))
    return X, X[:, [0, 2, 5]].sum(axis=1) + np.round(rng.standard_normal(20))


def _sign_ties():
    # Orthogonal +-1 columns and an integer response: many subsets tie in
    # exact arithmetic, so the winner rests on the refits' rounding.
    H = np.array([[1.0]])
    while H.shape[0] < 16:
        H = np.block([[H, H], [H, -H]])
    X = H[:, 1:9]
    return X, X[:, [0, 1, 3, 4]].sum(axis=1)


def _kahan():
    # Upper-triangular Kahan factor behind orthonormal columns: the
    # smallest singular value of a prefix sits far below its smallest
    # pivot, so 1 / rho^2 understates the condition.
    rng = np.random.default_rng(48)
    p, c = 8, 0.99
    s = np.sqrt(1.0 - c * c) ** np.arange(p)
    R = np.diag(s) - c * np.triu(np.ones((p, p)), 1) * s[:, None]
    Q, _ = np.linalg.qr(rng.standard_normal((20, p)))
    return Q @ R, rng.standard_normal(20)


def _exact_fit():
    X, _, _ = _gaussian(45)
    return X, X[:, [1, 4]] @ np.array([2.0, -1.0])


def _fewer_rows_than_columns():
    X, y, _ = _gaussian(46, n=5)
    return X, y


ORACLE_CORPUS = {
    "gaussian-a": lambda: _gaussian(40)[:2],
    "gaussian-b": lambda: _gaussian(47, n=40, p=9, noise=2.0)[:2],
    "duplicated-column": _duplicated,
    "constant-column": _constant,
    "two-constant-columns": _two_constants,
    "near-collinear-1e-4": _near_collinear(1e-4),
    "near-collinear-1e-7": _near_collinear(1e-7),
    "near-collinear-1e-10": _near_collinear(1e-10),
    "rounded-integer-ties": _integer_ties,
    "sign-design-ties": _sign_ties,
    "kahan": _kahan,
    "exact-fit": _exact_fit,
    "n-below-M": _fewer_rows_than_columns,
}


class TestOracleMatchesPlainEnumeration:
    @pytest.mark.parametrize("case", sorted(ORACLE_CORPUS))
    def test_corpus(self, case):
        X, y = ORACLE_CORPUS[case]()
        prob = standardize(X, y)
        for M in range(prob.p + 1):
            assert_same_oracle(prob, M)

    @pytest.mark.parametrize("constant", [None, 8])
    def test_refits_only_contenders(self, monkeypatch, constant):
        rng = np.random.default_rng(70)
        X = rng.standard_normal((60, 30))
        if constant is not None:
            # A zeroed column must not make its subsets contenders.
            X[:, constant] = 2.5
        beta = np.zeros(30)
        beta[[3, 11, 17, 26]] = 1.0
        prob = standardize(X, X @ beta + rng.standard_normal(60))
        calls = count_min_norm_calls(monkeypatch, core)
        res = exhaustive_best_subset(prob, 4)
        assert 1 <= len(calls) <= 5
        assert tuple(res.coef.active) == (3, 11, 17, 26)

    def test_constant_response_refits_only_the_first_subset(self, monkeypatch):
        # Every subset fits a zero response exactly: the first one wins
        # with one refit (scoring every subset would refit all 38,760).
        rng = np.random.default_rng(73)
        prob = standardize(rng.standard_normal((30, 20)), np.full(30, 2.0))
        assert not prob.y.any()
        calls = count_min_norm_calls(monkeypatch, core)
        res = exhaustive_best_subset(prob, 6)
        assert calls == [6]
        assert res.coef.active.size == 0 and res.final_rss == 0.0
        assert_same_oracle(prob, 6)

    def test_duplicate_column_tie_goes_to_smallest_subset(self):
        rng = np.random.default_rng(71)
        X = rng.standard_normal((60, 30))
        X[:, 11] = X[:, 10]
        beta = np.zeros(30)
        beta[[5, 10, 20, 25]] = 1.5
        prob = standardize(X, X @ beta + rng.standard_normal(60))
        np.testing.assert_array_equal(prob.X[:, 10], prob.X[:, 11])
        res = exhaustive_best_subset(prob, 4)
        assert tuple(res.coef.active) == (5, 10, 20, 25)
        assert rss(prob, refit_subset(prob, [5, 11, 20, 25])) == res.final_rss
        assert_same_oracle(prob, 4)

    @pytest.mark.parametrize("case", ["constant", "zero", "duplicated"])
    def test_no_runtime_warning(self, case):
        X, y, _ = _gaussian(72, n=12, p=6)
        if case == "constant":
            X[:, 2] = -3.0
        elif case == "zero":
            X[:, 2] = 0.0
        else:
            X[:, 4] = X[:, 1]
        prob = standardize(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in range(prob.p + 1):
                exhaustive_best_subset(prob, M)


EPS = np.finfo(float).eps


def _slow_pair_problem(duplicate=False, degenerate=False, gamma=0.0, seed=80):
    """Columns 2 and 3 correlate at 0.98, so the oss iteration on a set
    holding both contracts by about 0.99 a step along their difference;
    from beta_2 = beta_3 = 0.5 it moves beta_3 towards 0 geometrically.
    Column 4 carries ``gamma`` of the response and nothing else, so its
    candidate stays near gamma n / c, and beta_3 falls below it late (near
    step 300 for gamma = 0.2).  ``duplicate`` makes column 1 a copy of
    column 0, so X_A'X_A is singular; ``degenerate`` makes column 7
    constant."""
    n, rho = 40, 0.98
    Q = orthogonal_design(seed, n=n, p=9)  # the last column is noise
    X = Q[:, :8].copy()
    if duplicate:
        X[:, 1] = Q[:, 0]
    X[:, 3] = rho * Q[:, 2] + np.sqrt(1.0 - rho * rho) * Q[:, 3]
    if degenerate:
        X[:, 7] = 3.0
    y = X[:, 0] + X[:, 2] + gamma * Q[:, 4] + Q[:, 5:7] @ [0.05, 0.03] + 0.3 * Q[:, 8]
    prob = standardize(X, y)
    beta = np.zeros(8)
    beta[:4] = (0.7, 0.1, 0.5, 0.5)
    return prob, SparseCoef.from_dense(beta), 4


def _one_moving_coordinate(gamma=0.0, seed=80):
    """From its start on {0, 2, 3, 5}, the oss iteration moves only
    beta_3, by a factor of about 0.99 a step towards 0 (columns 2 and 3
    correlate at 0.98); column 4 carries ``gamma`` Q_4 of the response,
    so its candidate stays at gamma x_4'Q_4 / c.  Returns the problem, the
    start and Q."""
    n, rho = 40, 0.98
    Q = orthogonal_design(seed, n=n, p=9)  # the last column is noise
    X = Q[:, :8].copy()
    X[:, 3] = rho * Q[:, 2] + np.sqrt(1.0 - rho * rho) * Q[:, 3]
    y = X[:, 0] + X[:, 2] + 0.5 * X[:, 5] + gamma * Q[:, 4] + 0.03 * Q[:, 6] + 0.3 * Q[:, 8]
    beta = np.zeros(8)
    beta[[0, 2, 3, 5]] = (1.0, 0.5, 0.5, 0.5)
    return standardize(X, y), SparseCoef.from_dense(beta), Q


def _recorded_jumps(monkeypatch):
    """Route the oss jump through a recorder of how many steps each covers."""
    lengths = []
    jump = core._OssStep._jump

    def recorded(self, *args):
        out = jump(self, *args)
        if out is not None:
            lengths.append(len(out[2]))
        return out

    monkeypatch.setattr(core._OssStep, "_jump", recorded)
    return lengths


def _recorded_jump_spans(monkeypatch, max_iter):
    """Route the oss jump through a recorder of the steps each covers,
    as (first, last) iteration numbers of a run with this ``max_iter``."""
    spans = []
    jump = core._OssStep._jump

    def recorded(self, coef, residual, gradient, budget):
        out = jump(self, coef, residual, gradient, budget)
        if out is not None:
            done = max_iter - budget
            spans.append((done + 1, done + len(out[2])))
        return out

    monkeypatch.setattr(core._OssStep, "_jump", recorded)
    return spans


def _set_changes(problem, coef, M, steps):
    """Steps at which the step-by-step iteration changes its active set."""
    changes = []
    for k in range(1, steps + 1):
        stepped = oss_step(problem, coef, M)
        if not np.array_equal(stepped.active, coef.active):
            changes.append(k)
        coef = stepped
    return changes


def _assert_matches_step_by_step(problem, init, M, opts):
    """``run`` with jumps against the step-by-step reference loop.

    Active sets, iteration counts and terminations agree exactly.  The
    objectives agree to a forward-error bound: a formed RSS is within
    about n u RSS_0 of its exact value (u the unit roundoff), and each of
    the k steps before it adds at most one more such rounding to the
    iterate, which the contraction carries on without growth, so step k
    may differ by 4 (n + k) u RSS_0.  The coefficients obey the same
    bound relative to the largest of them.
    """
    got = run(problem, init, M, opts)
    ref = reference_run(problem, init, M, opts)
    assert (got.iterations, got.termination) == (ref.iterations, ref.termination)
    np.testing.assert_array_equal(got.coef.active, ref.coef.active)
    assert got.rss_trace.shape == ref.rss_trace.shape
    k = np.arange(ref.rss_trace.size)
    bound = 4.0 * (problem.n + k) * EPS * ref.rss_trace[0]
    assert np.all(np.abs(got.rss_trace - ref.rss_trace) <= bound)
    scale = np.abs(ref.coef.beta).max()
    assert np.abs(got.coef.beta - ref.coef.beta).max() <= bound[-1] / ref.rss_trace[0] * scale
    assert np.all(np.diff(got.rss_trace) <= 0.0)
    return got, ref


class TestOssJumpMatchesStepByStep:
    """Closed-form jumps over stretches that keep the active set give the
    step-by-step loop's answer."""

    def test_rank_deficient_set(self, monkeypatch):
        prob, init, M = _slow_pair_problem(duplicate=True)
        jumps = _recorded_jumps(monkeypatch)
        got, _ = _assert_matches_step_by_step(prob, init, M, IterationOptions("oss"))
        assert got.iterations > 100 and sum(jumps) > 100
        # The null direction stays where it started: the copies keep their gap.
        assert got.coef.beta[0] - got.coef.beta[1] == pytest.approx(0.6, abs=1e-12)

    def test_late_set_change(self, monkeypatch):
        prob, init, M = _slow_pair_problem(gamma=0.2)
        changes = _set_changes(prob, init, M, 400)
        # Column 4 replaces column 1 at once, then column 3 near step 300.
        assert changes[0] == 1 and 200 <= changes[1] <= 350
        jumps = _recorded_jumps(monkeypatch)
        got, _ = _assert_matches_step_by_step(prob, init, M, IterationOptions("oss"))
        assert sum(jumps) >= 50
        assert 4 in got.coef.active and 3 not in got.coef.active

    def test_jump_ends_at_max_iter(self, monkeypatch):
        prob, init, M = _slow_pair_problem(gamma=0.2)
        jumps = _recorded_jumps(monkeypatch)
        got, _ = _assert_matches_step_by_step(
            prob, init, M, IterationOptions("oss", max_iter=60)
        )
        assert got.termination == core.TERM_MAX_ITER and got.iterations == 60
        assert sum(jumps) > 40

    def test_stop_rule_fires_inside_a_jump(self, monkeypatch):
        prob, init, M = _slow_pair_problem()
        jumps = _recorded_jumps(monkeypatch)
        opts = IterationOptions("oss", rel_tol=1e-4)
        got, _ = _assert_matches_step_by_step(prob, init, M, opts)
        assert got.termination == TERM_CONVERGED
        assert sum(jumps) > 20 and got.iterations < 250

    def test_degenerate_column_stays_zero(self, monkeypatch):
        prob, init, M = _slow_pair_problem(gamma=0.2, degenerate=True)
        assert prob.degenerate[7]
        jumps = _recorded_jumps(monkeypatch)
        got, _ = _assert_matches_step_by_step(prob, init, M, IterationOptions("oss"))
        assert sum(jumps) >= 50 and got.coef.beta[7] == 0.0

    def test_margin_within_rounding_is_left_to_the_ordinary_step(self, monkeypatch):
        # gamma is set so that at step 150 the least |beta| on the set
        # (beta_3) exceeds column 4's candidate by 1e-13: a clear margin
        # for the step-by-step loop (its rounding is near 1e-17 there) but
        # inside the jump's bound tau_k, which is at least 128 e_cand,
        # about 5e-13 here.  So no jump may cross step 150; the set
        # changes at step 151.
        tie, delta = 150, 1e-13
        prob, init, Q = _one_moving_coordinate()
        coef = init
        for _ in range(tie):
            coef = oss_step(prob, coef, 4)
        gamma = (abs(coef.beta[3]) - delta) * prob.c / (prob.X[:, 4] @ Q[:, 4])
        prob, init, _ = _one_moving_coordinate(gamma)
        assert _set_changes(prob, init, 4, tie + 1) == [tie + 1]
        spans = _recorded_jump_spans(monkeypatch, 10_000)
        _assert_matches_step_by_step(prob, init, 4, IterationOptions("oss"))
        assert spans and not any(first <= tie <= last for first, last in spans)
        assert any(last == tie - 1 for _, last in spans)

    def test_stop_test_within_rounding_is_left_to_the_ordinary_step(self, monkeypatch):
        # rel_tol is set so that at step 150 the decrease exceeds rel_tol
        # times the objective by 3e-13: clear for the step-by-step loop
        # (its two RSS values round by about 1e-14) but inside the jump's
        # bound rho_k, which is at least 16 e_rss, about 2e-12 here.  So
        # no jump may cross step 150, and the stop rule fires at step 151.
        stop, excess = 150, 3e-13
        prob, init, _ = _one_moving_coordinate()
        trace = reference_run(
            prob, init, 4, IterationOptions("oss", rel_tol=0.0, max_iter=stop)
        ).rss_trace
        rel_tol = (trace[-2] - trace[-1] - excess) / trace[-2]
        opts = IterationOptions("oss", rel_tol=rel_tol)
        spans = _recorded_jump_spans(monkeypatch, opts.resolved_max_iter())
        got, _ = _assert_matches_step_by_step(prob, init, 4, opts)
        assert got.termination == TERM_CONVERGED and got.iterations == stop + 1
        assert spans and not any(first <= stop <= last for first, last in spans)
        assert any(last == stop - 1 for _, last in spans)

    def test_a_large_finite_rel_tol_stops_after_one_step(self):
        # rel_tol times the objective overflows inside the jump's stop
        # test.  The jump must stop there without a warning and leave the
        # step to the ordinary loop, whose stop test then fires.
        prob, init, _ = _one_moving_coordinate()
        opts = IterationOptions("oss", rel_tol=1e308)
        assert np.array_equal(oss_step(prob, init, 4).active, init.active)
        assert rss(prob, init) * 1e308 == np.inf
        got = run(prob, init, 4, opts)
        ref = reference_run(prob, init, 4, opts)
        assert got.coef.beta.tobytes() == ref.coef.beta.tobytes()
        assert got.rss_trace.tobytes() == ref.rss_trace.tobytes()
        assert (got.iterations, got.termination) == (1, TERM_CONVERGED)
        assert (ref.iterations, ref.termination) == (1, TERM_CONVERGED)

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    @pytest.mark.parametrize("case", sorted(MULTI_START_CASES))
    def test_multi_start_cases(self, case, max_iter):
        # From zero, from sis and from the largest stepwise prefix, which
        # is above the budget; 300 is the benchmark's iteration cap.
        prob, M = MULTI_START_CASES[case]()
        path = forward_stepwise(prob, multi_start_window(prob.n, prob.p, M)[1])
        largest = path.coef_at(path.order.size)
        assert largest.active.size > M
        opts = IterationOptions("oss", max_iter=max_iter)
        for init in (SparseCoef.zeros(prob.p), sis(prob, M), largest):
            _assert_matches_step_by_step(prob, init, M, opts)

    def test_exact_tie_at_the_cut_on_a_kronecker_design(self, monkeypatch):
        # From zero, the iteration keeps one set for steps 2-55; at step
        # 56 columns 4 and 18 tie exactly for the last place, and the tie
        # rule admits 4.  The jump must stop short of that step.
        prob, _ = _kronecker_problem(7)
        M = 6
        coef = SparseCoef.zeros(prob.p)
        for _ in range(55):
            coef = oss_step(prob, coef, M)
        v = coef.beta + prob.X.T @ (prob.y - prob.X @ coef.beta) / prob.c
        assert abs(v[4]) == abs(v[18]) == np.sort(np.abs(v))[-M]
        assert 4 in oss_step(prob, coef, M).active
        jumps = _recorded_jumps(monkeypatch)
        got, _ = _assert_matches_step_by_step(
            prob, SparseCoef.zeros(prob.p), M, IterationOptions("oss")
        )
        assert sum(jumps) > 100 and 4 in got.coef.active and 18 not in got.coef.active
