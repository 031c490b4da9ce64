import numpy as np
import pytest

from subsetscreen import (
    EnumerationCapError,
    IterationOptions,
    SparseCoef,
    TERM_CONVERGED,
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
    standardize,
)

from _support import orthogonal_design, random_problem, unique_solution_problem


class TestRss:
    def test_zero_coefficients(self):
        prob = random_problem(10)
        zero = SparseCoef.zeros(prob.p, 3)
        assert rss(prob, zero) == pytest.approx(float(prob.y @ prob.y))

    def test_exact_fit(self):
        prob = random_problem(11)
        beta = np.zeros(prob.p)
        beta[0] = 1.0
        y = prob.X @ beta
        exact = standardize(prob.X, y)
        assert rss(exact, SparseCoef.from_dense(beta, 1)) <= 1e-20

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(12)
        prob = standardize(rng.standard_normal((10, 4)), rng.standard_normal(10))
        beta = np.array([0.5, 0.0, -1.2, 0.0])
        coef = SparseCoef.from_dense(beta, 2)
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


class TestSteps:
    def test_orthogonal_one_step_is_global(self):
        X = orthogonal_design(13, n=24, p=8)
        rng = np.random.default_rng(14)
        prob = standardize(X, rng.standard_normal(24))
        M = 3
        stepped = oss_step(prob, SparseCoef.zeros(8, M))
        expected = hard_threshold(prob.xty, M) / prob.c
        np.testing.assert_allclose(stepped.beta, expected, atol=1e-14)
        oracle = exhaustive_best_subset(prob, M)
        assert rss(prob, stepped) == pytest.approx(oracle.final_rss, rel=1e-10)

    def test_zero_response_stays_zero(self):
        rng = np.random.default_rng(15)
        prob = standardize(rng.standard_normal((12, 5)), np.zeros(12))
        stepped = oss_step(prob, SparseCoef.zeros(5, 2))
        np.testing.assert_array_equal(stepped.beta, np.zeros(5))

    def test_optimum_is_fixed_point(self):
        prob, M = unique_solution_problem(7003)
        star = exhaustive_best_subset(prob, M).coef
        stepped = oss_step(prob, star)
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
            coef = SparseCoef.from_dense(beta, M)
            before = rss(prob, coef)
            after_step = rss(prob, oss_step(prob, coef))
            after_refit = rss(prob, foss_step(prob, coef))
            assert after_step <= before * (1 + 1e-9)
            assert after_refit <= after_step * (1 + 1e-9)

    def test_refit_matches_plain_step_on_orthogonal_design(self):
        X = orthogonal_design(17, n=30, p=6)
        rng = np.random.default_rng(18)
        prob = standardize(X, rng.standard_normal(30))
        zero = SparseCoef.zeros(6, 2)
        stepped = oss_step(prob, zero)
        refit = foss_step(prob, zero)
        np.testing.assert_array_equal(stepped.active, refit.active)
        np.testing.assert_allclose(stepped.beta, refit.beta, rtol=1e-6)

    def test_refit_residual_orthogonal_to_selection(self):
        rng = np.random.default_rng(19)
        prob = standardize(rng.standard_normal((50, 20)), rng.standard_normal(50))
        refit = foss_step(prob, SparseCoef.zeros(20, 6))
        resid = prob.y - prob.X @ refit.beta
        scale = np.linalg.norm(prob.y) * np.sqrt(prob.n)
        assert np.max(np.abs(prob.X[:, refit.active].T @ resid)) <= 1e-8 * scale

    def test_degenerate_columns_never_selected(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 5))
        X[:, 2] = 4.0
        prob = standardize(X, rng.standard_normal(20))
        beta = np.zeros(5)
        beta[2] = 9.0  # junk weight on the constant column
        stepped = oss_step(prob, SparseCoef.from_dense(beta, 2))
        assert 2 not in stepped.active


def _active_stabilization(problem, init, M, step, cap=400):
    coef = SparseCoef.from_dense(init.beta, M)
    actives = []
    for _ in range(cap):
        coef = step(problem, coef)
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
        it_plain, set_plain = _active_stabilization(prob, init, M, lambda pr, c: oss_step(pr, c))
        it_refit, set_refit = _active_stabilization(prob, init, M, lambda pr, c: foss_step(pr, c))
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
        res = run(prob, SparseCoef.from_dense(perturbed, M), M, IterationOptions("oss", 0.0, 200))
        np.testing.assert_array_equal(res.coef.active, star.active)
        assert np.max(np.abs(res.coef.beta - star.beta)) <= 1e-8

    def test_trace_non_increasing_even_from_dense_start(self):
        rng = np.random.default_rng(22)
        for seed in range(20):
            prob = random_problem(300 + seed, n=30, p=12, d=3)
            M = 4
            dense = SparseCoef.from_dense(rng.normal(0, 1, size=12), M)
            for algorithm in ("oss", "foss"):
                res = run(prob, dense, M, IterationOptions(algorithm))
                trace = res.rss_trace
                assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-9))

    def test_infeasible_start_excluded_from_trace(self):
        prob = random_problem(23, n=30, p=10, d=3)
        dense = SparseCoef.from_dense(np.ones(10), 2)
        res = run(prob, dense, 2, IterationOptions("foss"))
        # one trace entry per produced iterate; the over-budget start is
        # not recorded (its objective is not comparable to thresholded ones)
        assert len(res.rss_trace) == res.iterations
        feasible = SparseCoef.zeros(10, 2)
        res_feasible = run(prob, feasible, 2, IterationOptions("foss"))
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

    def test_rejects_bad_options(self):
        with pytest.raises(ValueError):
            IterationOptions("newton")
        with pytest.raises(ValueError):
            IterationOptions("oss", rel_tol=-1.0)
        with pytest.raises(ValueError):
            IterationOptions("oss", max_iter=0)


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


class TestExhaustive:
    def test_full_model(self):
        prob = random_problem(28, n=30, p=5, d=2)
        res = exhaustive_best_subset(prob, 5)
        full = refit_subset(prob, np.arange(5), 5)
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
        expected = np.sort(np.argsort(-np.abs(prob.xty), kind="stable")[:3])
        np.testing.assert_array_equal(res.coef.active, expected)

    def test_cap(self):
        prob = random_problem(32, n=40, p=30, d=2)
        with pytest.raises(EnumerationCapError, match=r"C\(30, 10\)"):
            exhaustive_best_subset(prob, 10)

    def test_minimum_norm_refit_handles_duplicate_columns(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((20, 4))
        X[:, 3] = X[:, 0]
        y = 2.0 * X[:, 0] + 0.1 * rng.standard_normal(20)
        prob = standardize(X, y)
        res = exhaustive_best_subset(prob, 2)
        assert np.isfinite(res.final_rss)
        assert min_norm_least_squares(prob.X[:, res.coef.active], prob.y).shape[0] == res.coef.active.size
