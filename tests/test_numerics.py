import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from subsetscreen import numerics
from subsetscreen import (
    PreparedDesign,
    bind,
    kronecker_design,
    lanczos_lambda_max,
    min_norm_least_squares,
    power_method_lambda_max,
    prepare_design,
    standardize,
    sylvester_hadamard,
)

from _support import jacobi_max_eigenvalue, traced_bytes


class TestStandardize:
    def test_two_point_column(self):
        prob = standardize(np.array([[1.0], [3.0]]), np.array([5.0, 7.0]))
        np.testing.assert_allclose(prob.X[:, 0], [-1.0, 1.0])
        np.testing.assert_allclose(prob.y, [-1.0, 1.0])

    def test_already_standardized_input_unchanged(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((25, 4))
        raw -= raw.mean(axis=0)
        raw *= np.sqrt(25 / np.einsum("ij,ij->j", raw, raw))
        y = rng.standard_normal(25)
        y -= y.mean()
        prob = standardize(raw, y)
        np.testing.assert_allclose(prob.X, raw, atol=1e-12)
        np.testing.assert_allclose(prob.y, y, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        X = 3.0 * rng.standard_normal((20, 5)) + 1.5
        y = rng.standard_normal(20) + 4.0
        once = standardize(X, y)
        twice = standardize(once.X, once.y)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-10)
        np.testing.assert_allclose(twice.y, once.y, atol=1e-10)

    def test_column_conventions(self):
        rng = np.random.default_rng(3)
        prob = standardize(rng.standard_normal((40, 7)) * 5 + 2, rng.standard_normal(40))
        n = prob.n
        assert np.all(np.abs(prob.X.sum(axis=0)) <= 1e-8 * n)
        np.testing.assert_allclose(
            np.einsum("ij,ij->j", prob.X, prob.X), np.full(7, n), rtol=1e-8
        )
        assert abs(prob.y.sum()) <= 1e-8 * n

    def test_degenerate_column_flagged_and_zeroed(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((15, 3))
        X[:, 1] = 7.0
        prob = standardize(X, rng.standard_normal(15))
        assert prob.degenerate.tolist() == [False, True, False]
        assert prob.col_scales[1] == 1.0
        np.testing.assert_array_equal(prob.X[:, 1], 0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            standardize(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            standardize(np.ones((1, 2)), np.ones(1))
        bad = np.ones((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            standardize(bad, np.ones(4))
        with pytest.raises(ValueError):
            standardize(np.ones((4, 2)) + np.arange(4)[:, None], np.array([1.0, 2.0, np.inf, 0.0]))
        with pytest.raises(ValueError, match="2-D"):
            standardize(np.arange(4.0), np.ones(4))
        with pytest.raises(ValueError, match="at least one column"):
            standardize(np.ones((4, 0)), np.ones(4))


class TestPowerMethod:
    def test_orthogonal_columns(self):
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert power_method_lambda_max(X) == pytest.approx(4.0, rel=1e-10)

    def test_diagonal(self):
        assert power_method_lambda_max(np.diag([1.0, 2.0])) == pytest.approx(4.0, rel=1e-10)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 4))
        expected = jacobi_max_eigenvalue(X.T @ X)
        assert power_method_lambda_max(X) == pytest.approx(expected, rel=1e-6)

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 12))
        lam = power_method_lambda_max(X)
        for _ in range(100):
            v = rng.standard_normal(12)
            quotient = float(v @ (X.T @ (X @ v))) / float(v @ v)
            assert lam >= quotient * (1 - 1e-12)

    def test_spectral_constant_dominates(self):
        # c I - X'X must be positive semidefinite for the thresholded
        # steps to be monotone.
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((12, 6))
            prob = standardize(X, rng.standard_normal(12))
            shifted = prob.c * np.eye(6) - prob.X.T @ prob.X
            min_eig = -jacobi_max_eigenvalue(-shifted)
            assert min_eig >= -1e-8 * prob.c

    def test_zero_matrix(self):
        assert power_method_lambda_max(np.zeros((4, 3))) == 0.0

    def test_iteration_cap_warns_and_returns_estimate(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 6))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            estimate = power_method_lambda_max(X, rel_tol=0.0, max_iter=3)
        assert estimate > 0.0


def _smaller_gram(X):
    return X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X


def _spectral_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "wide":
        return rng.standard_normal((20, 50))
    if name == "tall":
        return rng.standard_normal((50, 20))
    if name == "duplicated":
        X = rng.standard_normal((30, 12))
        X[:, 7] = X[:, 2]
        X[:, 9] = X[:, 2]
        return X
    if name == "rank_deficient":
        return rng.standard_normal((25, 3)) @ rng.standard_normal((3, 40))
    if name == "kronecker":
        # 96 x 528; every eigenvalue of X'X, the largest included, has
        # multiplicity 8.
        base = rng.choice([-1.0, 1.0], size=(12, 66))
        return kronecker_design(sylvester_hadamard(8), base)
    if name == "one_column":
        return rng.standard_normal((15, 1))
    if name == "two_rows":
        return rng.standard_normal((2, 6))
    raise KeyError(name)


SPECTRAL_CASES = (
    "wide", "tall", "duplicated", "rank_deficient", "kronecker", "one_column", "two_rows",
)


class TestLanczos:
    @pytest.mark.parametrize("case", SPECTRAL_CASES)
    def test_matches_jacobi_oracle(self, case):
        design = prepare_design(_spectral_case(case))
        expected = jacobi_max_eigenvalue(_smaller_gram(np.asarray(design.X)))
        theta = lanczos_lambda_max(design.X)
        assert abs(theta - expected) <= 1e-12 * expected
        assert design.c >= expected

    @pytest.mark.parametrize("case", SPECTRAL_CASES)
    def test_deterministic(self, case):
        X = prepare_design(_spectral_case(case)).X
        assert lanczos_lambda_max(X) == lanczos_lambda_max(X)
        assert prepare_design(X).c == prepare_design(X).c

    def test_zero_matrix(self):
        assert lanczos_lambda_max(np.zeros((4, 3))) == 0.0
        assert lanczos_lambda_max(np.zeros((3, 4))) == 0.0
        design = prepare_design(np.full((5, 3), 2.0))  # every column constant
        np.testing.assert_array_equal(design.X, 0.0)
        assert design.c == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lanczos_lambda_max(np.zeros((3, 0)))


def _record_ritz_calls(monkeypatch):
    """Route Lanczos's top Ritz values through a recorder.

    Returns the list that receives (alpha, beta, upper, guess, result) of
    every call, one per Lanczos step.
    """
    calls = []
    top_ritz = numerics._top_ritz

    def recorded(alpha, beta, upper, guess=None):
        result = top_ritz(alpha, beta, upper, guess)
        calls.append((list(alpha), list(beta), upper, guess, result))
        return result

    monkeypatch.setattr(numerics, "_top_ritz", recorded)
    return calls


def _reference_ritz(alpha, beta):
    """Top eigenvalue and |last eigenvector component| by LAPACK (xSTEBZ, xSTEIN)."""
    k = len(alpha)
    w, v = eigh_tridiagonal(alpha, beta, select="i", select_range=(k - 1, k - 1))
    return float(w[0]), abs(float(v[-1, 0]))


def _norm_ulp(alpha, beta):
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return float(np.spacing(np.abs(np.linalg.eigvalsh(T)).max()))


def _closed_form_last_component(alpha, beta, theta):
    """s_k = 1 / sqrt(|d_k'(theta)|) from the top-down pivots d_i of theta I - T."""
    d, slope = theta - alpha[0], 1.0
    for a, b in zip(alpha[1:], beta):
        d, slope = theta - a - b * b / d, 1.0 + b * b * slope / (d * d)
    return 1.0 / math.sqrt(abs(slope))


class TestTopRitz:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_lapack_on_random_tridiagonals(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 60))
        alpha = [float(a) for a in rng.standard_normal(k)]
        beta = [float(b) for b in rng.standard_normal(k - 1)]
        upper = max(map(abs, alpha)) + 2.0 * max(map(abs, beta))  # Gershgorin
        theta, s = numerics._top_ritz(alpha, beta, upper)
        expected_theta, expected_s = _reference_ritz(alpha, beta)
        assert abs(theta - expected_theta) <= 4 * _norm_ulp(alpha, beta)
        # xSTEIN's components are accurate to about eps absolute.
        if expected_s > 1e-8:
            assert s == pytest.approx(expected_s, rel=1e-6)

    def test_one_by_one(self):
        assert numerics._top_ritz([3.5], [], 10.0) == (3.5, 1.0)

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [
            # d_1 = x - 2 is exactly zero at the start x = 2; theta = 2 + 1e-40.
            ([2.0, 1.0], [1e-20], (2.0, 1e-20)),
            # the last pivot 2 - 1 - 1/1 is exactly zero: x = 2 is theta.
            ([1.0, 1.0], [1.0], (2.0, math.sqrt(0.5))),
        ],
    )
    def test_exact_zero_pivot(self, alpha, beta, expected, monkeypatch):
        sums = []
        pivot_sums = numerics._pivot_sums

        def recorded(*args):
            sums.append(pivot_sums(*args))
            return sums[-1]

        monkeypatch.setattr(numerics, "_pivot_sums", recorded)
        theta, s = numerics._top_ritz(alpha, beta, max(alpha) + beta[0])
        assert None in sums  # the guard fired
        assert theta == expected[0]
        assert abs(theta - _reference_ritz(alpha, beta)[0]) <= 4 * np.spacing(theta)
        assert s == pytest.approx(expected[1], rel=1e-12)

    def test_converged_last_component_keeps_its_digits(self, monkeypatch):
        # Once the top Ritz value has converged, 1/sqrt(|d_k'(theta)|)
        # is wrong by orders of magnitude; the twisted factorization is not.
        calls = _record_ritz_calls(monkeypatch)
        prepare_design(np.random.default_rng(7).standard_normal((200, 500)))
        converged = 0
        for alpha, beta, upper, guess, (theta, s) in calls:
            expected_theta, expected_s = _reference_ritz(alpha, beta)
            assert abs(theta - expected_theta) <= 4 * np.spacing(expected_theta)
            if 1e-13 <= expected_s <= 1e-10:
                converged += 1
                assert s == pytest.approx(expected_s, rel=1e-6)
                closed = _closed_form_last_component(alpha, beta, theta)
                assert closed > 100 * expected_s
        assert converged >= 3


class TestLanczosStops:
    def test_stop_rule_fires_well_before_min_n_p(self, monkeypatch):
        # A last component that never falls far enough would run all 200 steps.
        calls = _record_ritz_calls(monkeypatch)
        X = prepare_design(np.random.default_rng(7).standard_normal((200, 500))).X
        calls.clear()
        theta = lanczos_lambda_max(X)
        assert len(calls) <= 80
        assert theta == calls[-1][-1][0]
        assert abs(theta - np.linalg.eigvalsh(X @ X.T)[-1]) <= 1e-12 * theta


class TestPrepareAndBind:
    def test_standardize_is_bind_of_prepare_design(self):
        rng = np.random.default_rng(10)
        X = 3.0 * rng.standard_normal((30, 8)) + 1.0
        X[:, 5] = -2.0
        y = rng.standard_normal(30) + 5.0
        design = prepare_design(X)
        whole = standardize(X, y)
        split = bind(design, y)
        for field in ("X", "y", "col_means", "col_scales", "degenerate"):
            assert getattr(whole, field).tobytes() == getattr(split, field).tobytes()
        assert (whole.c, whole.y_mean) == (split.c, split.y_mean)
        assert split.X is design.X

    def test_bind_holds_the_designs_own_arrays(self):
        X = np.random.default_rng(14).standard_normal((9, 4))
        X[:, 2] = 7.0
        design = prepare_design(X)
        problem = bind(design, np.arange(9.0))
        assert isinstance(problem, PreparedDesign)
        for field in ("X", "col_means", "col_scales", "degenerate"):
            assert getattr(problem, field) is getattr(design, field)
        assert (problem.c, problem.n, problem.p) == (design.c, design.n, design.p)

    def test_prepare_design_holds_one_copy_of_the_design(self):
        # Beyond the caller's X: one n x p float array (centered, then
        # scaled in place), the n x p finiteness mask while checking, and
        # O(n + p) more, allowed as 16 (n + p) floats plus the Lanczos
        # basis of at most min(n, p)^2 floats.
        n, p = 200, 2000
        X = np.random.default_rng(13).standard_normal((n, p)) + 2.0
        X[:, 7] = 1.5
        design, peak, held = traced_bytes(prepare_design, X)
        extra = 8 * (16 * (n + p) + min(n, p) ** 2)
        assert peak <= 8 * n * p + n * p + extra
        assert held <= 8 * n * p + extra
        assert design.X.shape == (n, p) and design.degenerate[7]

    def test_design_arrays_are_read_only(self):
        design = prepare_design(np.random.default_rng(11).standard_normal((10, 4)))
        for array in (design.X, design.col_means, design.col_scales, design.degenerate):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_bind_checks_the_response(self):
        design = prepare_design(np.random.default_rng(12).standard_normal((6, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            bind(design, np.ones(5))
        with pytest.raises(ValueError, match="non-finite"):
            bind(design, np.array([1.0, 2.0, np.nan, 0.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "column, case",
        [(np.full(8, 1e308), "mean"), (1e200 * np.arange(8.0), "sum of squares")],
    )
    def test_a_column_that_overflows_is_named(self, column, case):
        # A finite column whose mean or centered sum of squares overflows
        # would be flagged constant (mean) or zeroed unflagged (sum of
        # squares); it is rejected instead, with no RuntimeWarning.
        X = np.random.default_rng(14).standard_normal((8, 4))
        X[:, 2] = column
        with pytest.raises(ValueError, match="column 3 of X overflows"):
            prepare_design(X)

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_a_response_that_overflows_is_rejected(self, scale):
        rng = np.random.default_rng(15)
        design = prepare_design(rng.standard_normal((8, 3)))
        y = scale * np.where(np.arange(8) % 2, 1.0, 0.5)
        with pytest.raises(ValueError, match="y overflows"):
            bind(design, y)


class TestMinNormLeastSquares:
    def test_identity(self):
        np.testing.assert_allclose(
            min_norm_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0])),
            [1.0, 2.0, 3.0],
        )

    def test_single_column(self):
        beta = min_norm_least_squares(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert beta == pytest.approx([2.0])

    def test_duplicate_columns_split_evenly(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        beta = min_norm_least_squares(A, np.array([2.0, 0.0]))
        np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            min_norm_least_squares(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError, match="2-D"):
            min_norm_least_squares(np.ones(3), np.ones(3))

    def test_rank_deficient_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(5, 20))
            p = int(rng.integers(2, 10))
            A = rng.standard_normal((n, p))
            # duplicate a column to force rank deficiency
            dup_from = int(rng.integers(0, p))
            dup_to = int(rng.integers(0, p))
            A[:, dup_to] = A[:, dup_from]
            y = rng.standard_normal(n)
            beta = min_norm_least_squares(A, y)
            resid = y - A @ beta
            bound = 1e-8 * np.linalg.norm(y) * np.abs(A).sum(axis=0).max()
            assert np.max(np.abs(A.T @ resid)) <= max(bound, 1e-12)

    def test_matches_svd_min_norm_solution(self):
        # The minimum-norm minimizer is unique, so an SVD-based route
        # must land on the same vector.
        rng = np.random.default_rng(8)
        for _ in range(50):
            A = rng.standard_normal((12, 6))
            A[:, 4] = A[:, 1] - 2.0 * A[:, 2]
            y = rng.standard_normal(12)
            mine = min_norm_least_squares(A, y)
            ref, *_ = np.linalg.lstsq(A, y, rcond=None)
            np.testing.assert_allclose(mine, ref, atol=1e-8)

    @pytest.mark.parametrize("distance, expected", [(1e-12, [0.5, 0.5]), (1e-8, [1.0, 0.0])])
    def test_rank_rule(self, distance, expected):
        # b = a + distance * ||a|| * u with u a unit vector orthogonal to a:
        # the singular values of [a, b] are about sqrt(2) ||a|| and
        # distance * ||a|| / sqrt(2), a ratio of distance / 2 against
        # RANK_RTOL = 1e-10.  y = a is fit exactly by (1, 0); a dependent
        # pair splits it evenly instead.
        rng = np.random.default_rng(9)
        a = rng.standard_normal(30)
        u = rng.standard_normal(30)
        u -= (u @ a) / (a @ a) * a
        u /= np.linalg.norm(u)
        A = np.column_stack([a, a + distance * np.linalg.norm(a) * u])
        np.testing.assert_allclose(min_norm_least_squares(A, a), expected, atol=1e-6)

    def test_empty_and_zero_matrices(self):
        assert min_norm_least_squares(np.zeros((3, 0)), np.zeros(3)).shape == (0,)
        np.testing.assert_array_equal(
            min_norm_least_squares(np.zeros((3, 2)), np.ones(3)), np.zeros(2)
        )
