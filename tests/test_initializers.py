import numpy as np
import pytest
from scipy.linalg import solve_triangular

from subsetscreen import (
    IterationOptions,
    core,
    exhaustive_best_subset,
    bind,
    forward_stepwise,
    forward_stepwise_paths,
    initializers,
    isis,
    multi_start_foss_fs,
    prepare_design,
    refit_subset,
    rss,
    run,
    sis,
    standardize,
)

from _support import count_min_norm_calls, orthogonal_design, random_problem, traced_bytes


def correlated_problem(seed, n=40, p=12, d=3, rho=0.6):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(n)
    X = np.sqrt(rho) * shared[:, None] + np.sqrt(1 - rho) * rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:d] = np.resize([2.0, -1.5, 1.0], d)
    y = X @ beta + 0.7 * rng.standard_normal(n)
    return standardize(X, y)


class TestSis:
    def test_orthogonal_matches_oracle_active_set(self):
        X = orthogonal_design(40, n=30, p=8)
        rng = np.random.default_rng(41)
        prob = standardize(X, rng.standard_normal(30))
        chosen = sis(prob, 3)
        oracle = exhaustive_best_subset(prob, 3)
        np.testing.assert_array_equal(chosen.active, oracle.coef.active)

    def test_single_signal_column(self):
        X = orthogonal_design(42, n=20, p=5)
        y = X[:, 0].copy()
        prob = standardize(X, y)
        chosen = sis(prob, 1)
        np.testing.assert_array_equal(chosen.active, [0])
        assert rss(prob, chosen) <= 1e-18

    def test_matches_naive_marginal_ranking(self):
        prob = correlated_problem(43)
        chosen = sis(prob, 4)
        naive = np.array([abs(prob.X[:, j] @ prob.y) for j in range(prob.p)])
        expected = np.sort(np.argsort(-naive, kind="stable")[:4])
        np.testing.assert_array_equal(np.sort(chosen.active), expected)

    def test_nesting_in_m(self):
        prob = correlated_problem(44)
        for M in range(1, prob.p):
            smaller = set(sis(prob, M).active.tolist())
            larger = set(sis(prob, M + 1).active.tolist())
            assert smaller <= larger

    def test_rejects_bad_m(self):
        prob = correlated_problem(45)
        with pytest.raises(ValueError):
            sis(prob, 0)
        with pytest.raises(ValueError):
            sis(prob, prob.p + 1)


class TestIsis:
    def test_batch_equal_m_is_single_shot(self):
        prob = correlated_problem(46)
        a = isis(prob, 4, batch=4)
        b = sis(prob, 4)
        np.testing.assert_array_equal(a.active, b.active)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-12)

    def test_orthogonal_any_batch_matches_single_shot(self):
        X = orthogonal_design(47, n=30, p=8)
        rng = np.random.default_rng(48)
        prob = standardize(X, rng.standard_normal(30))
        base = sis(prob, 4)
        for batch in (1, 2, 3, 4):
            iterated = isis(prob, 4, batch=batch)
            np.testing.assert_array_equal(iterated.active, base.active)

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_matches_straight_line_reference(self, batch):
        # independent re-implementation of the same admission schedule;
        # batch=3 with M=4 exercises the short final round
        prob = correlated_problem(49)
        M = 4
        active: list[int] = []
        residual = prob.y.copy()
        while len(active) < M:
            scores = np.abs(prob.X.T @ residual)
            scores[active] = -np.inf
            order = np.argsort(-scores, kind="stable")
            take = min(batch, M - len(active))
            active = sorted(active + [int(j) for j in order[:take]])
            coefs, *_ = np.linalg.lstsq(prob.X[:, active], prob.y, rcond=None)
            residual = prob.y - prob.X[:, active] @ coefs
        result = isis(prob, M, batch=batch)
        np.testing.assert_array_equal(result.active, active)

    def test_default_batch_rule(self):
        prob = correlated_problem(50)
        default = isis(prob, 5)
        explicit = isis(prob, 5, batch=1)  # ceil(5/5) = 1
        np.testing.assert_array_equal(default.active, explicit.active)

    def test_rejects_bad_batch(self):
        prob = correlated_problem(51)
        with pytest.raises(ValueError):
            isis(prob, 3, batch=0)
        with pytest.raises(ValueError):
            isis(prob, 3, batch=4)


class TestForwardStepwise:
    def test_first_step_is_top_marginal(self):
        prob = correlated_problem(52)
        path = forward_stepwise(prob, 3)
        assert path.steps[0].added == int(np.argmax(np.abs(prob.X.T @ prob.y)))

    def test_exact_fit_in_two_steps(self):
        rng = np.random.default_rng(53)
        X = rng.standard_normal((30, 8))
        y = X[:, 2] + X[:, 5]
        prob = standardize(X, y)
        path = forward_stepwise(prob, 4)
        assert rss(prob, path.coef_at(2)) <= 1e-10
        assert set(path.steps[1].active) == {2, 5}
        # once exact, later prefixes stay at (numerical) zero
        assert rss(prob, path.coef_at(4)) <= 1e-10

    def test_greedy_at_least_oracle(self):
        prob = random_problem(54, n=40, p=8, d=3)
        path = forward_stepwise(prob, 3)
        oracle = exhaustive_best_subset(prob, 3)
        assert rss(prob, path.coef_at(3)) >= oracle.final_rss * (1 - 1e-12)

    def test_path_rss_strictly_decreases(self):
        prob = correlated_problem(55, n=50, p=15, d=4)
        path = forward_stepwise(prob, 10)
        values = [rss(prob, path.coef_at(k)) for k in range(1, len(path.steps) + 1)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nested_active_sets(self):
        prob = correlated_problem(56)
        path = forward_stepwise(prob, 6)
        for first, second in zip(path.steps, path.steps[1:]):
            assert set(first.active) < set(second.active)
            assert len(second.active) == len(first.active) + 1

    def test_truncates_when_rank_exhausted(self):
        rng = np.random.default_rng(57)
        base = rng.standard_normal((20, 3))
        X = np.hstack([base, base[:, [0]], base[:, [1]]])  # rank 3, p = 5
        y = base @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(20)
        prob = standardize(X, y)
        path = forward_stepwise(prob, 5)
        assert path.order.size == len(path.steps) == 3

    def test_rejects_bad_size(self):
        prob = correlated_problem(58)
        with pytest.raises(ValueError):
            forward_stepwise(prob, 0)
        with pytest.raises(ValueError):
            forward_stepwise(prob, prob.p + 1)

    def test_coef_at_refits_least_squares(self):
        prob = correlated_problem(59)
        path = forward_stepwise(prob, 4)
        coef = path.coef_at(2)
        refit = refit_subset(prob, list(path.steps[1].active))
        np.testing.assert_allclose(coef.beta, refit.beta, atol=1e-12)

    def test_back_substitution_matches_min_norm_refit(self, monkeypatch):
        prob = correlated_problem(61, n=120, p=400, d=3)
        calls = count_min_norm_calls(monkeypatch, initializers)
        path = forward_stepwise(prob, 60)
        assert len(path.steps) == 60
        assert calls == []  # full rank throughout: every prefix is back-substituted
        for k, step in enumerate(path.steps, start=1):
            coef = path.coef_at(k)
            assert step.coef.shape == (k,)
            np.testing.assert_array_equal(coef.active, step.active)
            refit = refit_subset(prob, step.active)
            np.testing.assert_allclose(coef.beta, refit.beta, rtol=1e-9, atol=1e-12)

    def test_prefix_coef_within_forward_error_bound_of_solve_triangular(self):
        # Tolerance: every prefix the factor solves (every diagonal entry
        # of R_k above FACTOR_SOLVE_RTOL times the first) must satisfy
        #   max|x - x_ref| <= 8 k eps cond(R_k) max|x_ref|,
        # x_ref = solve_triangular(R_k, (Q'y)_k) on the path's own factor,
        # the first-order forward-error bound of a triangular solve or of
        # a product with a computed triangular inverse (Higham, ch. 8, 14).
        eps = np.finfo(float).eps
        for name, (prob, size) in STEPWISE_FACTOR_CASES.items():
            path = forward_stepwise(prob, size)
            order, _, R, qty = initializers._greedy_factor(prob.X, prob.y[:, None], size)[0]
            diag = np.diag(R)
            usable = np.logical_and.accumulate(diag > initializers.FACTOR_SOLVE_RTOL * diag[0]).sum()
            assert usable >= 4, name
            for k, step in enumerate(path.steps[:usable], start=1):
                ref = solve_triangular(R[:k, :k], qty[:k])[np.argsort(order[:k])]
                err = np.abs(step.coef - ref).max()
                bound = 8 * k * eps * np.linalg.cond(R[:k, :k]) * np.abs(ref).max()
                assert err <= bound, (name, k, err, bound)

    def test_near_dependent_prefixes_fall_back_to_min_norm(self, monkeypatch):
        rng = np.random.default_rng(60)
        base = rng.standard_normal((40, 5))
        e = rng.standard_normal(40)
        # column 5 is column 0 plus a 1e-7 perturbation that carries signal
        X = np.hstack([base, base[:, [0]] + 1e-7 * e[:, None]])
        y = base @ np.array([1.0, -1.0, 0.5, 0.0, 0.0]) + 3.0 * e
        prob = standardize(X, y)
        calls = count_min_norm_calls(monkeypatch, initializers)
        path = forward_stepwise(prob, 6)
        added = [step.added for step in path.steps]
        late = max(added.index(0), added.index(5))
        span = prob.X[:, added[:late]]
        x = prob.X[:, added[late]]
        rel = np.linalg.norm(x - span @ np.linalg.lstsq(span, x, rcond=None)[0]) / np.linalg.norm(x)
        assert initializers.SPAN_RTOL2 ** 0.5 < rel < initializers.FACTOR_SOLVE_RTOL
        assert calls == list(range(late + 1, 7))
        for k in range(late + 1, 7):
            refit = refit_subset(prob, path.steps[k - 1].active)
            np.testing.assert_array_equal(path.coef_at(k).beta, refit.beta)


def near_collinear_problem(seed, n=40, p=16, scale=1e-3):
    # The last p/2 columns are the first p/2 plus a small perturbation.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, p // 2))
    X = np.hstack([base, base + scale * rng.standard_normal((n, p // 2))])
    y = base[:, :3] @ np.array([2.0, -1.5, 1.0]) + 0.5 * rng.standard_normal(n)
    return standardize(X, y)


def kahan_problem(c, n=120, p=12, seed=68):
    # Kahan's triangular factor (unit columns) behind orthonormal centered
    # columns, and a response whose weights on them fall fast enough that
    # greedy selection takes the columns in order: every prefix's R is a
    # Kahan matrix, far worse conditioned than its smallest pivot shows.
    rng = np.random.default_rng(seed)
    s = np.sqrt(1.0 - c * c)
    K = np.diag(s ** np.arange(p)) - c * np.triu(np.ones((p, p)), 1) * s ** np.arange(p)[:, None]
    A = rng.standard_normal((n, p))
    Q, _ = np.linalg.qr(A - A.mean(axis=0))
    return standardize(Q @ K, Q @ (s / 4) ** np.arange(p))


STEPWISE_FACTOR_CASES = {
    "correlated": (correlated_problem(67, n=120, p=400, d=3), 69),
    **{
        f"near-collinear-{scale:g}": (near_collinear_problem(69, n=80, p=40, scale=scale), 39)
        for scale in (1e-2, 1e-3, 1e-4)
    },
    **{f"kahan-{c}": (kahan_problem(c), 12) for c in (0.9, 0.99, 0.999)},
}


class TestSweepGradients:
    """``core._prefix_gradients``: one product per chunk of stepwise
    prefixes, which the multi-start restarts take as their first
    gradient where it decides the first set."""

    @pytest.mark.parametrize("name", sorted(STEPWISE_FACTOR_CASES))
    def test_matches_the_fresh_gradient(self, name):
        # Tolerance: the prefix coefficients are within 8 k eps cond(R_k)
        # max|beta| of the exact ones (the bound of the test above), and
        # |x_j'd| <= sqrt(n) ||d||, so for every prefix the factor solves
        #   max|gains - X'(y - X beta)| <= 8 k eps cond(R_k) sqrt(n) a,
        # with a = ||y|| + sqrt(n) ||beta||_1.  The stated bound of the
        # product, which the first sets rest on, must hold as well.
        prob, size = STEPWISE_FACTOR_CASES[name]
        eps = np.finfo(float).eps
        path = forward_stepwise(prob, size)
        _, _, R, _ = initializers._greedy_factor(prob.X, prob.y[:, None], size)[0]
        assert path.factored >= 4, name
        for lo in range(1, path.factored + 1, core.FIRST_SET_ROWS):
            hi = min(lo + core.FIRST_SET_ROWS - 1, path.factored)
            gains, stated = core._prefix_gradients(prob, path, lo, path.dense_coefs(lo, hi))
            assert gains.shape == (hi - lo + 1, prob.p)
            for k in range(lo, hi + 1):
                coef = path.coef_at(k)
                fresh = prob.X.T @ (prob.y - prob.X @ coef.beta)
                a = np.linalg.norm(prob.y) + np.sqrt(prob.n) * np.abs(coef.beta).sum()
                bound = 8 * k * eps * np.linalg.cond(R[:k, :k]) * np.sqrt(prob.n) * a
                err = np.abs(gains[k - lo] - fresh).max()
                assert err <= bound, (name, k)
                assert err <= stated[k - lo], (name, k)

    def test_near_dependent_prefixes_take_the_product(self, monkeypatch):
        # Column 5 is column 0 plus a 1e-7 perturbation: from the step that
        # adds the second of them, prefixes are refit by the minimum-norm
        # solver.  The product's bound holds for any coefficient row, so
        # it decides their first sets as it does those of the swept ones.
        rng = np.random.default_rng(60)
        base = rng.standard_normal((40, 5))
        e = rng.standard_normal(40)
        X = np.hstack([base, base[:, [0]] + 1e-7 * e[:, None]])
        prob = standardize(X, base @ np.array([1.0, -1.0, 0.5, 0.0, 0.0]) + 3.0 * e)
        path = forward_stepwise(prob, 6)
        added = [step.added for step in path.steps]
        late = max(added.index(0), added.index(5))
        assert path.factored == late

        product = core._prefix_gradients
        pushed_sizes = []
        for M in (late, late + 1):  # the window is [M, M] at p = 6
            coef = path.coef_at(M)
            step = core._FossStep(prob, M, IterationOptions("foss"))
            first = step.first_set(coef, prob.X.T @ core._residual(prob, coef))
            # The product decides the set: the fresh gradient is never formed.
            with monkeypatch.context() as patch:
                patch.setattr(step, "first_set", None)
                assert [f for _, f in core._restart_points(step, path, M, M)] == [first]
            # Gains pushed towards a column outside that set move the restart.
            outside = min(set(range(prob.p)) - set(first))

            def pushed(problem, fs_path, lo, B):
                gains, bound = product(problem, fs_path, lo, B)
                pushed_sizes.extend(range(lo, lo + B.shape[0]))
                return gains + 1e6 * prob.c * (np.arange(prob.p) == outside), bound

            res = multi_start_foss_fs(prob, M, path)
            with monkeypatch.context() as patch:
                patch.setattr(core, "_prefix_gradients", pushed)
                moved = multi_start_foss_fs(prob, M, path)
            assert moved.rss_trace.tobytes() != res.rss_trace.tobytes()
            fresh = run(prob, coef, M, IterationOptions("foss"))
            assert res.coef.beta.tobytes() == fresh.coef.beta.tobytes()
            assert res.rss_trace.tobytes() == fresh.rss_trace.tobytes()
        assert pushed_sizes == [late, late + 1]


def _recorded_sweep(monkeypatch, prob, size):
    """The sweep of one problem and, per step, the inputs and verdict of
    its ``_pick`` call, with the call on the refreshed scores where the
    downdated ones did not decide the step (else None)."""
    calls = []
    pick = initializers._pick

    def recorded(gains, drift, norms2, candidate):
        j, decided = pick(gains, drift, norms2, candidate)
        calls.append((gains[0].copy(), drift[0], norms2[0].copy(), candidate[0].copy(),
                      int(j[0]), bool(decided[0])))
        return j, decided

    monkeypatch.setattr(initializers, "_pick", recorded)
    factor = initializers._greedy_factor(prob.X, prob.y[:, None], size)[0]
    monkeypatch.undo()
    steps, calls = [], iter(calls)
    for first in calls:
        steps.append((first, None if first[5] else next(calls)))
    return factor, steps


def _exact_response_problem(seed=71):
    # A forced near-tie: the response is exactly twice column 1, so after
    # the first step every score is rounding noise, and which column the
    # noise favours depends on how X'r was formed.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 40))
    return standardize(X, 2.0 * X[:, 1])


DOWNDATE_CASES = {
    **{name: (lambda case=case: case) for name, case in STEPWISE_FACTOR_CASES.items()},
    "wide": lambda: (correlated_problem(70, n=60, p=900, d=4), 59),
    "exact-response": lambda: (_exact_response_problem(), 12),
}


class TestDowndatedScores:
    """The sweep downdates X'r from one product per step and forms it
    afresh where the downdated scores do not decide the step."""

    @pytest.mark.parametrize("name", sorted(DOWNDATE_CASES))
    def test_within_the_drift_bound_of_the_fresh_product(self, monkeypatch, name):
        # At every step the downdated gains are within the stated drift
        # of residual @ X formed afresh (the residual replayed bit for bit
        # from Q and Q'y), a refresh forms exactly that product, and each
        # step adds the column the scores from it choose.
        prob, size = DOWNDATE_CASES[name]()
        (order, Q, _, qty), steps = _recorded_sweep(monkeypatch, prob, size)
        assert len(steps) == order.size
        residual = prob.y[None, :].copy()
        for k, (first, refresh) in enumerate(steps):
            fresh = (residual @ prob.X)[0]
            gains, drift, norms2, candidate, j, _ = first
            assert np.all(np.abs(gains - fresh) <= drift), (name, k)
            if refresh is not None:
                gains, _, norms2, candidate, j, _ = refresh
                assert gains.tobytes() == fresh.tobytes()
            scores = np.full(prob.p, -np.inf)
            np.divide(fresh * fresh, norms2, out=scores, where=candidate)
            rule = int(np.argmax(scores >= scores.max() * (1.0 - initializers.TIE_RTOL)))
            assert order[k] == j == rule, (name, k)
            residual -= Q[:, k] * qty[k]
        refreshed = [k for k, (_, refresh) in enumerate(steps) if refresh is not None]
        assert refreshed[0] == 0  # the first scores are the first product
        if name == "exact-response":
            assert len(refreshed) > 1

    def test_a_tie_at_the_top_is_formed_afresh(self, monkeypatch):
        # Columns 3 and 8 are equal, so at the step that adds column 3
        # their scores tie within TIE_RTOL, which is never decided by
        # downdated scores.
        rng = np.random.default_rng(65)
        X = rng.standard_normal((40, 10))
        X[:, 8] = X[:, 3]
        y = X[:, :4] @ np.array([3.0, -2.5, 2.0, 1.0]) + 0.3 * rng.standard_normal(40)
        (order, *_), steps = _recorded_sweep(monkeypatch, standardize(X, y), 6)
        k = order.tolist().index(3)
        assert 8 not in order.tolist()
        first, refresh = steps[k]
        assert refresh is not None and refresh[4] == 3


class TestSweepMemory:
    """What the sweep holds, counted by tracemalloc."""

    def test_path_keeps_no_row_of_p_per_prefix(self):
        # A 49-step path on 3,000 columns holds its order and the k x k
        # coefficient block: no array has more than one row of p entries
        # (k^2 < p here), and the path holds little beyond k^2 + k words.
        n, p, k = 50, 3000, 49
        prob = correlated_problem(76, n=n, p=p, d=4)
        forward_stepwise(prob, k)  # one-time allocations of a first call
        path, _, held = traced_bytes(forward_stepwise, prob, k)
        arrays = [value for value in vars(path).values() if isinstance(value, np.ndarray)]
        assert {id(path.order), id(path.coefs)} <= {id(a) for a in arrays}
        assert all(a.size <= p for a in arrays)
        assert held <= 8 * (k * k + 2 * k) + 4096

    def test_stale_norms_are_recomputed_in_blocks(self):
        # A rank-10 design on 20,000 columns: after 10 steps every
        # remaining column lies in the selected span, so all of them go
        # stale at once.  The path truncates there only if each of their
        # norms was recomputed.  The sweep's peak stays within O(p) rows,
        # the basis and three n x STALE_BLOCK blocks: far below the
        # n x p block a recompute of all of them at once would take.
        n, p, rank = 40, 20_000, 10
        rng = np.random.default_rng(77)
        X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        prob = standardize(X, X[:, :3] @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(n))
        path, peak, _ = traced_bytes(forward_stepwise, prob, n - 1)
        assert path.order.size == rank
        block = initializers.STALE_BLOCK
        bound = 8 * (16 * p + 2 * n * (n - 1) + 4 * (n - 1) ** 2 + 3 * n * block)
        assert peak <= bound < 8 * n * p


GREEDY_CASES = {
    "random": lambda seed: random_problem(seed, n=40, p=15, d=4),
    "correlated": lambda seed: correlated_problem(seed, n=40, p=15, d=4, rho=0.9),
    "near-collinear": lambda seed: near_collinear_problem(seed),
}


class TestStepwiseIsExactlyGreedy:
    """Checks of the path against separate minimum-norm refits."""

    @pytest.mark.parametrize("case", sorted(GREEDY_CASES))
    @pytest.mark.parametrize("seed", [62, 63, 64])
    def test_each_step_adds_the_best_column(self, case, seed):
        prob = GREEDY_CASES[case](seed)
        path = forward_stepwise(prob, 12)
        chosen: list[int] = []
        for step in path.steps:
            refits = {
                j: rss(prob, refit_subset(prob, chosen + [j]))
                for j in range(prob.p)
                if j not in chosen
            }
            assert refits[step.added] <= min(refits.values()) * (1 + 1e-12)
            chosen.append(step.added)

    def test_duplicate_column_tie_goes_to_smaller_index(self):
        rng = np.random.default_rng(65)
        X = rng.standard_normal((40, 10))
        X[:, 8] = X[:, 3]
        y = X[:, :4] @ np.array([3.0, -2.5, 2.0, 1.0]) + 0.3 * rng.standard_normal(40)
        prob = standardize(X, y)
        assert prob.X[:, 8].tobytes() == prob.X[:, 3].tobytes()
        path = forward_stepwise(prob, 6)
        added = [step.added for step in path.steps]
        assert 3 in added and 8 not in added

    @pytest.mark.parametrize("case", ["correlated", "near-collinear"])
    def test_basis_stays_orthonormal(self, case):
        if case == "correlated":
            prob = correlated_problem(66, n=120, p=400, d=3, rho=0.9)
        else:
            prob = near_collinear_problem(66, n=120, p=160, scale=1e-4)
        order, Q, R, qty = initializers._greedy_factor(prob.X, prob.y[:, None], 60)[0]
        assert len(order) == 60
        assert np.linalg.norm(Q.T @ Q - np.eye(60)) <= 1e-12
        scale = np.sqrt(prob.n)
        np.testing.assert_allclose(Q @ R, prob.X[:, order], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(qty, Q.T @ prob.y, rtol=0, atol=1e-12 * np.linalg.norm(prob.y))


class TestStepwiseBlocks:
    """``forward_stepwise_paths``: the sweeps of several responses on one
    design, in lockstep."""

    @pytest.mark.parametrize("rank", [None, 7])
    def test_each_path_is_its_problems_own(self, rank):
        # With rank 7 every sweep runs out of candidates at step 7 and
        # the whole block leaves together, truncated.  Its last step is a
        # near-tie (every remaining column's new part spans one
        # direction), which rounding decides, so only the steps before
        # it are compared there.
        rng = np.random.default_rng(71)
        X = rng.standard_normal((40, 25))
        if rank:
            X = X[:, :rank] @ rng.standard_normal((rank, 25))
        design = prepare_design(X)
        problems = [bind(design, X[:, :3] @ rng.standard_normal(3) + rng.standard_normal(40))
                    for _ in range(3)]
        paths = forward_stepwise_paths(problems, 12)
        k = rank - 1 if rank else 12
        for problem, path in zip(problems, paths):
            own = forward_stepwise(problem, 12)
            assert path.order.size == own.order.size == (rank or 12)
            np.testing.assert_array_equal(path.order[:k], own.order[:k])
            np.testing.assert_allclose(path.coefs[:k], own.coefs[:k], rtol=1e-9, atol=1e-12)
            assert path.factored == own.factored

    def test_a_block_of_one_is_forward_stepwise_bit_for_bit(self):
        prob = correlated_problem(72, n=60, p=80)
        (path,) = forward_stepwise_paths([prob], 20)
        own = forward_stepwise(prob, 20)
        assert path.order.tobytes() == own.order.tobytes()
        assert path.coefs.tobytes() == own.coefs.tobytes()
        assert path.factored == own.factored

    @pytest.mark.parametrize("seed", [9, 10, 114])
    def test_a_sweep_that_leaves_the_block_early(self, seed):
        # The last column is column 0 plus a perturbation of about 1e-10,
        # so some sweeps run out of rank a step before the others: they
        # leave the block, which goes on without them.  Within a block of
        # two or more, a column's bits do not depend on the block's width.
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((12, 5))
        e = rng.standard_normal(12)
        X = np.hstack([base, base[:, [0]] + 10 ** rng.uniform(-11.5, -9) * e[:, None]])
        design = prepare_design(X)
        responses = (X[:, 0], X[:, 5], rng.standard_normal(12), rng.standard_normal(12))
        problems = [bind(design, y) for y in responses]
        paths = forward_stepwise_paths(problems, 6)
        sizes = [path.order.size for path in paths]
        assert min(sizes) < max(sizes), sizes
        for problem, path in zip(problems, paths):
            pair = forward_stepwise_paths([problem, problem], 6)[0]
            assert path.order.tobytes() == pair.order.tobytes()
            assert path.coefs.tobytes() == pair.coefs.tobytes()
            assert path.factored == pair.factored

    def test_problems_must_share_one_design(self):
        with pytest.raises(ValueError, match="share one design"):
            forward_stepwise_paths([random_problem(73), random_problem(74)], 3)


class TestImprovementWorkflow:
    def test_refit_driver_never_hurts_an_initializer(self):
        for seed in range(10):
            prob = correlated_problem(600 + seed, n=50, p=20, d=4)
            M = 6
            for init in (sis(prob, M), isis(prob, M), forward_stepwise(prob, M).coef_at(M)):
                res = run(prob, init, M, IterationOptions("foss"))
                assert res.final_rss <= rss(prob, init) * (1 + 1e-9)
