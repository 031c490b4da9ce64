import numpy as np
import pytest

from subsetscreen import (
    GenerativeModel,
    TrueModel,
    child_stream,
    gen_equicorrelated_design,
    gen_response,
    kronecker_design,
    load_base_design,
    standardize,
    sylvester_hadamard,
)


class TestChildStreams:
    def test_replay_is_exact(self):
        a = child_stream(123, 5, "design").standard_normal(16)
        b = child_stream(123, 5, "design").standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_tags_and_reps_differ(self):
        base = child_stream(123, 5, "design").standard_normal(16)
        other_tag = child_stream(123, 5, "response").standard_normal(16)
        other_rep = child_stream(123, 6, "design").standard_normal(16)
        other_seed = child_stream(124, 5, "design").standard_normal(16)
        assert not np.array_equal(base, other_tag)
        assert not np.array_equal(base, other_rep)
        assert not np.array_equal(base, other_seed)


class TestEquicorrelatedDesign:
    def test_rho_zero_is_iid_standard_normal(self):
        X = gen_equicorrelated_design(20000, 3, 0.0, child_stream(1, 0, "design"))
        assert abs(X.mean()) < 0.02
        assert abs(X.var() - 1.0) < 0.03
        corr = np.corrcoef(X.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_sample_correlation_near_target(self):
        X = gen_equicorrelated_design(10000, 5, 0.5, child_stream(2, 0, "design"))
        corr = np.corrcoef(X.T)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off - 0.5) < 0.05)
        assert np.all(np.abs(np.var(X, axis=0) - 1.0) < 0.1)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            gen_equicorrelated_design(10, 2, 1.0, child_stream(3, 0, "design"))
        with pytest.raises(ValueError):
            gen_equicorrelated_design(10, 2, -0.1, child_stream(3, 0, "design"))

    def test_standardizes_without_degenerate_columns(self):
        X = gen_equicorrelated_design(60, 20, 0.5, child_stream(4, 0, "design"))
        y = gen_response(
            X,
            TrueModel(support=np.arange(2), beta=np.array([3.0, 3.0] + [0.0] * 18), sigma=1.0),
            child_stream(4, 0, "response"),
        )
        prob = standardize(X, y)
        assert not prob.degenerate.any()


class TestResponse:
    def test_zero_noise_limit(self):
        rng = child_stream(5, 0, "design")
        X = rng.standard_normal((12, 4))
        beta = np.array([1.0, 0.0, -2.0, 0.0])
        tm = TrueModel(support=np.array([0, 2]), beta=beta, sigma=0.0)
        y = gen_response(X, tm, child_stream(5, 0, "response"))
        np.testing.assert_array_equal(y, X @ beta)

    def test_pure_noise_variance(self):
        beta = np.zeros(3)
        tm = TrueModel(support=np.zeros(0, dtype=int), beta=beta, sigma=2.0)
        X = gen_equicorrelated_design(10000, 3, 0.0, child_stream(6, 0, "design"))
        y = gen_response(X, tm, child_stream(6, 0, "response"))
        assert abs(np.var(y) - 4.0) < 0.4

    def test_replay_bit_for_bit(self):
        X = gen_equicorrelated_design(30, 6, 0.3, child_stream(7, 1, "design"))
        tm = GenerativeModel(30, 6, 2, 0.3, 1.0, 3.0, seed=7).true_model()
        first = gen_response(X, tm, child_stream(7, 1, "response"))
        second = gen_response(X, tm, child_stream(7, 1, "response"))
        np.testing.assert_array_equal(first, second)

    def test_overflowing_noise_names_sigma(self):
        X = gen_equicorrelated_design(100, 3, 0.0, child_stream(9, 0, "design"))
        tm = TrueModel(support=np.array([0]), beta=np.array([1.0, 0.0, 0.0]), sigma=1e308)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ValueError, match="sigma=1e\\+308 makes the response non-finite"):
                gen_response(X, tm, child_stream(9, 0, "response"))

    def test_dimension_check(self):
        tm = TrueModel(support=np.array([0]), beta=np.array([1.0, 0.0]), sigma=1.0)
        with pytest.raises(ValueError):
            gen_response(np.ones((5, 3)), tm, child_stream(8, 0, "response"))


class TestGenerativeModel:
    def test_true_model_support(self):
        model = GenerativeModel(50, 10, 3, 0.0, 1.0, 3.0, seed=1)
        tm = model.true_model()
        np.testing.assert_array_equal(tm.support, [0, 1, 2])
        np.testing.assert_array_equal(np.flatnonzero(tm.beta), tm.support)
        assert np.all(tm.beta[tm.support] == 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerativeModel(50, 10, 11, 0.0, 1.0, 3.0, seed=1)
        with pytest.raises(ValueError):
            GenerativeModel(50, 10, 3, 1.0, 1.0, 3.0, seed=1)
        with pytest.raises(ValueError):
            GenerativeModel(50, 10, 3, 0.0, 0.0, 3.0, seed=1)
        with pytest.raises(ValueError, match="n must be at least 2"):
            GenerativeModel(1, 10, 3, 0.0, 1.0, 3.0, seed=1)
        with pytest.raises(ValueError, match="p must be at least 1"):
            GenerativeModel(50, 0, 0, 0.0, 1.0, 3.0, seed=1)


class TestHadamard:
    def test_small_orders(self):
        np.testing.assert_array_equal(sylvester_hadamard(1), [[1.0]])
        np.testing.assert_array_equal(sylvester_hadamard(2), [[1.0, 1.0], [1.0, -1.0]])

    def test_order_four_orthogonality(self):
        H = sylvester_hadamard(4)
        np.testing.assert_array_equal(H @ H.T, 4.0 * np.eye(4))
        assert np.all(np.abs(H) == 1.0)

    def test_rejects_non_power_of_two(self):
        for m in (0, 3, 6, -2):
            with pytest.raises(ValueError):
                sylvester_hadamard(m)


class TestKroneckerDesign:
    def _base(self, seed, n0=12, p0=66):
        rng = np.random.default_rng(seed)
        return rng.choice([-1.0, 1.0], size=(n0, p0))

    def test_paper_scale_shapes(self):
        D = self._base(9)
        assert kronecker_design(sylvester_hadamard(2), D).shape == (24, 132)
        assert kronecker_design(sylvester_hadamard(4), D).shape == (48, 264)

    def test_identity_factor(self):
        D = self._base(10, n0=4, p0=7)
        np.testing.assert_array_equal(kronecker_design(np.array([[1.0]]), D), D)

    def test_entry_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.choice([1, 2, 4]))
            H = sylvester_hadamard(m)
            n0, p0 = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            D = rng.choice([-1.0, 1.0], size=(n0, p0))
            K = kronecker_design(H, D)
            for _ in range(20):
                i, j = int(rng.integers(0, m)), int(rng.integers(0, m))
                r, s = int(rng.integers(0, n0)), int(rng.integers(0, p0))
                assert K[i * n0 + r, j * p0 + s] == H[i, j] * D[r, s]

    def test_rejects_non_hadamard(self):
        D = self._base(12, n0=3, p0=4)
        with pytest.raises(ValueError):
            kronecker_design(np.ones((2, 2)), D)

    def test_rejects_misshapen_factors(self):
        D = self._base(13, n0=3, p0=4)
        with pytest.raises(ValueError, match="square"):
            kronecker_design(np.ones((2, 1)), D)
        with pytest.raises(ValueError, match="D must be 2-D"):
            kronecker_design(sylvester_hadamard(2), D[0])

    def test_warns_on_non_two_level_base(self):
        H = sylvester_hadamard(2)
        D = np.array([[1.0, 0.5], [-1.0, 1.0]])
        with pytest.warns(UserWarning):
            kronecker_design(H, D)


class TestBaseDesignFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        D = rng.choice([-1.0, 1.0], size=(6, 9))
        path = tmp_path / "base.csv"
        np.savetxt(path, D, delimiter=",", fmt="%.0f")
        loaded = load_base_design(path)
        np.testing.assert_array_equal(loaded, D)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,1\n-1,{cell}\n")
        with pytest.raises(ValueError, match="bad.csv:2: non-finite entry"):
            load_base_design(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1\n\n-1,1,1\n")
        with pytest.raises(ValueError, match="bad.csv:3: expected 2 columns, found 3"):
            load_base_design(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_bytes(b"\xef\xbb\xbf1,-1\n-1,1\n")
        np.testing.assert_array_equal(load_base_design(path), [[1.0, -1.0], [-1.0, 1.0]])

    def test_header_row_is_not_a_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,-1\n")
        with pytest.raises(ValueError, match="bad.csv:1: not a number: 'a'"):
            load_base_design(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1\n1,x\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            load_base_design(path)
