import json

import numpy as np
import pytest

from subsetscreen import (
    TrueModel,
    child_stream,
    exhaustive_best_subset,
    gen_equicorrelated_design,
    gen_response,
    standardize,
)
from subsetscreen.cli import main

from _support import orthogonal_design


def write_xy(tmp_path, X, y, header=False):
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    if header:
        names = ",".join(f"v{j}" for j in range(X.shape[1]))
        body = "\n".join(",".join(repr(float(v)) for v in row) for row in X)
        x_path.write_text(names + "\n" + body + "\n")
    else:
        np.savetxt(x_path, X, delimiter=",")
    np.savetxt(y_path, y[:, None], delimiter=",")
    return str(x_path), str(y_path)


class TestScreen:
    def test_toy_exact_signal(self, tmp_path):
        rng = np.random.default_rng(70)
        X = rng.standard_normal((10, 3))
        y = X[:, 0].copy()
        x_path, y_path = write_xy(tmp_path, X, y)
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert 1 in result["selected"]  # 1-based
        assert result["rss"] <= 1e-10
        assert (tmp_path / "result.json.manifest.json").exists()

    def test_header_detection(self, tmp_path):
        rng = np.random.default_rng(71)
        X = rng.standard_normal((12, 4))
        y = X[:, 1] * 2.0
        x_path, y_path = write_xy(tmp_path, X, y, header=True)
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--method", "fs", "-M", "2", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["selected"][0] == 2

    def test_wrong_length_response_exits_3_without_output(self, tmp_path):
        rng = np.random.default_rng(72)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, rng.standard_normal(8))
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--out", str(out)]) == 3
        assert not out.exists()

    def test_malformed_cell_exits_2_naming_file_and_line(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
        y_path = tmp_path / "y.csv"
        y_path.write_text("1.0\n2.0\n3.0\n")
        assert main(["screen", str(x_path), str(y_path)]) == 2
        err = capsys.readouterr().err
        assert "x.csv:2" in err

    def test_recovers_known_support_and_test_error(self, tmp_path):
        n, p, d, sigma = 230, 50, 5, 1.0
        X = gen_equicorrelated_design(n, p, 0.0, child_stream(1234, 0, "design"))
        beta = np.zeros(p)
        beta[:d] = 3.0
        tm = TrueModel(support=np.arange(d), beta=beta, sigma=sigma)
        y = gen_response(X, tm, child_stream(1234, 0, "response"))
        x_path, y_path = write_xy(tmp_path, X, y)
        out = tmp_path / "result.json"
        rc = main(
            ["screen", x_path, y_path, "-M", "20", "--test-rows", "30", "--out", str(out)]
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert set(range(1, d + 1)) <= set(result["selected"])
        assert result["test_mse"] <= 2.0 * sigma**2
        assert result["n"] == 200 and result["test_rows"] == 30

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_out_of_range_test_rows_exits_3(self, tmp_path, rows):
        rng = np.random.default_rng(79)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--test-rows", rows, "--out", str(out)]) == 3
        assert not out.exists()

    def test_test_rows_with_test_files_exits_2(self, tmp_path):
        rng = np.random.default_rng(83)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        argv = ["screen", x_path, y_path, "--test-x", x_path, "--test-y", y_path]
        assert main([*argv, "--test-rows", "2", "--out", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "r.json").exists()

    def test_unknown_method_exits_2(self, tmp_path):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        assert main(["screen", x_path, y_path, "--method", "lar"]) == 2

    def test_refit_method_reports_no_worse_rss(self, tmp_path):
        # The per-step guarantee (a refit step never fits worse than the
        # plain step) does not force both drivers to a common limit, so
        # this checks the typical case on a seed where both converge to
        # the same basin.
        rng = np.random.default_rng(80)
        X = rng.standard_normal((50, 20))
        y = X[:, :4] @ np.array([2.0, -1.5, 1.0, 2.5]) + rng.standard_normal(50)
        x_path, y_path = write_xy(tmp_path, X, y)
        results = {}
        for method in ("oss-sis", "foss-sis"):
            out = tmp_path / f"{method}.json"
            assert main(
                ["screen", x_path, y_path, "--method", method, "-M", "6", "--out", str(out)]
            ) == 0
            results[method] = json.loads(out.read_text())["rss"]
        assert results["foss-sis"] <= results["oss-sis"] * (1 + 1e-9)

    def test_separate_test_files(self, tmp_path):
        rng = np.random.default_rng(74)
        X = rng.standard_normal((40, 6))
        y = 2.0 * X[:, 3] + 0.1 * rng.standard_normal(40)
        x_path, y_path = write_xy(tmp_path, X[:30], y[:30])
        xt = tmp_path / "xt.csv"
        yt = tmp_path / "yt.csv"
        np.savetxt(xt, X[30:], delimiter=",")
        np.savetxt(yt, y[30:, None], delimiter=",")
        out = tmp_path / "result.json"
        rc = main(
            [
                "screen", x_path, y_path, "-M", "2", "--method", "foss-sis",
                "--test-x", str(xt), "--test-y", str(yt), "--out", str(out),
            ]
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert 4 in result["selected"]
        assert result["test_mse"] < 0.1


class TestOracle:
    def test_matches_library_call(self, tmp_path):
        rng = np.random.default_rng(75)
        X = rng.standard_normal((25, 6))
        y = X[:, 1] - X[:, 4] + 0.2 * rng.standard_normal(25)
        x_path, y_path = write_xy(tmp_path, X, y)
        out = tmp_path / "oracle.json"
        assert main(["oracle", x_path, y_path, "-M", "2", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        res = exhaustive_best_subset(standardize(X, y), 2)
        assert result["selected"] == [int(j) + 1 for j in res.coef.active]
        assert result["rss"] == pytest.approx(res.final_rss, rel=1e-12)

    def test_cap_exit_code_and_count(self, tmp_path, capsys):
        rng = np.random.default_rng(76)
        X = rng.standard_normal((20, 500))
        y = rng.standard_normal(20)
        x_path, y_path = write_xy(tmp_path, X, y)
        assert main(["oracle", x_path, y_path, "-M", "30"]) == 4
        err = capsys.readouterr().err
        assert "C(500, 30)" in err

    def test_negative_subset_size_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "oracle.json"
        assert main(["oracle", x_path, y_path, "-M", "-1", "--out", str(out)]) == 3
        assert "M = -1" in capsys.readouterr().err
        assert not out.exists()

    def test_orthogonal_design_matches_marginal_ranking(self, tmp_path):
        X = orthogonal_design(77, n=30, p=7)
        rng = np.random.default_rng(78)
        y = rng.standard_normal(30)
        x_path, y_path = write_xy(tmp_path, X, y)
        out = tmp_path / "oracle.json"
        assert main(["oracle", x_path, y_path, "-M", "3", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        prob = standardize(X, y)
        expected = np.sort(np.argsort(-np.abs(prob.xty), kind="stable")[:3]) + 1
        assert result["selected"] == expected.tolist()


class TestSimulate:
    def base_config(self, tmp_path, **overrides):
        raw = {
            "n": 30, "p": 10, "d": 2, "rho": 0.0, "sigma": 1.0,
            "beta_value": 3.0, "M": 4, "repetitions": 2,
            "methods": ["sis", "foss-sis"], "seed": 5,
        }
        raw.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_minimal_run_writes_one_row_per_method(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=1)
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 0
        lines = (out / "aggregate.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 methods
        assert (out / "repetitions.csv").exists()
        assert (out / "manifest.json").exists()

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=4)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["simulate", config, "--out", str(first), "--workers", "1"]) == 0
        manifest = first / "manifest.json"
        assert main(["simulate", str(manifest), "--out", str(second), "--workers", "2"]) == 0
        assert (first / "repetitions.csv").read_bytes() == (second / "repetitions.csv").read_bytes()
        assert (first / "aggregate.csv").read_bytes() == (second / "aggregate.csv").read_bytes()

    def test_schema_violation_names_key(self, tmp_path, capsys):
        config = self.base_config(tmp_path, M=25)
        assert main(["simulate", config]) == 2
        assert "'M'" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert "config.json" in capsys.readouterr().err

    def test_seed_override_changes_streams(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=3)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", config, "--out", str(a)]) == 0
        assert main(["simulate", config, "--out", str(b), "--seed", "6"]) == 0
        assert (a / "repetitions.csv").read_bytes() != (b / "repetitions.csv").read_bytes()

    def test_nonfinite_sigma_names_key(self, tmp_path, capsys):
        config = self.base_config(tmp_path, sigma=float("nan"))
        assert main(["simulate", config, "--out", str(tmp_path / "run")]) == 2
        assert "'sigma'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_repetition_excluded_exits_2_without_output(self, tmp_path, capsys):
        # every response overflows, so every repetition is excluded
        config = self.base_config(tmp_path, beta_value=1e308)
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "repetition 0" in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exits_2(self, tmp_path, workers):
        config = self.base_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", config, "--workers", workers, "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("screen", ["--seed", "1"]),
        ("screen", ["--workers", "2"]),
        ("oracle", ["--seed", "1"]),
        ("oracle", ["--workers", "2"]),
        ("oracle", ["--rel-tol", "1e-8"]),
        ("oracle", ["--max-iter", "5"]),
    ],
)
def test_flag_a_subcommand_does_not_use_exits_2(tmp_path, command, flag):
    rng = np.random.default_rng(82)
    X = rng.standard_normal((10, 3))
    x_path, y_path = write_xy(tmp_path, X, X[:, 0])
    with pytest.raises(SystemExit) as exc:
        main([command, x_path, y_path, "-M", "1", *flag])
    assert exc.value.code == 2
