import ast
import csv
import errno
import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from subsetscreen import (
    TrueModel,
    child_stream,
    cli,
    exhaustive_best_subset,
    gen_equicorrelated_design,
    gen_response,
    method_catalog,
    standardize,
)
from subsetscreen.cli import InputFileError, main, read_matrix_csv
from subsetscreen.simgen import _read_matrix_fast, _read_matrix_rows, load_base_design

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


# (name, file text, whether np.loadtxt reads it rather than the row parser)
READABLE_CSV = [
    ("header", "a,b,c\n1,2,3\n4,5,6\n", True),
    ("blank_lines", "\n1,2\n\n3,4\n\n", True),
    ("blank_lines_before_header", "\n\nx,y\n\n1,2\n3,4\n", True),
    ("crlf", "a,b\r\n1,2\r\n3,4\r\n", True),
    ("padded_cells", " 1 ,\t2\n  3,4  \n", True),
    ("exponents", "1e-300,2.5E+10,-3e300\n.5,1.,+0\n", True),
    ("single_row", "0.1,0.2,0.3\n", True),
    ("single_column", "v\n0.1\n0.2\n0.3\n", True),
    ("single_cell", "7\n", True),
    ("round_trip_digits", "0.10000000000000001,3.141592653589793\n2.2250738585072014e-308,5e-324\n", True),
    ("underscores", "1_000,2\n3,4_5.5\n", False),
    ("hash_cell_is_a_header", "#,b\n1,2\n", True),
    ("quoted_cells", '"1","2"\n3,"4"\n', False),
    ("quoted_header", '"a,1",b\n1,2\n', True),
    ("whitespace_only_row", "1,2\n , \n3,4\n", False),
    ("bom", "\ufeff1.0,2\n3,4\n", True),
]

MALFORMED_CSV = [
    ("ragged", "1,2\n3,4,5\n"),
    ("short_row", "1,2,3\n4,5\n"),
    ("word", "1,2\n3,oops\n"),
    ("empty_cell", "1,2\n3,\n"),
    ("hash_in_data", "1,2\n3,#\n"),
    ("header_only", "a,b\n\n"),
    ("empty", ""),
    ("blank_only", "\n \n"),
    ("nan_inf", "nan,-nan,NaN\ninf,-inf,Infinity\n"),
    ("overflow", "1e-300,2.5E+10,-3e400\n.5,1.,+0\n"),
]


# What numpy's MemoryError says when an array cannot be allocated.
ALLOCATION_FAILURE = "Unable to allocate 99.0 GiB for an array with shape (114000, 116000)"


class TestReadMatrixCsv:
    """The np.loadtxt path must read exactly what the row parser reads."""

    @pytest.mark.parametrize(
        "text, fast", [c[1:] for c in READABLE_CSV], ids=[c[0] for c in READABLE_CSV]
    )
    def test_fast_path_matches_row_parser_bit_for_bit(self, tmp_path, text, fast):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        expected = _read_matrix_rows(path)
        got = read_matrix_csv(path)
        assert got.dtype == expected.dtype == np.float64
        assert got.shape == expected.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        assert (_read_matrix_fast(path) is not None) == fast

    def test_fast_path_reads_a_large_file(self, tmp_path):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((50, 40)) * 10.0 ** rng.integers(-5, 5, size=(50, 40))
        path = tmp_path / "x.csv"
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        fast = _read_matrix_fast(path)
        assert fast is not None
        assert fast.tobytes() == _read_matrix_rows(path).tobytes() == X.tobytes()

    @pytest.mark.parametrize(
        "text", [c[1] for c in MALFORMED_CSV], ids=[c[0] for c in MALFORMED_CSV]
    )
    def test_malformed_file_fails_like_the_row_parser(self, tmp_path, capsys, text):
        x_path = tmp_path / "x.csv"
        x_path.write_bytes(text.encode())
        y_path = tmp_path / "y.csv"
        y_path.write_text("1\n2\n")
        with pytest.raises(InputFileError) as expected:
            _read_matrix_rows(x_path)
        with pytest.raises(InputFileError) as got:
            read_matrix_csv(x_path)
        assert str(got.value) == str(expected.value)
        assert main(["screen", str(x_path), str(y_path)]) == 2
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        # The same file as a headerless base design.
        with pytest.raises(InputFileError) as expected:
            _read_matrix_rows(x_path, header=False)
        for read in (lambda path: read_matrix_csv(path, header=False), load_base_design):
            with pytest.raises(InputFileError) as got:
                read(x_path)
            assert str(got.value) == str(expected.value)

    def test_missing_file_fails_like_the_row_parser(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(InputFileError) as expected:
            _read_matrix_rows(path)
        for read in (read_matrix_csv, load_base_design):
            with pytest.raises(InputFileError) as got:
                read(path)
            assert str(got.value) == str(expected.value)
        assert str(expected.value) == f"{path}: No such file or directory"


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

    @pytest.mark.parametrize("method", method_catalog())
    def test_all_constant_design_selects_nothing(self, tmp_path, method):
        rng = np.random.default_rng(76)
        X = np.tile(rng.standard_normal(5), (12, 1))
        y = rng.standard_normal(12)
        x_path, y_path = write_xy(tmp_path, X, y)
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--method", method, "-M", "2", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        centered = y - y.mean()
        assert result["selected"] == []
        assert result["rss"] == float(centered @ centered)

    @pytest.mark.parametrize("method", ["sis", "isis", "fs"])
    @pytest.mark.parametrize("flag", [["--rel-tol", "1e-8"], ["--max-iter", "5"]])
    def test_iteration_flag_on_a_basic_method_exits_2(self, tmp_path, capsys, method, flag):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "result.json"
        for prefix, code in (("", 2), ("foss-", 0)):
            argv = ["screen", x_path, y_path, "--method", prefix + method, "-M", "1"]
            assert main([*argv, *flag, "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert flag[0] in capsys.readouterr().err

    def test_wrong_length_response_exits_3_without_output(self, tmp_path):
        rng = np.random.default_rng(72)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, rng.standard_normal(8))
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--out", str(out)]) == 3
        assert not out.exists()

    def test_two_column_response_exits_2_naming_the_file(self, tmp_path, capsys):
        X = np.random.default_rng(73).standard_normal((10, 3))
        x_path, _ = write_xy(tmp_path, X, X[:, 0])
        y_path = tmp_path / "y2.csv"
        np.savetxt(y_path, X[:, :2], delimiter=",")
        out = tmp_path / "result.json"
        assert main(["screen", x_path, str(y_path), "--out", str(out)]) == 2
        assert f"{y_path}:1: expected a single column, found 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_subset_size_below_1_exits_3_naming_the_flag(self, tmp_path, capsys, size):
        rng = np.random.default_rng(75)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "-M", size, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: -M {size} selects nothing: it must be at least 1\n"
        assert not out.exists()

    def test_malformed_cell_exits_2_naming_file_and_line(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
        y_path = tmp_path / "y.csv"
        y_path.write_text("1.0\n2.0\n3.0\n")
        assert main(["screen", str(x_path), str(y_path)]) == 2
        err = capsys.readouterr().err
        assert "x.csv:2" in err

    def test_line_after_a_quoted_line_break_is_named_by_its_line(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_text('"1\n",2\n3,oops\n')
        y_path = tmp_path / "y.csv"
        y_path.write_text("1\n2\n")
        assert main(["screen", str(x_path), str(y_path)]) == 2
        assert capsys.readouterr().err == f"error: {x_path}:3: not a number: 'oops'\n"

    def test_bytes_that_are_not_utf8_exit_2_naming_the_line(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_bytes(b"a,b\n1,2\n3,\xe9\n4,5\n")
        y_path = tmp_path / "y.csv"
        y_path.write_text("1\n2\n3\n")
        assert main(["screen", str(x_path), str(y_path)]) == 2
        assert capsys.readouterr().err == f"error: {x_path}:3: not UTF-8: byte 0xe9\n"

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        rng = np.random.default_rng(74)
        X = rng.standard_normal((5, 2))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0] - X[:, 1])
        for path in map(Path, (x_path, y_path)):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "result.json"
        assert main(["screen", x_path, y_path, "--method", "fs", "-M", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 5

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

    def test_held_out_rows_do_not_keep_the_design_alive(self, tmp_path, monkeypatch):
        # The held-out rows are copied, so once the training rows are
        # standardized nothing holds the design as read while the method
        # runs.
        rng = np.random.default_rng(85)
        X = rng.standard_normal((40, 6))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0] + 0.1 * rng.standard_normal(40))
        read, run_method = cli._read_xy, cli.run_method
        design, alive = [], []

        def recorded_read(*args):
            X, y = read(*args)
            design.append(weakref.ref(X if X.base is None else X.base))
            return X, y

        def recorded_run(*args, **kwargs):
            gc.collect()
            alive.append(design[0]() is not None)
            return run_method(*args, **kwargs)

        monkeypatch.setattr(cli, "_read_xy", recorded_read)
        monkeypatch.setattr(cli, "run_method", recorded_run)
        out = tmp_path / "result.json"
        argv = ["screen", x_path, y_path, "-M", "2", "--test-rows", "5", "--out", str(out)]
        assert main(argv) == 0
        assert alive == [False]
        assert json.loads(out.read_text())["test_rows"] == 5

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

    def test_test_x_without_test_y_exits_2(self, tmp_path, capsys):
        X = np.random.default_rng(84).standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "r.json"
        assert main(["screen", x_path, y_path, "--test-x", x_path, "--out", str(out)]) == 2
        assert "--test-x and --test-y must be given together" in capsys.readouterr().err
        assert not out.exists()

    def test_test_files_with_other_columns_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(85)
        X = rng.standard_normal((10, 5))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        xt = tmp_path / "xt.csv"
        np.savetxt(xt, X[:, :4], delimiter=",")
        argv = ["screen", x_path, y_path, "--test-x", str(xt), "--test-y", y_path]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 3
        assert f"{xt}: has 4 columns but {x_path} has 5" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_held_out_error_exits_2_naming_the_test_files(self, tmp_path, capsys):
        X = np.random.default_rng(86).standard_normal((30, 8))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        xt = tmp_path / "xt.csv"
        np.savetxt(xt, X * 1e307, delimiter=",")
        out = tmp_path / "r.json"
        argv = ["screen", x_path, y_path, "--method", "sis", "-M", "2",
                "--test-x", str(xt), "--test-y", y_path, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert f"held-out squared error on {xt} and {y_path} overflows" in capsys.readouterr().err
        assert list(tmp_path.glob("r.json*")) == []

    def test_out_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        X = np.random.default_rng(87).standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "result"
        out.mkdir()
        assert main(["screen", x_path, y_path, "-M", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.EISDIR)}\n"
        )

    def test_one_row_design_exits_3(self, tmp_path, capsys):
        x_path, y_path = write_xy(tmp_path, np.array([[1.0, 2.0, 3.0]]), np.array([4.0]))
        assert main(["screen", x_path, y_path, "--out", str(tmp_path / "r.json")]) == 3
        assert "not enough rows/columns to select anything" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_method_exits_2(self, tmp_path):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        assert main(["screen", x_path, y_path, "--method", "lar"]) == 2

    @pytest.mark.parametrize("command", ["screen", "oracle"])
    @pytest.mark.parametrize("case", ["mean", "sum of squares", "response"])
    def test_overflowing_standardization_exits_2_without_output(
        self, tmp_path, capsys, command, case
    ):
        rng = np.random.default_rng(74)
        X = rng.standard_normal((12, 4))
        y = X[:, 0] + rng.standard_normal(12)
        if case == "mean":
            X[:, 1] = 1e308
        elif case == "sum of squares":
            X[:, 1] *= 1e200
        else:
            y *= 1e200
        x_path, y_path = write_xy(tmp_path, X, y)
        out = tmp_path / "result.json"
        argv = [command, x_path, y_path, "-M", "2", "--out", str(out)]
        if command == "screen":
            argv += ["--method", "oss-sis"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert ("y overflows" if case == "response" else "column 2 of X overflows") in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_rel_tol_exits_2_without_output(self, tmp_path, capsys, value):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((10, 3))
        x_path, y_path = write_xy(tmp_path, X, X[:, 0])
        out = tmp_path / "result.json"
        argv = ["screen", x_path, y_path, "--method", "oss-sis", "-M", "1", "--rel-tol", value]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert "rel_tol must be finite" in capsys.readouterr().err

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
        expected = np.sort(np.argsort(-np.abs(prob.X.T @ prob.y), kind="stable")[:3]) + 1
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
        # An override of None drops the key.
        path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
        return str(path)

    def test_minimal_run_writes_one_row_per_method(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=1)
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 0
        lines = (out / "aggregate.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 methods
        assert (out / "repetitions.csv").exists()
        assert (out / "manifest.json").exists()

    def test_excluded_repetitions_are_written_with_their_reasons(self, tmp_path, monkeypatch):
        from subsetscreen import experiments

        config = self.base_config(tmp_path, repetitions=3)
        out = tmp_path / "clean"
        assert main(["simulate", config, "--out", str(out)]) == 0
        assert (out / "exclusions.csv").read_text().splitlines() == ["rep,reason"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["exclusions"] == str(out / "exclusions.csv")

        real = experiments._problem

        def flaky(cfg, fixed, rep):
            if rep == 1:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(cfg, fixed, rep)

        monkeypatch.setattr(experiments, "_problem", flaky)
        out = tmp_path / "flaky"
        assert main(["simulate", config, "--out", str(out)]) == 0
        lines = (out / "exclusions.csv").read_text().splitlines()
        assert lines == ["rep,reason", "1,LinAlgError: synthetic failure"]

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=4)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["simulate", config, "--out", str(first), "--workers", "1"]) == 0
        manifest = first / "manifest.json"
        assert main(["simulate", str(manifest), "--out", str(second), "--workers", "2"]) == 0
        assert (first / "repetitions.csv").read_bytes() == (second / "repetitions.csv").read_bytes()
        assert (first / "aggregate.csv").read_bytes() == (second / "aggregate.csv").read_bytes()

    def test_kronecker_repetitions_same_for_one_and_two_workers(self, tmp_path):
        # 96 x 528 Kronecker design, oss-sis at the default max_iter: its
        # runs cross long stretches on one active set in closed form.
        base = tmp_path / "base.csv"
        rng = np.random.default_rng(91)
        np.savetxt(base, rng.choice([-1.0, 1.0], size=(12, 66)), delimiter=",", fmt="%.0f")
        config = self.base_config(
            tmp_path, n=None, p=None, rho=None, d=2, sigma=0.5, beta_value=1.0, M=10,
            repetitions=4, methods=["sis", "oss-sis", "fs", "foss-fs"],
            design={"kind": "kronecker", "base_design_path": str(base), "hadamard_order": 8},
        )
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"run{workers}"
            assert main(["simulate", config, "--out", str(out), "--workers", workers]) == 0
            written.append((out / "repetitions.csv").read_bytes())
        assert written[0] == written[1]
        rows = [line.split(",") for line in written[0].decode().splitlines()[1:]]
        oss = [row for row in rows if row[1] == "oss-sis"]
        assert max(int(row[4]) for row in oss) > 100
        assert {row[-1] for row in oss} == {"converged"}

    def test_schema_violation_names_key(self, tmp_path, capsys):
        config = self.base_config(tmp_path, M=25)
        assert main(["simulate", config]) == 2
        assert "'M'" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert "config.json" in capsys.readouterr().err

    def test_config_not_utf8_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{\n  "n": 30,\n  "note": "caf\xe9"\n}\n')
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert f"{path}:3: not UTF-8: byte 0xe9" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        assert main(["simulate", str(path)]) == 2
        assert f"{path}: No such file or directory" in capsys.readouterr().err

    def test_manifest_records_the_numeric_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        config = self.base_config(tmp_path, repetitions=1)
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "numpy": np.__version__,
            "blas_threads": {
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
            },
            "cpu_count": os.cpu_count(),
        }

    def test_seed_override_changes_streams(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=3)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", config, "--out", str(a)]) == 0
        assert main(["simulate", config, "--out", str(b), "--seed", "6"]) == 0
        assert (a / "repetitions.csv").read_bytes() != (b / "repetitions.csv").read_bytes()

    def test_negative_seed_override_exits_2_naming_the_key(self, tmp_path, capsys):
        config = self.base_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", config, "--seed", "-1", "--out", str(out)]) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_sigma_names_key(self, tmp_path, capsys):
        config = self.base_config(tmp_path, sigma=float("nan"))
        assert main(["simulate", config, "--out", str(tmp_path / "run")]) == 2
        assert "'sigma'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_every_repetition_excluded_exits_2_without_output(self, tmp_path, capsys):
        # every response overflows, so every repetition is excluded
        config = self.base_config(tmp_path, beta_value=1e308)
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "repetition 0" in err and "non-finite" in err
        assert not out.exists()

    def test_overflowing_response_names_the_cause(self, tmp_path, capsys):
        config = self.base_config(tmp_path, beta_value=1e308)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", config, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "X @ beta overflowed; beta_value=1e+308" in capsys.readouterr().err

    def test_overflowing_noise_names_sigma(self, tmp_path, capsys):
        # At 100 rows some sigma * z overflows in every repetition.
        config = self.base_config(tmp_path, n=100, sigma=1e308)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", config, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "sigma=1e+308 makes the response non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_repetition_whose_response_overflows_is_excluded(self, tmp_path):
        # At this beta_value the response and its sum of squares are finite
        # in every repetition, but 4 c times that sum overflows in
        # repetitions 1 and 4.
        config = self.base_config(tmp_path, beta_value=1.105e152, repetitions=6)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", config, "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        reason = (
            "ValueError: y overflows when centered: its mean, or its sum of squares "
            "times 4 c (c the design's spectral constant), is not finite"
        )
        with open(out / "exclusions.csv") as handle:
            excluded = [(row["rep"], row["reason"]) for row in csv.DictReader(handle)]
        assert excluded == [("1", reason), ("4", reason)]
        with open(out / "repetitions.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert {int(row["rep"]) for row in rows} == {0, 2, 3, 5}
        assert all(math.isfinite(float(row["rss"])) for row in rows)

    def kronecker_config(self, tmp_path, base_rows):
        base = tmp_path / "base.csv"
        base.write_text("".join(row + "\n" for row in base_rows))
        return self.base_config(
            tmp_path, n=None, p=None, rho=None, d=1, beta_value=1.0, M=2,
            repetitions=3, methods=["sis", "fs"],
            design={"kind": "kronecker", "base_design_path": str(base), "hadamard_order": 2},
        )

    def test_nonfinite_base_design_names_the_file(self, tmp_path, capsys):
        config = self.kronecker_config(tmp_path, ["1,-1,1", "1,nan,-1", "-1,1,1", "-1,-1,-1"])
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "design.base_design_path" in err
        assert "base.csv:2: non-finite entry" in err
        assert "beta_value" not in err
        assert not out.exists()

    def test_base_design_not_utf8_names_the_line(self, tmp_path, capsys):
        config = self.kronecker_config(tmp_path, ["1,-1,1", "1,1,-1", "-1,1,1", "-1,-1,-1"])
        base = tmp_path / "base.csv"
        base.write_bytes(b"1,-1,1\n1,1,-1\n-1,\xe9,1\n-1,-1,-1\n")
        out = tmp_path / "run"
        assert main(["simulate", config, "--out", str(out)]) == 2
        assert f"{base}:3: not UTF-8: byte 0xe9" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_base_design_names_the_file_without_a_line(self, tmp_path, capsys):
        config = self.kronecker_config(tmp_path, ["1,-1", "-1,1"])
        base = tmp_path / "base.csv"
        base.unlink()
        assert main(["simulate", config, "--out", str(tmp_path / "run")]) == 2
        assert f"{base}: No such file or directory" in capsys.readouterr().err

    def test_non_two_level_base_design_warns_once(self, tmp_path):
        config = self.kronecker_config(tmp_path, ["1,-1,1", "1,0.5,-1", "-1,1,1", "-1,-1,-1"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", config, "--out", str(tmp_path / "run")]) == 0
        messages = [str(w.message) for w in caught]
        assert sum("other than +-1" in m for m in messages) == 1, messages

    def test_max_iter_without_an_iterated_method_exits_2(self, tmp_path, capsys):
        config = self.base_config(tmp_path, methods=["sis", "fs"])
        out = tmp_path / "run"
        assert main(["simulate", config, "--max-iter", "5", "--out", str(out)]) == 2
        assert "max_iter" in capsys.readouterr().err
        assert not out.exists()

    def test_rel_tol_without_an_iterated_method_exits_2(self, tmp_path, capsys):
        config = self.base_config(tmp_path, methods=["sis", "fs"])
        out = tmp_path / "run"
        assert main(["simulate", config, "--rel-tol", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --rel-tol applies only to oss- and foss- methods, not ('sis', 'fs')\n"
        )
        assert not out.exists()

    def test_manifest_without_an_iterated_method_replays(self, tmp_path):
        # Every manifest carries rel_tol, so the key itself stays accepted.
        config = self.base_config(tmp_path, methods=["sis", "fs"], repetitions=1)
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["simulate", config, "--out", str(first)]) == 0
        assert "rel_tol" in json.loads((first / "manifest.json").read_text())["config"]
        assert main(["simulate", str(first / "manifest.json"), "--out", str(replay)]) == 0
        rows = (first / "repetitions.csv").read_bytes()
        assert rows == (replay / "repetitions.csv").read_bytes()

    def test_iteration_overrides_are_recorded_in_the_manifest(self, tmp_path):
        config = self.base_config(tmp_path, repetitions=1)
        out = tmp_path / "run"
        argv = ["simulate", config, "--rel-tol", "0.5", "--max-iter", "3", "--out", str(out)]
        assert main(argv) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert (recorded["rel_tol"], recorded["max_iter"]) == (0.5, 3)

    @pytest.mark.parametrize("below", [True, False], ids=["below-a-file", "a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_repetition(
        self, tmp_path, capsys, monkeypatch, below
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a repetition ran")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        config = self.base_config(tmp_path)
        blocker = tmp_path / "a_file"
        blocker.write_text("kept\n")
        out = blocker / "sim" if below else blocker
        reason = os.strerror(errno.ENOTDIR if below else errno.EEXIST)
        assert main(["simulate", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exits_2(self, tmp_path, workers):
        config = self.base_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", config, "--workers", workers, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, error, message",
        [
            ("_fixed_design", MemoryError(ALLOCATION_FAILURE), ALLOCATION_FAILURE),
            ("_problem", MemoryError(), "out of memory"),
        ],
        ids=["design", "repetition"],
    )
    def test_out_of_memory_exits_2_and_removes_the_directories_it_made(
        self, tmp_path, capsys, monkeypatch, target, error, message
    ):
        from subsetscreen import experiments

        def allocate(*args):
            raise error

        monkeypatch.setattr(experiments, target, allocate)
        config = self.base_config(tmp_path)
        out = tmp_path / "new" / "run"
        assert main(["simulate", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "new").exists()

    def test_interrupted_run_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        config = self.base_config(tmp_path)
        out = tmp_path / "new" / "run"
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", config, "--out", str(out)])
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["screen", "oracle"])
def test_out_of_memory_exits_2_without_output(tmp_path, capsys, monkeypatch, command):
    def allocate(X, y):
        raise MemoryError(ALLOCATION_FAILURE)

    monkeypatch.setattr(cli, "standardize", allocate)
    X = np.random.default_rng(89).standard_normal((10, 3))
    x_path, y_path = write_xy(tmp_path, X, X[:, 0])
    out = tmp_path / "r.json"
    assert main([command, x_path, y_path, "-M", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {ALLOCATION_FAILURE}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["screen", "oracle"])
def test_out_in_a_missing_directory_exits_2_naming_it(tmp_path, capsys, command):
    X = np.random.default_rng(88).standard_normal((10, 3))
    x_path, y_path = write_xy(tmp_path, X, X[:, 0])
    out = tmp_path / "missing" / "r.json"
    assert main([command, x_path, y_path, "-M", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
    assert not out.parent.exists()


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


SRC = Path(__file__).resolve().parent.parent / "src"


def _modules_after_command(tmp_path, command):
    """The modules a fresh interpreter holds after running ``command``
    on a small input."""
    rng = np.random.default_rng(83)
    X = rng.standard_normal((12, 5))
    x_path, y_path = write_xy(tmp_path, X, X[:, 0] + 0.1 * rng.standard_normal(12))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 20, "p": 8, "d": 2, "rho": 0.0, "sigma": 1.0, "beta_value": 3.0,
        "M": 3, "repetitions": 1, "methods": ["sis", "foss-fs"], "seed": 1,
    }))
    argv = {
        "screen": ["screen", x_path, y_path, "-M", "2"],
        "simulate": ["simulate", str(config)],
        "simulate --workers 1": ["simulate", str(config), "--workers", "1"],
        "oracle": ["oracle", x_path, y_path, "-M", "2"],
    }[command]
    script = (
        "import sys\n"
        "from subsetscreen.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", ["screen", "simulate", "oracle"])
def test_no_command_imports_scipy(tmp_path, command):
    # Importing scipy.linalg would cost about 0.3 s of start-up per call.
    modules = _modules_after_command(tmp_path, command)
    assert [m for m in modules if m.startswith("scipy")] == []


@pytest.mark.parametrize("command", ["screen", "oracle", "simulate --workers 1"])
def test_no_command_imports_a_process_pool(tmp_path, command):
    # The pool's modules are a few MB of every call's peak that a run in
    # one process never uses.
    modules = _modules_after_command(tmp_path, command)
    assert "concurrent.futures.process" not in modules
    assert [m for m in modules if m.split(".")[0] == "multiprocessing"] == []
