import concurrent.futures
import dataclasses
import itertools
import os
import pickle

import numpy as np
import pytest

from subsetscreen import (
    ConfigError,
    RepetitionRecord,
    aggregate_records,
    bind,
    config_from_dict,
    config_to_dict,
    evaluate_repetition,
    load_repetition_records,
    method_catalog,
    prepare_design,
    run_experiment,
    run_method,
    write_method_table,
    write_repetition_records,
)
from subsetscreen import experiments


def small_config(**overrides):
    raw = {
        "n": 40,
        "p": 15,
        "d": 3,
        "rho": 0.0,
        "sigma": 1.0,
        "beta_value": 3.0,
        "M": 6,
        "repetitions": 4,
        "methods": ["sis", "foss-sis", "fs", "foss-fs"],
        "seed": 77,
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestConfig:
    def test_catalog(self):
        assert method_catalog() == (
            "sis", "isis", "fs", "oss-sis", "oss-isis", "oss-fs",
            "foss-sis", "foss-isis", "foss-fs",
        )

    def test_valid_roundtrip(self):
        config = small_config()
        again = config_from_dict(config_to_dict(config))
        assert again == config

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"rho": 1.2}, "rho"),
            ({"sigma": 0.0}, "sigma"),
            ({"M": 40}, "M"),
            ({"M": 0}, "M"),
            ({"d": 16}, "d"),
            ({"repetitions": 0}, "repetitions"),
            ({"methods": []}, "methods"),
            ({"methods": ["lar"]}, "methods"),
            ({"banana": 1}, "banana"),
            ({"seed": "abc"}, "seed"),
            ({"sigma": float("nan")}, "sigma"),
            ({"sigma": 10**400}, "sigma"),
            ({"beta_value": float("inf")}, "beta_value"),
            ({"rel_tol": float("nan")}, "rel_tol"),
            ({"methods": ["sis", "SIS"]}, "methods"),
            # Settings no listed method would use.
            ({"max_iter": 5}, "max_iter"),
            ({"methods": ["sis", "isis", "fs"], "max_iter": 5}, "max_iter"),
            ({"isis_batch": 2}, "isis_batch"),
            ({"methods": ["foss-sis", "fs"], "isis_batch": 2}, "isis_batch"),
            # Out of range, though an integer.
            ({"seed": -1}, "seed"),
            ({"rel_tol": -1e-6}, "rel_tol"),
            ({"methods": ["isis"], "isis_batch": 7}, "isis_batch"),
            # Of the wrong type.
            ({"sigma": "1.0"}, "sigma"),
            ({"methods": ["sis", 3]}, "methods"),
            ({"design": "kronecker"}, "design"),
            ({"design": {"kind": "bogus"}}, "design.kind"),
            ({"design": {"kind": ["kronecker"]}}, "design.kind"),
            # A key the design's kind does not read.
            (
                {"design": {"kind": "equicorrelated", "base_design_path": "nope.csv", "typo": 1}},
                "design.base_design_path",
            ),
            ({"design": {"kind": "equicorrelated", "typo": 1}}, "design.typo"),
        ],
    )
    def test_violations_name_the_key(self, overrides, key):
        raw = {
            "n": 40, "p": 15, "d": 3, "rho": 0.0, "sigma": 1.0,
            "beta_value": 3.0, "M": 6, "repetitions": 4,
            "methods": ["sis"], "seed": 77,
        }
        raw.update(overrides)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.key == key

    @pytest.mark.parametrize(
        "overrides",
        [
            {"methods": ["oss-sis"], "max_iter": 5},
            {"methods": ["sis", "foss-fs"], "max_iter": 5},
            {"methods": ["isis"], "isis_batch": 2},
            {"methods": ["fs", "foss-isis"], "isis_batch": 2},
            # Every manifest carries rel_tol, iterated methods or not.
            {"methods": ["sis"], "rel_tol": 1e-6},
        ],
    )
    def test_settings_a_listed_method_uses_are_accepted(self, overrides):
        raw = {
            "n": 40, "p": 15, "d": 3, "rho": 0.0, "sigma": 1.0,
            "beta_value": 3.0, "M": 6, "repetitions": 4, "seed": 77, **overrides,
        }
        config = config_from_dict(raw)
        assert config_from_dict(config_to_dict(config)) == config

    def test_missing_key_named(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"n": 40})
        assert err.value.key == "p"

    def test_missing_number_named(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"n": 40, "p": 15})
        assert err.value.key == "rho"

    @pytest.mark.parametrize("raw", [[], "config", None])
    def test_root_that_is_not_an_object_is_named(self, raw):
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.key == "<root>"

    def test_kronecker_dimensions_from_file(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "base.csv"
        np.savetxt(path, rng.choice([-1.0, 1.0], size=(6, 10)), delimiter=",", fmt="%.0f")
        config = config_from_dict(
            {
                "d": 3, "sigma": 1.0, "beta_value": 1.0, "M": 5,
                "repetitions": 2, "methods": ["sis"], "seed": 3,
                "design": {"kind": "kronecker", "base_design_path": str(path), "hadamard_order": 2},
            }
        )
        assert (config.model.n, config.model.p) == (12, 20)

    def test_kronecker_dimension_conflict_named(self, tmp_path):
        rng = np.random.default_rng(15)
        path = tmp_path / "base.csv"
        np.savetxt(path, rng.choice([-1.0, 1.0], size=(6, 10)), delimiter=",", fmt="%.0f")
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "n": 99, "d": 3, "sigma": 1.0, "beta_value": 1.0, "M": 5,
                    "repetitions": 2, "methods": ["sis"], "seed": 3,
                    "design": {"kind": "kronecker", "base_design_path": str(path), "hadamard_order": 2},
                }
            )
        assert err.value.key == "n"

    @pytest.mark.parametrize(
        "design, overrides, key",
        [
            ({"base_design_path": None}, {}, "design.base_design_path"),
            ({"hadamard_order": 3}, {}, "design.hadamard_order"),
            ({}, {"p": 21}, "p"),
            ({"hadamard_ordr": 64}, {}, "design.hadamard_ordr"),
        ],
    )
    def test_kronecker_violations_name_the_key(self, tmp_path, design, overrides, key):
        path = tmp_path / "base.csv"
        np.savetxt(path, np.ones((6, 10)), delimiter=",", fmt="%.0f")
        design = {"kind": "kronecker", "base_design_path": str(path), "hadamard_order": 2, **design}
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "d": 3, "sigma": 1.0, "beta_value": 1.0, "M": 5, "repetitions": 2,
                    "methods": ["sis"], "seed": 3, "design": design, **overrides,
                }
            )
        assert err.value.key == key

    @pytest.mark.parametrize("rho", [0.0, 0.9, "abc"])
    def test_kronecker_rejects_rho(self, tmp_path, rho):
        path = tmp_path / "base.csv"
        np.savetxt(path, np.ones((6, 10)), delimiter=",", fmt="%.0f")
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "rho": rho, "d": 3, "sigma": 1.0, "beta_value": 1.0, "M": 5,
                    "repetitions": 2, "methods": ["sis"], "seed": 3,
                    "design": {"kind": "kronecker", "base_design_path": str(path), "hadamard_order": 2},
                }
            )
        assert err.value.key == "rho"


class TestEvaluateRepetition:
    def test_noiseless_identifiable_case(self):
        config = small_config(
            n=40, p=6, d=2, sigma=1e-6, M=3, methods=["sis", "isis", "fs", "foss-fs"]
        )
        outcomes = evaluate_repetition(config, 0)
        for outcome in outcomes.values():
            assert {0, 1} <= set(tuple(outcome.coef.active))
            assert outcome.final_rss <= 1e-6

    def test_same_rep_is_deterministic(self):
        config = small_config()
        a = evaluate_repetition(config, 2)
        b = evaluate_repetition(config, 2)
        for method in config.methods:
            assert tuple(a[method].coef.active) == tuple(b[method].coef.active)
            assert a[method].final_rss == b[method].final_rss

    def test_refit_never_worse_per_repetition(self):
        config = small_config(repetitions=8, methods=["sis", "foss-sis", "fs", "foss-fs"])
        for rep in range(config.repetitions):
            outcomes = evaluate_repetition(config, rep)
            assert outcomes["foss-sis"].final_rss <= outcomes["sis"].final_rss * (1 + 1e-9)
            assert outcomes["foss-fs"].final_rss <= outcomes["fs"].final_rss * (1 + 1e-9)

    def test_stepwise_covers_large_sparse_cell(self):
        config = small_config(
            n=200, p=500, d=10, M=30, repetitions=1, methods=["fs"], seed=123
        )
        outcomes = evaluate_repetition(config, 0)
        assert set(range(10)) <= set(tuple(outcomes["fs"].coef.active))


class TestResponseScale:
    @pytest.mark.parametrize("seed, n, p", [(2, 20, 60), (0, 40, 30), (1, 96, 200)])
    def test_a_power_of_two_keeps_every_selection_up_to_the_largest_accepted(
        self, seed, n, p
    ):
        # Scaling y by 2^k changes no bit a selection depends on, so up to
        # the largest scale bind accepts every method must select the same
        # set in the same number of iterations, with no RuntimeWarning.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        y = X[:, :3].sum(axis=1) + rng.standard_normal(n)
        design = prepare_design(X)
        expected = {m: run_method(bind(design, y), m, 5) for m in method_catalog()}
        for k in itertools.count(500):
            try:
                problem = bind(design, y * 2.0**k)
            except ValueError:
                break
            for method in method_catalog():
                outcome = run_method(problem, method, 5)
                assert outcome.coef.active.tolist() == expected[method].coef.active.tolist()
                assert outcome.iterations == expected[method].iterations
        assert k > 500


def records_of(result, method):
    return [r for r in result.records if r.method == method]


class TestAggregate:
    def test_coverage_rate_is_exact_ratio(self):
        config = small_config(repetitions=4)
        result = run_experiment(config)
        support = set(config.true_support)
        for method in config.methods:
            records = records_of(result, method)
            row = result.table.row(method)
            assert row.repetitions == len(records) == 4
            for record in records:
                assert record.covered == int(support <= set(record.selected))
            assert row.cr == sum(r.covered for r in records) / row.repetitions
        # a fold over hand-made records, one covering and two not
        made = [
            RepetitionRecord(rep, "sis", covered, 1.0, 0, ())
            for rep, covered in enumerate([1, 0, 0])
        ]
        assert aggregate_records(made).row("sis").cr == 1 / 3

    def test_no_records_and_unknown_methods_are_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate_records([])
        table = aggregate_records([RepetitionRecord(0, "sis", 1, 1.0, 0, ())])
        with pytest.raises(KeyError):
            table.row("fs")

    def test_constant_rss_mean(self):
        config = small_config(repetitions=3)
        result = run_experiment(config)
        for method in config.methods:
            expected = float(np.mean([r.rss for r in records_of(result, method)]))
            assert result.table.row(method).ao == expected


class TestRunExperiment:
    def test_single_repetition_composition(self):
        config = small_config(repetitions=1)
        result = run_experiment(config)
        direct = evaluate_repetition(config, 0)
        support = set(config.true_support)
        for method in config.methods:
            (record,) = records_of(result, method)
            outcome = direct[method]
            assert record.selected == tuple(outcome.coef.active)
            assert record.rss == outcome.final_rss
            assert record.covered == int(support <= set(tuple(outcome.coef.active)))
            assert result.table.row(method).cr == record.covered
            assert result.table.row(method).ao == outcome.final_rss

    def test_worker_count_does_not_change_output(self):
        config = small_config(repetitions=6, methods=["sis", "foss-sis"])
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=3)
        assert serial.records == parallel.records
        assert serial.table == parallel.table

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every pool run_experiment opens; the
        pool runs its tasks in this process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_experiment imports the pool only when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return sizes

    def test_pool_has_at_most_one_process_per_repetition(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        methods = ["sis"]
        expected = run_experiment(small_config(repetitions=3, methods=methods), workers=1)
        got = run_experiment(small_config(repetitions=3, methods=methods), workers=64)
        run_experiment(small_config(repetitions=1, methods=methods), workers=64)
        assert pool_sizes == [3]
        assert got.records == expected.records

    @pytest.mark.parametrize(
        "affinity, cpu_count, sizes",
        [({0, 1}, 8, [2]), ({5}, 8, []), (None, 2, [2]), (None, None, [])],
        ids=["two-usable", "one-usable", "count-only", "count-unknown"],
    )
    def test_pool_has_at_most_one_process_per_usable_cpu(
        self, monkeypatch, pool_sizes, affinity, cpu_count, sizes
    ):
        if affinity is None:  # a platform without sched_getaffinity
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        config = small_config(repetitions=6, methods=["sis"])
        expected = run_experiment(config, workers=1)
        assert run_experiment(config, workers=5000).records == expected.records
        assert pool_sizes == sizes

    def test_records_cover_every_rep_and_method(self):
        config = small_config(repetitions=5)
        result = run_experiment(config)
        assert len(result.records) == 5 * len(config.methods)
        assert [r.rep for r in result.records] == sorted(r.rep for r in result.records)

    def test_csv_roundtrip_reproduces_table(self, tmp_path):
        config = small_config(repetitions=6)
        result = run_experiment(config)
        rep_path = tmp_path / "repetitions.csv"
        write_repetition_records(rep_path, result.records)
        loaded = load_repetition_records(rep_path)
        assert loaded == result.records
        rebuilt = aggregate_records(loaded)
        for method in config.methods:
            assert rebuilt.row(method).cr == result.table.row(method).cr
            assert rebuilt.row(method).ao == result.table.row(method).ao
            assert rebuilt.row(method).mean_iterations == result.table.row(method).mean_iterations

    def test_termination_is_the_last_column(self, tmp_path):
        methods = ["sis", "oss-sis", "foss-sis", "fs", "foss-fs"]
        config = small_config(repetitions=3, methods=methods, max_iter=2)
        result = run_experiment(config)
        rep_path = tmp_path / "repetitions.csv"
        write_repetition_records(rep_path, result.records)
        header = rep_path.read_text().splitlines()[0]
        assert header == "rep,method,covered,rss,iterations,selected_indices,termination"
        assert load_repetition_records(rep_path) == result.records
        for record in result.records:
            if record.method in ("sis", "fs"):
                assert record.termination == ""
            else:
                assert record.termination in ("converged", "cycle", "max_iter")
        # Two steps are too few for the plain iteration from most sis starts.
        plain = [r for r in result.records if r.method == "oss-sis"]
        assert any(r.termination == "max_iter" for r in plain)
        assert all((r.termination == "max_iter") == (r.iterations == 2) for r in plain)
        direct = evaluate_repetition(config, 0)
        for record in result.records[: len(methods)]:
            assert record.termination == direct[record.method].termination

    def test_table_csv_is_written(self, tmp_path):
        config = small_config(repetitions=2, methods=["sis"])
        result = run_experiment(config)
        path = tmp_path / "aggregate.csv"
        write_method_table(path, result.table)
        text = path.read_text().splitlines()
        assert text[0] == "method,cr,ao,mean_iterations,repetitions,exclusions"
        assert text[1].startswith("sis,")

    def test_failed_repetitions_are_counted_not_imputed(self, monkeypatch):
        import subsetscreen.experiments as experiments_module

        config = small_config(repetitions=4, methods=["sis"])
        real = experiments_module._problem

        def flaky(cfg, fixed, rep):
            if rep == 2:
                raise ValueError("synthetic generation failure")
            return real(cfg, fixed, rep)

        monkeypatch.setattr(experiments_module, "_problem", flaky)
        result = experiments_module.run_experiment(config)
        assert result.exclusions == ((2, "ValueError: synthetic generation failure"),)
        assert result.table.row("sis").repetitions == 3
        assert result.table.row("sis").exclusions == 1
        assert {r.rep for r in result.records} == {0, 1, 3}

    def test_an_unknown_design_kind_is_named(self):
        # A config built by hand, past config_from_dict's checks.
        config = dataclasses.replace(small_config(), design=experiments.DesignSpec(kind="bogus"))
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.key == "design.kind"

    def test_kronecker_design_runs_to_completion(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "base.csv"
        np.savetxt(path, rng.choice([-1.0, 1.0], size=(12, 66)), delimiter=",", fmt="%.0f")
        config = config_from_dict(
            {
                "d": 5, "sigma": 1.0, "beta_value": 1.0, "M": 10,
                "repetitions": 3, "methods": ["sis", "foss-sis", "fs", "foss-fs"],
                "seed": 99,
                "design": {"kind": "kronecker", "base_design_path": str(path), "hadamard_order": 2},
            }
        )
        assert (config.model.n, config.model.p) == (24, 132)
        result = run_experiment(config)
        assert len(result.records) == 3 * 4
        for row in result.table.rows:
            assert 0.0 <= row.cr <= 1.0
            assert row.ao >= 0.0


def kronecker_config(path, repetitions=20, methods=("sis", "foss-sis", "fs", "foss-fs")):
    return config_from_dict(
        {
            "d": 2, "sigma": 0.5, "beta_value": 1.0, "M": 6,
            "repetitions": repetitions, "methods": list(methods), "seed": 5,
            "design": {"kind": "kronecker", "base_design_path": str(path), "hadamard_order": 4},
        }
    )


EVERY_ITERATION = ("sis", "isis", "oss-sis", "foss-isis", "fs", "foss-fs")


def write_base(path, seed):
    base = np.random.default_rng(seed).choice([-1.0, 1.0], size=(6, 20))
    np.savetxt(path, base, delimiter=",", fmt="%.0f")


class TestFixedDesignCache:
    def test_each_fixed_design_is_prepared_once_per_run(self, tmp_path, monkeypatch):
        shapes = []
        real = experiments.prepare_design

        def counting(X):
            shapes.append(X.shape)
            return real(X)

        monkeypatch.setattr(experiments, "prepare_design", counting)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_base(first, 1)
        write_base(second, 2)
        run_experiment(kronecker_config(first))
        assert len(shapes) == 1
        run_experiment(kronecker_config(second))
        run_experiment(kronecker_config(first))
        assert len(shapes) == 3
        # Equicorrelated designs are new every repetition.
        run_experiment(small_config(repetitions=5, methods=["sis"]))
        assert len(shapes) == 3 + 5

    def test_a_pool_run_prepares_the_design_once_in_this_process(self, tmp_path, monkeypatch):
        shapes = []
        real = experiments.prepare_design

        def counting(X):
            shapes.append(X.shape)
            return real(X)

        path = tmp_path / "base.csv"
        write_base(path, 2)
        config = kronecker_config(path, repetitions=9)
        serial = run_experiment(config)
        monkeypatch.setattr(experiments, "prepare_design", counting)
        assert run_experiment(config, workers=2).records == serial.records
        assert shapes == [(config.model.n, config.model.p)]

    def test_cached_arrays_refuse_writes(self, tmp_path):
        path = tmp_path / "base.csv"
        write_base(path, 3)
        X, design = experiments._fixed_design(kronecker_config(path))
        for array in (X, design.X, design.col_means, design.col_scales, design.degenerate):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_arrays_a_block_receives_refuse_writes_after_pickling(self, tmp_path):
        path = tmp_path / "base.csv"
        write_base(path, 3)
        config = kronecker_config(path, repetitions=2)
        # What a pool worker receives: numpy unpickles arrays writeable.
        X, design = pickle.loads(pickle.dumps(experiments._fixed_design(config)))
        assert X.flags.writeable
        evaluated = experiments._evaluate_block(config, (X, design), range(2))
        assert [(rep, error) for rep, _, error in evaluated] == [(0, None), (1, None)]
        for array in (X, design.X, design.col_means, design.col_scales, design.degenerate):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_rewritten_base_file_is_read_again(self, tmp_path):
        path, other = tmp_path / "base.csv", tmp_path / "other.csv"
        write_base(path, 4)
        before = run_experiment(kronecker_config(path, repetitions=3))
        write_base(path, 5)
        after = run_experiment(kronecker_config(path, repetitions=3))
        write_base(other, 5)
        assert after.records == run_experiment(kronecker_config(other, repetitions=3)).records
        assert after.records != before.records

    def test_evaluate_repetition_reads_a_rewritten_base_file(self, tmp_path):
        path = tmp_path / "base.csv"
        write_base(path, 4)
        run_experiment(kronecker_config(path, repetitions=1))
        write_base(path, 5)
        config = kronecker_config(path, repetitions=1, methods=EVERY_ITERATION)
        direct = evaluate_repetition(config, 0)
        for record in run_experiment(config).records:
            outcome = direct[record.method]
            assert record.selected == tuple(outcome.coef.active.tolist())
            assert record.rss == outcome.final_rss

    def test_repetitions_csv_same_for_any_worker_count(self, tmp_path):
        # Repetitions run in blocks of SWEEP_BLOCK; 9 leave a short last block.
        path = tmp_path / "base.csv"
        write_base(path, 6)
        for repetitions in (8, 9, 20):
            config = kronecker_config(path, repetitions=repetitions, methods=EVERY_ITERATION)
            written = []
            for workers in (1, 2, 3):
                out = tmp_path / f"repetitions-{workers}.csv"
                write_repetition_records(out, run_experiment(config, workers=workers).records)
                written.append(out.read_bytes())
            assert written[0] == written[1] == written[2]


class TestRepetitionBlocks:
    """Kronecker repetitions run in blocks of ``SWEEP_BLOCK`` that share
    one stepwise sweep; equicorrelated ones in blocks of one."""

    def test_blocks_are_fixed_by_repetition_index(self, tmp_path):
        path = tmp_path / "base.csv"
        write_base(path, 8)
        width = experiments.SWEEP_BLOCK
        assert 1 < width <= 16
        blocks = experiments._blocks(kronecker_config(path, repetitions=2 * width + 1))
        assert [list(b) for b in blocks] == [
            list(range(width)), list(range(width, 2 * width)), [2 * width]
        ]
        assert [list(b) for b in experiments._blocks(small_config(repetitions=3))] == [[0], [1], [2]]

    def test_a_failing_repetition_excludes_only_itself(self, tmp_path, monkeypatch):
        path = tmp_path / "base.csv"
        write_base(path, 10)
        config = kronecker_config(path, repetitions=9, methods=EVERY_ITERATION)
        clean = run_experiment(config)
        real = experiments._problem

        def flaky(cfg, fixed, rep):
            if rep == 2:
                raise ValueError("synthetic failure")
            return real(cfg, fixed, rep)

        monkeypatch.setattr(experiments, "_problem", flaky)
        result = run_experiment(config)
        assert result.exclusions == ((2, "ValueError: synthetic failure"),)
        assert result.records == tuple(r for r in clean.records if r.rep != 2)
        assert result.table.row("fs").exclusions == 1

    def test_a_failing_block_sweep_falls_back_to_one_sweep_per_repetition(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "base.csv"
        write_base(path, 11)
        config = kronecker_config(path, repetitions=6, methods=EVERY_ITERATION)
        real = experiments.forward_stepwise_paths
        widths = []

        def broken(problems, max_size):
            widths.append(len(problems))
            if len(problems) > 1:
                raise np.linalg.LinAlgError("synthetic sweep failure")
            return real(problems, max_size)

        monkeypatch.setattr(experiments, "forward_stepwise_paths", broken)
        result = run_experiment(config)
        assert result.exclusions == ()
        assert max(widths) > 1
        for record in result.records:
            outcome = evaluate_repetition(config, record.rep)[record.method]
            assert record.selected == tuple(outcome.coef.active.tolist())
            assert record.rss == outcome.final_rss
            assert (record.iterations, record.termination) == (
                outcome.iterations, outcome.termination
            )
