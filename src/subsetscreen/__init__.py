"""Sparse linear-regression screening by iterative hard thresholding.

A screening method picks M out of p candidate variables, aiming to keep
every truly relevant one.  This package provides classical screeners
(marginal correlation, its iterated variant, forward stepwise), two
monotone hard-thresholding iterations that improve any initial estimate's
fit, an exhaustive best-subset oracle for small problems, and a seeded
Monte Carlo harness that measures coverage rates and average objectives
per method.
"""

from .core import (
    EnumerationCapError,
    IterationOptions,
    ScreeningResult,
    SparseCoef,
    TERM_CONVERGED,
    TERM_CYCLE,
    TERM_MAX_ITER,
    exhaustive_best_subset,
    foss_step,
    hard_threshold,
    multi_start_foss_fs,
    multi_start_window,
    oss_step,
    refit_subset,
    rss,
    run,
)
from .experiments import (
    ConfigError,
    DesignSpec,
    ExperimentConfig,
    ExperimentResult,
    MethodAggregate,
    MethodTable,
    RepetitionRecord,
    aggregate_records,
    config_from_dict,
    config_to_dict,
    evaluate_repetition,
    load_repetition_records,
    method_catalog,
    run_experiment,
    run_method,
    write_exclusions,
    write_method_table,
    write_repetition_records,
)
from .initializers import FsPath, FsStep, forward_stepwise, forward_stepwise_paths, isis, sis
from .numerics import (
    PreparedDesign,
    StandardizedProblem,
    bind,
    lanczos_lambda_max,
    min_norm_least_squares,
    power_method_lambda_max,
    prepare_design,
    standardize,
)
from .simgen import (
    GenerativeModel,
    TrueModel,
    TwoLevelWarning,
    child_stream,
    gen_equicorrelated_design,
    gen_response,
    kronecker_design,
    load_base_design,
    sylvester_hadamard,
)

__version__ = "0.1.0"
