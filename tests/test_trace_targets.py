"""The functions the benchmark's tracer wraps exist, and return what it reads.

``perfbench/trace_layers.py`` replaces every function named in its
``TARGETS`` by a timing wrapper and reads attributes of the results of the
ones in ``ANNOTATE``.  A rename or a changed return type would otherwise
break ``perfbench/run.py --trace 1`` with no failing test.  The module is
only imported: no bytecode is written next to it, and neither its
directory nor its sibling modules stay on ``sys.path`` or in
``sys.modules`` afterwards.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from subsetscreen import forward_stepwise, min_norm_least_squares

from _support import random_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_MODULES = ("trace_layers", "checks", "workloads")


@pytest.fixture(scope="module")
def trace_layers():
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    saved_modules = {name: sys.modules.pop(name) for name in PERFBENCH_MODULES
                     if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("trace_layers")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)


def test_every_target_is_a_callable_of_its_module(trace_layers):
    missing = [
        f"subsetscreen.{layer}.{name}"
        for layer, names in trace_layers.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"subsetscreen.{layer}"), name, None))
    ]
    assert missing == []


def test_annotated_results_have_what_the_tracer_reads(trace_layers):
    prob = random_problem(3)
    beta = min_norm_least_squares(prob.X[:, :3], prob.y)
    assert isinstance(beta, np.ndarray)
    path = forward_stepwise(prob, 4)
    assert len(path.steps) == 4
    annotate = trace_layers.ANNOTATE
    assert annotate["numerics.min_norm_least_squares"]((), {}, beta) == {"cols": 3}
    assert annotate["initializers.forward_stepwise"]((), {}, path) == {"steps": 4}
