"""The names the benchmark's layer tracer rebinds must exist.

``perfbench/spans.py`` lists them in ``TRACED``; ``Tracer.install`` looks
each one up on the package and, for a method, in its class ``__dict__``.
A name missing here breaks only ``perfbench/run.py --trace 1``, so it is
checked here, by reading that file without importing the benchmark.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import slbsearch
import slbsearch.cli  # noqa: F401  (traced, but not imported by the package)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


@pytest.mark.parametrize("module,attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = getattr(slbsearch, module)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[method])
    else:
        assert callable(getattr(owner, attr))


def test_results_are_stamped_numpy():
    assert slbsearch.default_backend_name() == "numpy"


def test_arrays_fields_read_by_the_benchmark():
    # perfbench reads these: graph.array_bytes sums their nbytes and
    # gate.charged_once indexes est_time with a cache's invoked mask
    problem = slbsearch.synth_estimators(slbsearch.gen_grid_graph(3, 3, (1, 9), 1), 0)
    arr = problem.graph.arrays()
    for name in ("indptr", "succ_vertex", "succ_edge", "est_offsets", "est_lower", "est_upper",
                 "est_time"):
        assert isinstance(getattr(arr, name), np.ndarray), name


def test_counts_read_by_the_benchmark():
    # outside TRACED, perfbench reads these: spans._counts takes
    # len(wg.edges) in the synth span, workloads._solve_three takes
    # len(problem.graph.edges), and workloads.py reads both cache counts
    wg = slbsearch.gen_grid_graph(3, 3, (1, 9), 1)
    assert len(wg.edges) == len(wg.tail) == 12
    problem = slbsearch.synth_estimators(wg, 0)
    assert len(problem.graph.edges) == 12
    cache = slbsearch.estimation.EstimationCache(problem.graph)
    slbsearch.ei_ucs(problem, cache=cache)
    assert cache.invocation_count() > 0
    assert 0 < cache.final_layer_invocations() <= cache.invocation_count()
