"""The names the benchmark's layer tracer rebinds must exist.

``perfbench/spans.py`` lists them in ``TRACED``; ``Tracer.install`` looks
each one up on the package and, for a method, in its class ``__dict__``.
A name missing here breaks only ``perfbench/run.py --trace 1``, so it is
checked here, by reading that file without importing the benchmark.
"""

import ast
from pathlib import Path

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
