"""Fuzz of the command line's exit-code contract.

Small valid problem, weighted and suite documents are mutated (a key or
entry dropped, a value swapped for another type, for a signed zero, NaN, an
infinity or a 400-digit integer, or nested in a list) and run through
``solve``, ``synth`` then ``solve``, and ``bench``. Whatever the mutation:

- the exit code is 0, 2 or 3 (or 4 from bench, whose suite has a timeout);
- exit 3 prints exactly one line to stderr and leaves no output file;
- on exit 0 every written l_under and l_over brackets oracle_lstar.

Drawn integers are at most 40, so no vertex count, grid side or random
graph size allocates more than a few kB; a 400-digit one fails before any
allocation.
"""

import csv
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from slbsearch import Problem, load_problem, oracle_lstar, synth_estimators
from slbsearch.bench import _materialize
from slbsearch.cli import main

PROBLEM = {
    "vertex_count": 3, "start": 0, "goals": [2], "tail": [0, 1, 0], "head": [1, 2, 2],
    "est_offsets": [0, 2, 3, 4], "est_lower": [1.0, 2.0, 1.0, 4.0],
    "est_upper": [3.0, 2.5, 1.5, 5.0], "est_time": [1.0, 10.0, 1.0, 1.0],
    "true_cost": [2.0, 1.0, None],
}
WEIGHTED = {
    "vertex_count": 3, "start": 0, "goals": [2], "tail": [0, 1, 0], "head": [1, 2, 2],
    "cost": [2, 3, 9],
}
SUITE = {
    "instances": [
        {"id": "r", "model": "random", "n": 5, "edge_prob": 0.5, "cost_min": 1,
         "cost_max": 9, "rng_seed": 1},
        {"id": "g", "model": "grid", "rows": 2, "cols": 3, "cost_min": 1, "cost_max": 9,
         "rng_seed": 2},
        {"id": "w", "model": "weighted_file", "path": "wg.json"},
        {"id": "p", "model": "problem_file", "path": "p.json"},
    ],
    "seeds": [3],
    "algorithms": ["beauty", "abeauty-2"],
    "timeout_seconds": 60,
}

HUGE = 10**400
MUTATIONS = st.one_of(
    st.sampled_from(["<drop>", "<nest>"]),
    st.sampled_from(["x", None, True, [], {}]),  # another type
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.sampled_from([HUGE, -HUGE]),
    st.integers(-1, 40),
)


def _locations(value, path=()):
    """Every key and list entry inside value, as (path, is a number) pairs."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        here = (*path, key)
        yield here, type(inner) in (int, float)
        if isinstance(inner, (dict, list)):
            yield from _locations(inner, here)


def _mutated(doc, mutation, scope):
    """A copy of doc with mutation applied at the locations scope picks."""
    doc = json.loads(json.dumps(doc))
    found = list(_locations(doc))
    if scope is None:
        paths = [path for path, number in found if number]
    else:
        paths = [found[scope % len(found)][0]]
    # later entries and inner keys first, so a drop moves no path still to come
    for path in sorted(paths, reverse=True):
        *outer, key = path
        parent = doc
        for step in outer:
            parent = parent[step]
        if mutation == "<drop>":
            del parent[key]
        else:
            parent[key] = [parent[key]] if mutation == "<nest>" else mutation
    return doc


def _bracketed(csv_path, problems):
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            l_star = oracle_lstar(problems[row["instance_id"]])
            assert float(row["l_under"]) <= l_star <= float(row["l_over"]), row


def _cells(suite):
    """The problem of each bench cell, built again from the suite document."""
    cells = {}
    for spec in suite.get("instances", []):
        payload = _materialize(spec)
        if isinstance(payload, Problem):
            cells[spec["id"]] = payload
        else:
            for seed in suite.get("seeds", [0]):
                cells[f"{spec['id']}@s{seed}"] = synth_estimators(payload, seed)
    return cells


@given(mutation=MUTATIONS, location=st.integers(0, 10**6),
       alg=st.sampled_from(["eiucs", "beauty", "abeauty"]), seed=st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_mutated_documents_keep_the_exit_code_contract(mutation, location, alg, seed):
    # the mutation goes to one location of each document, then to every number in it
    cwd = os.getcwd()
    for scope in (location, None):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # the suite names its files relative to the working directory
            try:
                _run_all(mutation, scope, alg, seed)
            finally:
                os.chdir(cwd)


def _run_all(mutation, scope, alg, seed):
    docs = {"p.json": PROBLEM, "wg.json": WEIGHTED, "suite.json": SUITE}
    for name, doc in docs.items():
        with open(name, "w") as f:
            json.dump(_mutated(doc, mutation, scope), f)

    _solve("p.json", alg)
    if _run_checked((0, 3), "synth", "--weighted-graph", "wg.json", "--seed", str(seed),
                    "--out", "out.json") == 0:
        _solve("out.json", alg)
        os.remove("out.json")
    # 4: a cell ran past a small drawn timeout
    if _run_checked((0, 3, 4), "bench", "--suite", "suite.json", "--out-dir", "results") != 3:
        with open("suite.json") as f:
            _bracketed(os.path.join("results", "runs.csv"), _cells(json.load(f)))
    assert set(os.listdir()) <= {*docs, "results"}  # no temporary file is left behind


def _run_checked(allowed, *argv):
    """main(argv)'s exit code, which must be allowed; exit 3 must print one
    line and leave the working directory as it was."""
    before = sorted(os.listdir())
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(list(argv))
    err = err.getvalue()
    assert code in allowed, err
    if code == 3:
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert sorted(os.listdir()) == before
    return code


def _solve(graph, alg):
    if _run_checked((0, 2, 3), "solve", "--graph", graph, "--alg", alg,
                    "--metrics-out", "m.csv") != 3:
        _bracketed("m.csv", {graph: load_problem(graph)})
        os.remove("m.csv")
