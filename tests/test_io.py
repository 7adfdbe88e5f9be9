import hashlib
import json
import math
import shutil
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from conftest import edge, make_reference_problem
from test_pinned_outputs import HEADER, SOLVE_CASES

from slbsearch import (
    EstimatedDigraph,
    Problem,
    WeightedDigraph,
    gen_grid_graph,
    gen_random_graph,
    load_problem,
    load_weighted,
    problem_from_json,
    problem_to_json,
    synth_estimators,
    validate_graph,
    weighted_from_json,
    weighted_to_json,
)
from slbsearch.cli import main
from slbsearch.io import dump_problem, dump_weighted, load_suite

# written by the per-edge writer from the instance test_pinned_outputs pins
PER_EDGE_FILE = Path(__file__).parent / "data" / "pinned-per-edge-problem.json"


# The per-edge layout graph files had before the column layout, as its
# writer produced it (json.dumps(indent=2) of one object per edge). Files in
# this layout are still read.
def per_edge_problem_json(problem):
    edges = [
        {
            "from": e.tail,
            "to": e.head,
            "estimators": [[s.lower, s.upper, s.time_cost] for s in e.estimators],
            "true_cost": e.true_cost,
        }
        for e in problem.graph.edges
    ]
    doc = {
        "vertex_count": problem.graph.vertex_count,
        "start": problem.start,
        "goals": sorted(problem.goals),
        "edges": edges,
    }
    return json.dumps(doc, indent=2) + "\n"


def per_edge_weighted_json(wg):
    doc = {
        "vertex_count": wg.vertex_count,
        "start": wg.start,
        "goals": sorted(wg.goals),
        "edges": [{"from": t, "to": h, "cost": c} for t, h, c in wg.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


# The column layout on json's own encoder, built from the Edge view rather
# than from the graph's arrays: the writers must match these byte for byte.
def reference_problem_json(problem):
    edges = list(problem.graph.edges)
    specs = [s for e in edges for s in e.estimators]
    doc = {
        "vertex_count": problem.graph.vertex_count,
        "start": problem.start,
        "goals": sorted(problem.goals),
        "tail": [e.tail for e in edges],
        "head": [e.head for e in edges],
        "est_offsets": list(accumulate((len(e.estimators) for e in edges), initial=0)),
        "est_lower": [s.lower for s in specs],
        "est_upper": [s.upper for s in specs],
        "est_time": [s.time_cost for s in specs],
        "true_cost": [e.true_cost for e in edges],
    }
    return json.dumps(doc) + "\n"


def reference_weighted_json(wg):
    doc = {
        "vertex_count": wg.vertex_count,
        "start": wg.start,
        "goals": sorted(wg.goals),
        "tail": [t for t, _, _ in wg.edges],
        "head": [h for _, h, _ in wg.edges],
        "cost": [c for _, _, c in wg.edges],
    }
    return json.dumps(doc) + "\n"


ARRAYS = ("tail", "head", "est_offsets", "est_lower", "est_upper", "est_time", "true_cost",
          "true_known")


def assert_same_arrays(a, b):
    """The two graphs' arrays hold the same bits (NaN and -0.0 included)."""
    assert a.vertex_count == b.vertex_count
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def assert_layouts_agree(problem, wg=None):
    """Both writers match the reference, both layouts load into the written
    arrays, and a column file round-trips byte for byte."""
    text = problem_to_json(problem)
    assert text == reference_problem_json(problem)
    loaded = problem_from_json(text)
    assert (loaded.start, loaded.goals) == (problem.start, problem.goals)
    assert_same_arrays(loaded.graph, problem.graph)
    assert_same_arrays(problem_from_json(per_edge_problem_json(problem)).graph, problem.graph)
    assert problem_to_json(loaded) == text
    if wg is not None:
        text = weighted_to_json(wg)
        assert text == reference_weighted_json(wg)
        assert weighted_from_json(text) == wg
        assert weighted_from_json(per_edge_weighted_json(wg)) == wg
        assert weighted_to_json(weighted_from_json(text)) == text


def make_odd_problem():
    """Non-finite bounds, a missing and a NaN true cost, three goals, a 4-layer sequence."""
    inf, nan = math.inf, math.nan
    edges = [
        edge(0, 1, [(0.5, inf, 1.0), (1.0, 9.25, 2.0), (2.0, 3.0, 4.0), (2.5, 2.5, 8.0)], 2.5),
        edge(1, 2, [(-inf, nan, 0.0)], None),
        edge(0, 3, [(-0.0, 1e300, 1e-7)], 5e-324),
        edge(3, 4, [(1.0, 2.0, 1.0)], nan),
    ]
    return Problem(EstimatedDigraph(5, edges), 0, frozenset({4, 2, 3}))


class TestTemplateWriters:
    """The column writers against the json reference, and files in the
    per-edge and the column layout against each other."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_graph_files(self, seed):
        wg = gen_random_graph(5000, 0.002, (1, 20), seed)
        assert_layouts_agree(synth_estimators(wg, seed), wg)

    def test_grid_files(self):
        wg = gen_grid_graph(150, 150, (1, 9), 2)
        assert_layouts_agree(synth_estimators(wg, 3), wg)

    def test_non_finite_bounds_and_missing_true_cost(self, monkeypatch):
        problem = make_odd_problem()
        text = problem_to_json(problem)
        assert text == reference_problem_json(problem)
        assert "Infinity" in text and "NaN" in text and "null" in text
        # a NaN true cost is written as NaN and flagged, an unknown one as null
        doc = json.loads(text)
        assert doc["true_cost"][1] is None
        assert math.isnan(doc["true_cost"][3])
        flagged = [(v.edge, v.kind) for v in validate_graph(problem.graph) if v.kind == "true_cost"]
        assert flagged == [(3, "true_cost")]
        # both layouts are refused alike, and read alike once validation is off
        old = per_edge_problem_json(problem)
        with pytest.raises(ValueError) as new_exc:
            problem_from_json(text)
        with pytest.raises(ValueError) as old_exc:
            problem_from_json(old)
        assert str(new_exc.value) == str(old_exc.value)
        assert str(new_exc.value).startswith("invalid graph, 3 violations (first: edge 0: bounds:")
        monkeypatch.setattr("slbsearch.io.validate_graph", lambda graph: [])
        assert_layouts_agree(problem)
        loaded = problem_from_json(old).graph
        assert loaded.true_known.tolist() == [True, False, True, True]
        assert math.copysign(1.0, loaded.est_lower[5]) == -1.0

    def test_empty_edge_list(self):
        problem = Problem(EstimatedDigraph(3, []), 0, frozenset({2}))
        wg = WeightedDigraph(3, 0, (2,), ())
        assert_layouts_agree(problem, wg)
        assert '"tail": []' in weighted_to_json(wg)
        assert '"est_offsets": [0]' in problem_to_json(problem)

    def test_numpy_integer_scalars_are_written_as_ints(self):
        i = np.int64
        wg = WeightedDigraph(i(2), i(0), (i(1),), ((i(0), i(1), i(7)),))
        assert weighted_to_json(wg) == weighted_to_json(WeightedDigraph(2, 0, (1,), ((0, 1, 7),)))
        problem = make_reference_problem()
        scalars = Problem(problem.graph, i(problem.start), frozenset(map(i, problem.goals)))
        assert problem_to_json(scalars) == problem_to_json(problem)


# sha256 of the files dump_weighted and dump_problem write for the
# random-queries benchmark's instance and a 30x30 grid (synth seed 0),
# recorded with the writer that made one json.dumps of the whole document
WRITTEN_DIGESTS = {
    "random-queries": (
        lambda: gen_random_graph(5000, 0.002, (1, 20), 0),
        "9de40a5dc5b396078c8ec7d9fe238ea5b8fe9c2fe013aa67bf2edd8b147372b4",
        "9d32d3e920accfdb3d2e2561b68bb9c5ea0fb42eeead2eccec1cb7a9b778cf05",
    ),
    "grid-30x30": (
        lambda: gen_grid_graph(30, 30, (1, 9), 0),
        "5a8b3a1d6bf3d645c08177856d2025dacb570a65593ad3d2d3c37560573e13b5",
        "4cd2464d54ea2d9c7d2143710ed9ef7fd792573dd4118b5b105bf2699cd89377",
    ),
}


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedWriters:
    """The file writers stream one column at a time; their bytes must not move."""

    @pytest.mark.parametrize("name", WRITTEN_DIGESTS)
    def test_pinned_file_digests(self, name, tmp_path):
        make, weighted_digest, problem_digest = WRITTEN_DIGESTS[name]
        wg = make()
        problem = synth_estimators(wg, 0)
        dump_weighted(wg, tmp_path / "w.json")
        dump_problem(problem, tmp_path / "p.json")
        for path, text, digest in (
            (tmp_path / "w.json", weighted_to_json(wg), weighted_digest),
            (tmp_path / "p.json", problem_to_json(problem), problem_digest),
        ):
            data = path.read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert data.decode() == text

    def test_dump_problem_holds_one_column_at_a_time(self, tmp_path):
        problem = synth_estimators(gen_random_graph(5000, 0.002, (1, 20), 0), 0)
        graph = problem.graph
        column = max(traced_peak(getattr(graph, key).tolist) for key in ARRAYS)
        # the whole document's lists and text at once peak near 7 columns' lists
        assert traced_peak(lambda: dump_problem(problem, tmp_path / "p.json")) < 4 * column


class TestAtomicWriters:
    """A dump that fails leaves the target's bytes, or its absence, and no
    temporary file beside it."""

    # json.dumps cannot encode a Fraction, so each dump fails mid-file: after
    # the tail and head columns, or after vertex_count
    FAILING = {
        "weighted": (dump_weighted, WeightedDigraph(2, 0, (1,), ((0, 1, Fraction(1, 2)),))),
        "problem": (dump_problem, Problem(make_reference_problem().graph, Fraction(0), {3})),
    }

    @pytest.mark.parametrize("kind", FAILING)
    def test_failed_dump_keeps_an_existing_file(self, tmp_path, kind):
        dump, bad = self.FAILING[kind]
        path = tmp_path / "f.json"
        dump_weighted(gen_grid_graph(2, 2, (1, 3), 0), path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            dump(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    @pytest.mark.parametrize("kind", FAILING)
    def test_failed_dump_creates_no_file(self, tmp_path, kind):
        dump, bad = self.FAILING[kind]
        with pytest.raises(TypeError):
            dump(bad, tmp_path / "f.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            dump_weighted(gen_grid_graph(2, 2, (1, 3), 0), tmp_path / "d")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []


class TestPerEdgeFile:
    def test_loads_as_the_instance_it_was_written_from(self):
        problem = synth_estimators(gen_random_graph(30, 0.15, (1, 20), 35), 2)
        assert PER_EDGE_FILE.read_text() == per_edge_problem_json(problem)
        loaded = load_problem(PER_EDGE_FILE)
        assert (loaded.start, loaded.goals) == (problem.start, problem.goals)
        assert_same_arrays(loaded.graph, problem.graph)

    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_solve_prints_the_pinned_output(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        shutil.copy(PER_EDGE_FILE, "p.json")
        argv, code, stdout, row = SOLVE_CASES[case]
        assert main(["solve", "--graph", "p.json", *argv, "--metrics-out", "m.csv"]) == code
        assert capsys.readouterr() == (stdout, "")
        assert (tmp_path / "m.csv").read_bytes() == f"{HEADER}\r\n{row}\r\n".encode()


class TestProblemJson:
    def test_round_trip_is_byte_identical(self):
        problem = make_reference_problem()
        text = problem_to_json(problem)
        again = problem_to_json(problem_from_json(text))
        assert again == text

    def test_round_trip_keeps_negative_zero_after_equal_zero(self):
        # -0.0 == 0.0, so only the sign bit tells the second bound apart
        doc = {
            "vertex_count": 3, "start": 0, "goals": [2],
            "edges": [
                {"from": 0, "to": 1, "estimators": [[0.0, 2.0, 1.0]], "true_cost": 1.0},
                {"from": 1, "to": 2, "estimators": [[-0.0, 2.0, 1.0]], "true_cost": 1.0},
            ],
        }
        loaded = problem_from_json(json.dumps(doc, indent=2) + "\n")
        assert math.copysign(1.0, loaded.graph.edges[1].estimators[0].lower) == -1.0
        text = problem_to_json(loaded)
        assert json.loads(text)["est_lower"] == [0.0, -0.0]
        assert '"est_lower": [0.0, -0.0]' in text
        assert problem_to_json(problem_from_json(text)) == text

    def test_round_trip_preserves_semantics(self):
        problem = make_reference_problem()
        loaded = problem_from_json(problem_to_json(problem))
        assert loaded.start == problem.start
        assert loaded.goals == problem.goals
        assert loaded.graph.vertex_count == problem.graph.vertex_count
        assert list(loaded.graph.edges) == list(problem.graph.edges)

    def test_document_shape(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        assert list(doc) == ["vertex_count", "start", "goals", "tail", "head", "est_offsets",
                             "est_lower", "est_upper", "est_time", "true_cost"]
        assert doc["goals"] == [3, 4]
        assert (doc["tail"][0], doc["head"][0]) == (0, 1)
        assert doc["est_offsets"] == [0, 1, 3, 5, 7, 9, 10]
        first = [doc[key][0] for key in ("est_lower", "est_upper", "est_time", "true_cost")]
        assert first == [4.0, 4.0, 1.0, 4.0]

    def test_missing_true_cost_loads_as_none(self):
        problem = make_reference_problem()
        doc = json.loads(problem_to_json(problem))
        doc["true_cost"] = [None] * len(doc["tail"])
        old = json.loads(per_edge_problem_json(problem))
        for e in old["edges"]:
            del e["true_cost"]
        for text in (json.dumps(doc), json.dumps(old)):
            loaded = problem_from_json(text)
            assert all(e.true_cost is None for e in loaded.graph.edges)

    def test_file_round_trip(self, tmp_path):
        problem = make_reference_problem()
        target = tmp_path / "ref.json"
        dump_problem(problem, target)
        assert list(load_problem(target).graph.edges) == list(problem.graph.edges)

    def test_rejects_non_json(self):
        with pytest.raises(ValueError):
            problem_from_json("not json {")

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            problem_from_json('{"vertex_count": 2}')

    def test_rejects_bad_estimator_shape(self):
        doc = json.loads(per_edge_problem_json(make_reference_problem()))
        doc["edges"][0]["estimators"] = [[1.0, 2.0]]
        with pytest.raises(ValueError, match=r"edge 0 estimator 0: expected \[lower, upper"):
            problem_from_json(json.dumps(doc))

    def test_rejects_empty_estimators(self):
        old = json.loads(per_edge_problem_json(make_reference_problem()))
        old["edges"][1]["estimators"] = []
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["est_offsets"][2] = doc["est_offsets"][1]
        for text in (json.dumps(old), json.dumps(doc)):
            with pytest.raises(ValueError, match="edge 1 has no estimators"):
                problem_from_json(text)

    def test_rejects_non_integer_vertex(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["start"] = "zero"
        with pytest.raises(ValueError):
            problem_from_json(json.dumps(doc))

    def test_rejects_invalid_graph_in_one_error(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        first = doc["est_offsets"][2]  # edge 2's first estimator
        doc["est_lower"][first], doc["est_upper"][first] = 9.0, 1.0
        with pytest.raises(ValueError) as exc:
            problem_from_json(json.dumps(doc))
        assert str(exc.value).startswith("invalid graph, 3 violations (first: edge 2: bounds:")

    @pytest.mark.parametrize(
        "column,value,named",
        [("head", 5, "edge 1: endpoint 'to' 5 out of range for 5 vertices"),
         ("tail", -1, "edge 1: endpoint 'from' -1 out of range")],
        ids=["to-past-end", "negative-from"],
    )
    def test_rejects_out_of_range_endpoint(self, column, value, named):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc[column][1] = value
        with pytest.raises(ValueError, match=named):
            problem_from_json(json.dumps(doc))

    def test_rejects_number_beyond_float(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["est_upper"][4] = 10**400  # edge 2's second estimator
        with pytest.raises(ValueError, match="edge 2 estimator 1 upper does not fit a float"):
            problem_from_json(json.dumps(doc))


class TestWeightedJson:
    def test_round_trip_is_byte_identical(self):
        wg = gen_random_graph(10, 0.4, (1, 9), rng_seed=2)
        text = weighted_to_json(wg)
        assert weighted_to_json(weighted_from_json(text)) == text

    def test_round_trip_preserves_graph(self):
        wg = gen_random_graph(10, 0.4, (1, 9), rng_seed=2)
        assert weighted_from_json(weighted_to_json(wg)) == wg

    def test_costs_stay_integers(self):
        wg = WeightedDigraph(2, 0, (1,), ((0, 1, 7),))
        doc = json.loads(weighted_to_json(wg))
        assert doc["cost"] == [7]
        assert isinstance(doc["cost"][0], int)
        assert weighted_from_json(json.dumps(doc)).edges == ((0, 1, 7),)

    def test_rejects_float_cost(self):
        text = json.dumps(
            {
                "vertex_count": 2,
                "start": 0,
                "goals": [1],
                "edges": [{"from": 0, "to": 1, "cost": 2.5}],
            }
        )
        with pytest.raises(ValueError):
            weighted_from_json(text)

    def test_rejects_non_positive_cost(self):
        text = json.dumps(
            {
                "vertex_count": 2,
                "start": 0,
                "goals": [1],
                "edges": [{"from": 0, "to": 1, "cost": 0}],
            }
        )
        with pytest.raises(ValueError):
            weighted_from_json(text)

    @pytest.mark.parametrize(
        "start,goals,edge,named",
        [(0, [1], (1, 7), "edge 0: endpoint 'to' 7"), (2, [1], (0, 1), "start 2"),
         (0, [1, 2], (0, 1), "goal 2")],
        ids=["stray-endpoint", "start", "goal"],
    )
    def test_rejects_out_of_range_vertex(self, start, goals, edge, named):
        text = json.dumps({
            "vertex_count": 2, "start": start, "goals": goals,
            "edges": [{"from": edge[0], "to": edge[1], "cost": 3}],
        })
        with pytest.raises(ValueError, match=named):
            weighted_from_json(text)

    def test_file_round_trip(self, tmp_path):
        wg = gen_random_graph(6, 0.5, (1, 5), rng_seed=11)
        target = tmp_path / "weights.json"
        dump_weighted(wg, target)
        assert load_weighted(target) == wg


class TestSuiteJson:
    def test_loads_plain_object(self, tmp_path):
        target = tmp_path / "suite.json"
        target.write_text('{"instances": [], "seeds": [0], "algorithms": []}')
        doc = load_suite(target)
        assert doc["seeds"] == [0]

    def test_rejects_non_object(self, tmp_path):
        target = tmp_path / "suite.json"
        target.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_suite(target)
