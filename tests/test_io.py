import json
import math

import pytest
from conftest import edge, make_reference_problem

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
from slbsearch.io import dump_problem, dump_weighted, load_suite


# The writers as first written, on json's own encoder: the files the
# template writers produce must match these byte for byte.
def reference_problem_json(problem):
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


def reference_weighted_json(wg):
    doc = {
        "vertex_count": wg.vertex_count,
        "start": wg.start,
        "goals": sorted(wg.goals),
        "edges": [{"from": t, "to": h, "cost": c} for t, h, c in wg.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


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
    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_graph_files(self, seed):
        wg = gen_random_graph(5000, 0.002, (1, 20), seed)
        assert weighted_to_json(wg) == reference_weighted_json(wg)
        problem = synth_estimators(wg, seed)
        assert problem_to_json(problem) == reference_problem_json(problem)

    def test_grid_files(self):
        wg = gen_grid_graph(150, 150, (1, 9), 2)
        assert weighted_to_json(wg) == reference_weighted_json(wg)
        problem = synth_estimators(wg, 3)
        assert problem_to_json(problem) == reference_problem_json(problem)

    def test_non_finite_bounds_and_missing_true_cost(self):
        problem = make_odd_problem()
        text = problem_to_json(problem)
        assert text == reference_problem_json(problem)
        assert "Infinity" in text and "NaN" in text and "null" in text
        # a NaN true cost is written as NaN and flagged, an unknown one as null
        doc = json.loads(text)
        assert doc["edges"][1]["true_cost"] is None
        assert math.isnan(doc["edges"][3]["true_cost"])
        flagged = [(v.edge, v.kind) for v in validate_graph(problem.graph) if v.kind == "true_cost"]
        assert flagged == [(3, "true_cost")]

    def test_empty_edge_list(self):
        problem = Problem(EstimatedDigraph(3, []), 0, frozenset({2}))
        wg = WeightedDigraph(3, 0, (2,), ())
        assert problem_to_json(problem) == reference_problem_json(problem)
        assert weighted_to_json(wg) == reference_weighted_json(wg)
        assert '"edges": []' in weighted_to_json(wg)


class TestProblemJson:
    def test_round_trip_is_byte_identical(self):
        problem = make_reference_problem()
        text = problem_to_json(problem)
        again = problem_to_json(problem_from_json(text))
        assert again == text

    def test_round_trip_keeps_negative_zero_after_equal_zero(self):
        # loaded estimators are shared per distinct triple; -0.0 == 0.0, so
        # the sharing must still tell them apart
        doc = {
            "vertex_count": 3, "start": 0, "goals": [2],
            "edges": [
                {"from": 0, "to": 1, "estimators": [[0.0, 2.0, 1.0]], "true_cost": 1.0},
                {"from": 1, "to": 2, "estimators": [[-0.0, 2.0, 1.0]], "true_cost": 1.0},
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
        loaded = problem_from_json(text)
        assert math.copysign(1.0, loaded.graph.edges[1].estimators[0].lower) == -1.0
        assert problem_to_json(loaded) == text

    def test_round_trip_preserves_semantics(self):
        problem = make_reference_problem()
        loaded = problem_from_json(problem_to_json(problem))
        assert loaded.start == problem.start
        assert loaded.goals == problem.goals
        assert loaded.graph.vertex_count == problem.graph.vertex_count
        assert list(loaded.graph.edges) == list(problem.graph.edges)

    def test_document_shape(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        assert set(doc) == {"vertex_count", "start", "goals", "edges"}
        assert doc["goals"] == [3, 4]
        first = doc["edges"][0]
        assert set(first) == {"from", "to", "estimators", "true_cost"}
        assert first["estimators"] == [[4.0, 4.0, 1.0]]

    def test_missing_true_cost_loads_as_none(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        for e in doc["edges"]:
            del e["true_cost"]
        loaded = problem_from_json(json.dumps(doc))
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
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["edges"][0]["estimators"] = [[1.0, 2.0]]
        with pytest.raises(ValueError):
            problem_from_json(json.dumps(doc))

    def test_rejects_empty_estimators(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["edges"][0]["estimators"] = []
        with pytest.raises(ValueError):
            problem_from_json(json.dumps(doc))

    def test_rejects_non_integer_vertex(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["start"] = "zero"
        with pytest.raises(ValueError):
            problem_from_json(json.dumps(doc))

    def test_rejects_invalid_graph_in_one_error(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["edges"][2]["estimators"][0] = [9.0, 1.0, 1.0]
        with pytest.raises(ValueError) as exc:
            problem_from_json(json.dumps(doc))
        assert str(exc.value).startswith("invalid graph, 3 violations (first: edge 2: bounds:")

    @pytest.mark.parametrize(
        "field,value,named",
        [("to", 5, "edge 1: endpoint 'to' 5 out of range for 5 vertices"),
         ("from", -1, "edge 1: endpoint 'from' -1 out of range")],
        ids=["to-past-end", "negative-from"],
    )
    def test_rejects_out_of_range_endpoint(self, field, value, named):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["edges"][1][field] = value
        with pytest.raises(ValueError, match=named):
            problem_from_json(json.dumps(doc))

    def test_rejects_number_beyond_float(self):
        doc = json.loads(problem_to_json(make_reference_problem()))
        doc["edges"][0]["estimators"][0][1] = 10**400
        with pytest.raises(ValueError, match="edge 0 estimator 0 upper does not fit a float"):
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
        assert doc["edges"][0]["cost"] == 7
        assert isinstance(doc["edges"][0]["cost"], int)

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
