"""JSON file formats for problems, weighted digraphs, and benchmark suites.

The loaders are where a graph file is checked: every Problem or
WeightedDigraph they return has its start, goals and edge endpoints in
range and its numbers representable as floats, and every loaded Problem
passes validate_graph. Anything else raises one ValueError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FsPath

import numpy as np

from .generators import WeightedDigraph
from .graph import EstimatedDigraph, Problem, validate_graph

__all__ = [
    "problem_to_json",
    "problem_from_json",
    "load_problem",
    "dump_problem",
    "weighted_to_json",
    "weighted_from_json",
    "load_weighted",
    "dump_weighted",
    "load_suite",
]


def _bad(msg: str) -> ValueError:
    return ValueError(f"bad input file: {msg}")


def _as_vertex(x, what: str, n: int) -> int:
    # type(x) is int also turns away bools
    if type(x) is not int:
        raise _bad(f"{what} must be an integer")
    if not 0 <= x < n:
        raise _bad(f"{what} {x} out of range for {n} vertices")
    return x


def _as_number(x, what: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise _bad(f"{what} must be a number")
    try:
        return float(x)
    except OverflowError:
        raise _bad(f"{what} does not fit a float") from None


def _read_doc(text: str, keys=()) -> dict:
    """Decode one JSON object holding every key in keys."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise _bad(f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _bad("top level must be an object")
    for key in keys:
        if key not in doc:
            raise _bad(f"missing key {key!r}")
    return doc


def _read_graph(text: str):
    """(vertex_count, start, goals, edge records) of a graph document."""
    doc = _read_doc(text, ("vertex_count", "start", "goals", "edges"))
    n = doc["vertex_count"]
    if type(n) is not int:
        raise _bad("vertex_count must be an integer")
    start = _as_vertex(doc["start"], "start", n)
    if not (isinstance(doc["goals"], list) and doc["goals"]):
        raise _bad("goals must be a non-empty list")
    goals = [_as_vertex(g, "goal", n) for g in doc["goals"]]
    if not isinstance(doc["edges"], list):
        raise _bad("edges must be a list")
    return n, start, goals, doc["edges"]


_PROBLEM_EDGE = frozenset(("from", "to", "estimators"))
_WEIGHTED_EDGE = frozenset(("from", "to", "cost"))


def _edge_record(i: int, rec, keys: frozenset, n: int):
    """(tail, head) of edge record i, after checking its keys and endpoints."""
    # runs once per edge, so the messages are built only on failure
    if not (isinstance(rec, dict) and rec.keys() >= keys):
        if not isinstance(rec, dict):
            raise _bad(f"edge {i} must be an object")
        raise _bad(f"edge {i}: missing key {sorted(keys - rec.keys())[0]!r}")
    tail, head = rec["from"], rec["to"]
    if type(tail) is not int or type(head) is not int or not (0 <= tail < n and 0 <= head < n):
        _as_vertex(tail, f"edge {i}: endpoint 'from'", n)
        _as_vertex(head, f"edge {i}: endpoint 'to'", n)
    return tail, head


# The writers lay a file out as json.dumps(doc, indent=2) + "\n" does, with
# one %-template per object instead of json's pure-Python indenting encoder.
# An int's %s is json's spelling of it.
_GRAPH_TEXT = '{\n  "vertex_count": %s,\n  "start": %s,\n  "goals": %s,\n  "edges": %s\n}\n'
_PROBLEM_EDGE_TEXT = (
    '{\n      "from": %s,\n      "to": %s,\n      "estimators": %s,\n      "true_cost": %s\n    }'
)
_SPEC_TEXT = "[\n          %s,\n          %s,\n          %s\n        ]"
_WEIGHTED_EDGE_TEXT = '{\n      "from": %s,\n      "to": %s,\n      "cost": %s\n    }'


def _array(items, depth: int = 1) -> str:
    """A list of written items, laid out as json's indent=2 does at this depth."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _num(x: float) -> str:
    # json spells the non-finite floats Infinity, -Infinity and NaN
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _nums(values: np.ndarray):
    """_num of each value, lazily, with finiteness checked once for the whole
    array (an iterator, so no list of strings is held beside the floats)."""
    return map(float.__repr__ if np.isfinite(values).all() else _num, values.tolist())


def problem_to_json(problem: Problem) -> str:
    graph = problem.graph
    layers = zip(_nums(graph.est_lower), _nums(graph.est_upper), _nums(graph.est_time))
    specs = [_SPEC_TEXT % triple for triple in layers]
    off = graph.est_offsets.tolist()
    # an unknown true cost is stored as NaN and written as null
    true_costs = _nums(np.where(graph.true_known, graph.true_cost, 0.0))
    edges = [
        _PROBLEM_EDGE_TEXT % (tail, head, _array(specs[a:b], 3), tc if known else "null")
        for tail, head, a, b, tc, known in zip(
            graph.tail.tolist(), graph.head.tolist(), off, off[1:],
            true_costs, graph.true_known.tolist(),
        )
    ]
    goals = [str(g) for g in sorted(problem.goals)]
    return _GRAPH_TEXT % (graph.vertex_count, problem.start, _array(goals), _array(edges))


def problem_from_json(text: str) -> Problem:
    n, start, goals, records = _read_graph(text)
    rows = []  # per edge: tail, head, end of its layers, true cost
    layers = []  # lower, upper, time_cost of every estimator, flat
    for i, rec in enumerate(records):
        tail, head = _edge_record(i, rec, _PROBLEM_EDGE, n)
        ests = rec["estimators"]
        if not (isinstance(ests, list) and ests):
            raise _bad(f"edge {i}: estimators must be a non-empty list")
        for j, triple in enumerate(ests):
            if not (isinstance(triple, list) and len(triple) == 3):
                raise _bad(f"edge {i} estimator {j}: expected [lower, upper, time_cost]")
            lo, up, t = triple
            if type(lo) is not float or type(up) is not float or type(t) is not float:
                triple = [
                    _as_number(x, f"edge {i} estimator {j} {what}")
                    for x, what in zip(triple, ("lower", "upper", "time_cost"))
                ]
            layers.extend(triple)
        tc = rec.get("true_cost")
        if tc is not None and type(tc) is not float:
            tc = _as_number(tc, f"edge {i} true_cost")
        rows.append((tail, head, len(layers) // 3, tc))
    tails, heads, ends, true_costs = zip(*rows) if rows else ((),) * 4
    lower, upper, time_cost = np.array(layers, np.float64).reshape(-1, 3).T.copy()
    known = [tc is not None for tc in true_costs]  # a None true cost is stored as NaN
    graph = EstimatedDigraph.from_arrays(
        n, tails, heads, (0, *ends), lower, upper, time_cost, true_costs, known
    )
    violations = validate_graph(graph)
    if violations:
        v = violations[0]
        raise ValueError(
            f"invalid graph, {len(violations)} violations "
            f"(first: edge {v.edge}: {v.kind}: {v.detail})"
        )
    return Problem(graph, start, frozenset(goals))


def load_problem(path) -> Problem:
    return problem_from_json(FsPath(path).read_text())


def dump_problem(problem: Problem, path) -> None:
    FsPath(path).write_text(problem_to_json(problem))


def weighted_to_json(wg: WeightedDigraph) -> str:
    edges = [_WEIGHTED_EDGE_TEXT % e for e in wg.edges]
    goals = [str(g) for g in sorted(wg.goals)]
    return _GRAPH_TEXT % (wg.vertex_count, wg.start, _array(goals), _array(edges))


def _weighted_edge(i: int, rec, n: int) -> tuple[int, int, int]:
    tail, head = _edge_record(i, rec, _WEIGHTED_EDGE, n)
    cost = rec["cost"]
    if type(cost) is not int or cost < 1:
        raise _bad(f"edge {i}: cost must be a positive integer")
    return tail, head, cost


def weighted_from_json(text: str) -> WeightedDigraph:
    n, start, goals, records = _read_graph(text)
    edges = tuple(_weighted_edge(i, rec, n) for i, rec in enumerate(records))
    return WeightedDigraph(n, start, tuple(sorted(goals)), edges)


def load_weighted(path) -> WeightedDigraph:
    return weighted_from_json(FsPath(path).read_text())


def dump_weighted(wg: WeightedDigraph, path) -> None:
    FsPath(path).write_text(weighted_to_json(wg))


def load_suite(path) -> dict:
    return _read_doc(FsPath(path).read_text())
