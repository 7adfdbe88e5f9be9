"""JSON file formats for problems, weighted digraphs, and benchmark suites.

A graph file is one JSON object of flat columns, the graph's own arrays:
``vertex_count``, ``start``, ``goals``, ``tail`` and ``head``; then, in a
problem file, ``est_offsets``, ``est_lower``, ``est_upper``, ``est_time`` and
``true_cost`` (``null`` where unknown), laid out as EstimatedDigraph stores
them, and in a weighted file ``cost``. The writers stream one column at a
time: each column is built, encoded by json.dumps and written (or joined)
before the next is built, and the text is that of one json.dumps of all
the columns. A file is written to a temporary file beside it, which
replaces it only once the last column is written. Files in the older
per-edge layout (an ``edges`` list of objects) are still read: their
records are reshaped into the same columns.

The loaders are where a graph file is checked, by one column checker for
both layouts: every Problem or WeightedDigraph they return has its start,
goals and edge endpoints in range and its numbers representable as floats,
and every loaded Problem passes validate_graph. Anything else raises one
ValueError naming the first bad edge (and estimator).
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate
from operator import index, itemgetter, lt
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

_GRAPH_KEYS = ("vertex_count", "start", "goals", "tail", "head")
_PROBLEM_KEYS = (*_GRAPH_KEYS, "est_offsets", "est_lower", "est_upper", "est_time", "true_cost")
_WEIGHTED_KEYS = (*_GRAPH_KEYS, "cost")

# allowed entry types of a column; bools are not ints here, as type(x) is int
_INTS = frozenset((int,))
_NUMBERS = frozenset((int, float))
_NUMBERS_OR_NULL = frozenset((int, float, type(None)))


def _bad(msg: str) -> ValueError:
    return ValueError(f"bad input file: {msg}")


def _as_vertex(x, what: str, n: int) -> int:
    if type(x) is not int:
        raise _bad(f"{what} must be an integer")
    if not 0 <= x < n:
        raise _bad(f"{what} {x} out of range for {n} vertices")
    return x


def _read_doc(text: str) -> dict:
    """Decode one JSON object."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise _bad(f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _bad("top level must be an object")
    return doc


def _records_to_columns(doc: dict, keys: tuple[str, ...]) -> dict:
    """Reshape a per-edge document's ``edges`` records into columns, in place.

    Only each record's shape is checked here: an object with the given keys
    and, in a problem file, a list of [lower, upper, time_cost] triples. The
    values are left to the column checker, as those of a column file are.
    """
    records = doc.pop("edges")
    if not isinstance(records, list):
        raise _bad("edges must be a list")
    for i, rec in enumerate(records):
        if not (isinstance(rec, dict) and rec.keys() >= set(keys)):
            if not isinstance(rec, dict):
                raise _bad(f"edge {i} must be an object")
            raise _bad(f"edge {i}: missing key {next(k for k in keys if k not in rec)!r}")
        if "estimators" in keys:
            if not isinstance(rec["estimators"], list):
                raise _bad(f"edge {i}: estimators must be a list")
            for j, triple in enumerate(rec["estimators"]):
                if not (isinstance(triple, list) and len(triple) == 3):
                    raise _bad(f"edge {i} estimator {j}: expected [lower, upper, time_cost]")
    doc["tail"] = [rec["from"] for rec in records]
    doc["head"] = [rec["to"] for rec in records]
    if "cost" in keys:
        doc["cost"] = [rec["cost"] for rec in records]
        return doc
    layers = [rec["estimators"] for rec in records]
    doc["est_offsets"] = list(accumulate(map(len, layers), initial=0))
    columns = [list(c) for c in zip(*(t for ests in layers for t in ests))] or [[], [], []]
    doc["est_lower"], doc["est_upper"], doc["est_time"] = columns
    doc["true_cost"] = [rec.get("true_cost") for rec in records]
    return doc


def _column(doc: dict, key: str, length: int | None = None) -> list:
    col = doc[key]
    if not isinstance(col, list):
        raise _bad(f"{key} must be a list")
    if length is not None and len(col) != length:
        raise _bad(f"{key}: expected {length} entries, got {len(col)}")
    return col


def _check_types(col: list, allowed: frozenset, name) -> None:
    """Refuse the first entry of col whose type is not allowed; name(k) names entry k."""
    if not set(map(type, col)) <= allowed:
        k = next(k for k, x in enumerate(col) if type(x) not in allowed)
        raise _bad(f"{name(k)} must be {'an integer' if allowed is _INTS else 'a number'}")


def _floats(col: list, allowed: frozenset, name) -> np.ndarray:
    """col as float64 (a null as NaN), with its types checked, not coerced."""
    _check_types(col, allowed, name)
    try:
        return np.array(col, np.float64)
    except OverflowError:
        for k, x in enumerate(col):
            try:
                float(0 if x is None else x)
            except OverflowError:
                raise _bad(f"{name(k)} does not fit a float") from None
        raise


def _graph_columns(text: str, keys: tuple[str, ...], record_keys: tuple[str, ...]):
    """(columns, vertex_count, start, goals) of a graph file in either layout,
    with its vertices and its tail and head columns checked."""
    doc = _read_doc(text)
    if "edges" in doc:
        doc = _records_to_columns(doc, record_keys)
    for key in keys:
        if key not in doc:
            raise _bad(f"missing key {key!r}")
    n = doc["vertex_count"]
    if type(n) is not int:
        raise _bad("vertex_count must be an integer")
    start = _as_vertex(doc["start"], "start", n)
    if not (isinstance(doc["goals"], list) and doc["goals"]):
        raise _bad("goals must be a non-empty list")
    goals = [_as_vertex(g, "goal", n) for g in doc["goals"]]
    m = len(_column(doc, "tail"))
    for key, end in (("tail", "'from'"), ("head", "'to'")):
        col = _column(doc, key, m)
        _check_types(col, _INTS, lambda k: f"edge {k}: endpoint {end}")
        if col and (min(col) < 0 or max(col) >= n):
            k = next(k for k, x in enumerate(col) if not 0 <= x < n)
            raise _bad(f"edge {k}: endpoint {end} {col[k]} out of range for {n} vertices")
    return doc, n, start, goals


def _json_pieces(columns) -> Iterator[str]:
    """The text of json.dumps(dict(columns), default=index) + "\n", one key
    and column at a time. columns yields (key, column) pairs and builds each
    column only when asked for it, so one column's list and text are alive
    at a time."""
    sep = "{"
    for key, col in columns:
        # numpy integer scalars (a start or goal, say) are written as the ints they hold
        yield f"{sep}{json.dumps(key)}: {json.dumps(col, default=index)}"
        del col  # free this column before the next one is built
        sep = ", "
    yield "}\n"


def _problem_columns(problem: Problem):
    graph = problem.graph
    yield "vertex_count", graph.vertex_count
    yield "start", problem.start
    yield "goals", sorted(problem.goals)
    for key in ("tail", "head", "est_offsets", "est_lower", "est_upper", "est_time"):
        yield key, getattr(graph, key).tolist()
    true_cost = graph.true_cost.tolist()
    for e in np.flatnonzero(~graph.true_known).tolist():
        true_cost[e] = None  # unknown, as distinct from a NaN true cost
    yield "true_cost", true_cost


def problem_to_json(problem: Problem) -> str:
    return "".join(_json_pieces(_problem_columns(problem)))


def problem_from_json(text: str) -> Problem:
    doc, n, start, goals = _graph_columns(text, _PROBLEM_KEYS, ("from", "to", "estimators"))
    m = len(doc["tail"])
    offsets = _column(doc, "est_offsets", m + 1)
    _check_types(offsets, _INTS, lambda k: f"est_offsets entry {k}")
    k = len(_column(doc, "est_lower"))
    if offsets[0] != 0:
        raise _bad("est_offsets must start at 0")
    if offsets[-1] != k:
        raise _bad(f"est_offsets must end at {k}, the length of est_lower")
    if not all(map(lt, offsets, offsets[1:])):
        e = next(e for e in range(m) if offsets[e + 1] <= offsets[e])
        raise _bad(f"edge {e} has no estimators: est_offsets must strictly increase")

    def layer(what: str):
        def name(j: int) -> str:
            e = bisect_right(offsets, j) - 1
            return f"edge {e} estimator {j - offsets[e]} {what}"
        return name

    lower, upper, time_cost = (
        _floats(_column(doc, key, k), _NUMBERS, layer(what))
        for key, what in (("est_lower", "lower"), ("est_upper", "upper"),
                          ("est_time", "time_cost"))
    )
    true_cost = _column(doc, "true_cost", m)
    known = [x is not None for x in true_cost] if None in true_cost else np.ones(m, np.bool_)
    true_cost = _floats(true_cost, _NUMBERS_OR_NULL, lambda e: f"edge {e} true_cost")
    graph = EstimatedDigraph.from_arrays(
        n, doc["tail"], doc["head"], offsets, lower, upper, time_cost, true_cost, known
    )
    violations = validate_graph(graph)
    if violations:
        v = violations[0]
        raise ValueError(
            f"invalid graph, {len(violations)} violations "
            f"(first: edge {v.edge}: {v.kind}: {v.detail})"
        )
    return Problem(graph, start, frozenset(goals))


def _write_atomic(path, pieces) -> None:
    """Stream pieces into a new file beside path, then move it over path; on
    any error remove it and re-raise, so path keeps its bytes or absence."""
    path = FsPath(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    f = tmp.open("x")  # "x": fails rather than take over a file of that name
    try:
        with f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def load_problem(path) -> Problem:
    return problem_from_json(FsPath(path).read_text())


def dump_problem(problem: Problem, path) -> None:
    _write_atomic(path, _json_pieces(_problem_columns(problem)))


def _weighted_columns(wg: WeightedDigraph):
    yield "vertex_count", wg.vertex_count
    yield "start", wg.start
    yield "goals", sorted(wg.goals)
    for key, k in (("tail", 0), ("head", 1), ("cost", 2)):
        yield key, list(map(itemgetter(k), wg.edges))


def weighted_to_json(wg: WeightedDigraph) -> str:
    return "".join(_json_pieces(_weighted_columns(wg)))


def weighted_from_json(text: str) -> WeightedDigraph:
    doc, n, start, goals = _graph_columns(text, _WEIGHTED_KEYS, ("from", "to", "cost"))
    tail, head = doc["tail"], doc["head"]
    cost = _column(doc, "cost", len(tail))
    # costs stay Python ints: one beyond int64 is synth's to refuse
    if not set(map(type, cost)) <= _INTS or (cost and min(cost) < 1):
        e = next(e for e, c in enumerate(cost) if type(c) is not int or c < 1)
        raise _bad(f"edge {e}: cost must be a positive integer")
    return WeightedDigraph(n, start, tuple(sorted(goals)), tuple(zip(tail, head, cost)))


def load_weighted(path) -> WeightedDigraph:
    return weighted_from_json(FsPath(path).read_text())


def dump_weighted(wg: WeightedDigraph, path) -> None:
    _write_atomic(path, _json_pieces(_weighted_columns(wg)))


def load_suite(path) -> dict:
    return _read_doc(FsPath(path).read_text())
