"""JSON file formats for problems, weighted digraphs, and benchmark suites.

A graph file is one JSON object of flat columns, the graph's own arrays:
``vertex_count``, ``start``, ``goals``, ``tail`` and ``head``; then, in a
problem file, ``est_offsets``, ``est_lower``, ``est_upper``, ``est_time`` and
``true_cost`` (``null`` where unknown), laid out as EstimatedDigraph stores
them, and in a weighted file ``cost``, as WeightedDigraph stores its tail,
head and cost tuples. The writers stream one column at a time: each column's
text is made and written (or joined) before the next is made, and the text
is that of one json.dumps of all the columns. A float column's text is made
with each distinct value encoded once, in the bytes json.dumps gives it. A
file is written to a temporary file beside it, which replaces it only once
the last column is written. Files in the older per-edge layout (an
``edges`` list of objects) are still read: their records are reshaped into
the same columns.

A graph file is decoded by orjson, and its document checked. A text orjson
refuses, or whose document the checks refuse, is decoded again by json and
checked again, so every refusal carries json's message, and the files only
json reads (``NaN`` and ``Infinity``, float literals past the float range,
integers past 64 bits, which orjson reads as floats) load as they do with
json alone.
A text with more than _ORJSON_MAX_OPENERS opening brackets goes to json
directly. orjson releases before 3.9.15 have no nesting limit, and this bound
is below json's recursion limit, so no text orjson decodes nests deeper than
json accepts: every file loads, or is refused, as with json alone. Suite
files and every writer use json.

The loaders are where a graph file is checked, by one column checker for
both layouts: every Problem or WeightedDigraph they return has its start,
goals and edge endpoints in range (and in int64) and its numbers
representable as floats, and every loaded Problem passes validate_graph.
Each column's entry types are checked on its decoded list; the endpoints'
range and the order of est_offsets are then checked on int64 arrays. A
problem file's float columns and est_offsets replace their lists in the
decoded document by their arrays, and its endpoint lists are dropped, while
a weighted file keeps its lists of Python ints. Anything else raises one
ValueError naming the first bad edge (and estimator).
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from itertools import accumulate, pairwise
from operator import index
from pathlib import Path as FsPath

import numpy as np
import orjson

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
_INT64_END = 2**63
# orjson before 3.9.15 nests without limit and can overflow the C stack (a
# crash, not an error); at most this many opening brackets keep orjson's
# nesting shallow and below json's recursion limit (sys.getrecursionlimit())
_ORJSON_MAX_OPENERS = 2**9


def _bad(msg: str) -> ValueError:
    return ValueError(f"bad input file: {msg}")


def _as_vertex(x, what: str, n: int) -> int:
    if type(x) is not int:
        raise _bad(f"{what} must be an integer")
    if not 0 <= x < n:
        raise _bad(f"{what} {x} out of range for {n} vertices")
    return x


def _object(doc) -> dict:
    if not isinstance(doc, dict):
        raise _bad("top level must be an object")
    return doc


def _read_doc(text: str) -> dict:
    """Decode one JSON object with json."""
    try:
        return _object(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise _bad(f"not valid JSON ({exc})") from exc


def _decoded(text: str, check):
    """check(doc) of the JSON object in text: of orjson's document, or, when
    orjson or check refuses that, of json's."""
    if text.count("[") + text.count("{") <= _ORJSON_MAX_OPENERS:
        try:
            return check(_object(orjson.loads(text)))
        except ValueError:  # orjson.JSONDecodeError is one
            pass
    return check(_read_doc(text))


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


def _check_types(col: list, allowed: frozenset, name) -> set:
    """The types of col's entries; refuse the first entry whose type is not
    allowed, named by name(k) for entry k."""
    types = set(map(type, col))
    if not types <= allowed:
        k = next(k for k, x in enumerate(col) if type(x) not in allowed)
        raise _bad(f"{name(k)} must be {'an integer' if allowed is _INTS else 'a number'}")
    return types


def _floats(doc: dict, key: str, length: int, allowed: frozenset, name):
    """(doc[key] as float64, its known mask or None when no entry is null),
    with its types checked, not coerced. The array replaces the list in doc."""
    col = _column(doc, key, length)
    known = None
    if type(None) in _check_types(col, allowed, name):
        known = np.array([x is not None for x in col], np.bool_)
    try:
        doc[key] = np.array(col, np.float64)  # a null reads as NaN
    except OverflowError:
        for k, x in enumerate(col):
            try:
                float(0 if x is None else x)
            except OverflowError:
                raise _bad(f"{name(k)} does not fit a float") from None
        raise
    return doc[key], known


def _graph_columns(doc: dict, keys: tuple[str, ...], record_keys: tuple[str, ...]):
    """(columns, vertex_count, start, goals, tail, head) of a graph file's
    document in either layout, with its vertices checked and its tail and
    head columns checked as int64 arrays; the columns keep their lists."""
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
    ends = []
    for key, end in (("tail", "'from'"), ("head", "'to'")):
        col = _column(doc, key, m)
        _check_types(col, _INTS, lambda k: f"edge {k}: endpoint {end}")
        try:
            arr = np.fromiter(col, np.int64, m)
        except OverflowError:  # an endpoint beyond int64
            arr = None
        if arr is None or (m and (arr.min() < 0 or arr.max() >= n)):
            k, x = next((k, x) for k, x in enumerate(col) if not 0 <= x < min(n, _INT64_END))
            if 0 <= x < n:
                raise _bad(f"edge {k}: endpoint {end} {x} does not fit int64")
            raise _bad(f"edge {k}: endpoint {end} {x} out of range for {n} vertices")
        ends.append(arr)
    return doc, n, start, goals, *ends


def _json(x) -> str:
    # numpy integer scalars (a start or goal, say) are written as the ints they hold
    return json.dumps(x, default=index)


def _float_text(col: np.ndarray, known: np.ndarray | None = None) -> str:
    """The text of json.dumps(col.tolist()), with null where known is False,
    each distinct value encoded once. Values are told apart by their bits,
    so 0.0 and -0.0, which print differently, stay apart."""
    bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
    words = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    words = np.array([*words, "null"], object)
    if known is not None:
        inverse[~known] = len(words) - 1  # unknown, as distinct from a NaN true cost
    return f"[{', '.join(words[inverse].tolist())}]"


def _json_pieces(columns) -> Iterator[str]:
    """The text of json.dumps(dict(columns)) + "\n", one key and column at a
    time. columns yields (key, column text) pairs and makes each text only
    when asked for it, so one column's text is alive at a time."""
    sep = "{"
    for key, text in columns:
        yield f"{sep}{json.dumps(key)}: {text}"
        del text  # free this column's text before the next one is made
        sep = ", "
    yield "}\n"


def _problem_columns(problem: Problem):
    graph = problem.graph
    yield "vertex_count", _json(graph.vertex_count)
    yield "start", _json(problem.start)
    yield "goals", _json(sorted(problem.goals))
    for key in ("tail", "head", "est_offsets"):
        yield key, json.dumps(getattr(graph, key).tolist())
    for key in ("est_lower", "est_upper", "est_time"):
        yield key, _float_text(getattr(graph, key))
    yield "true_cost", _float_text(graph.true_cost, graph.true_known)


def problem_to_json(problem: Problem) -> str:
    return "".join(_json_pieces(_problem_columns(problem)))


def problem_from_json(text: str) -> Problem:
    return _decoded(text, _problem)


def _problem(doc: dict) -> Problem:
    doc, n, start, goals, tail, head = _graph_columns(
        doc, _PROBLEM_KEYS, ("from", "to", "estimators"))
    del doc["tail"], doc["head"]  # their arrays stand in for them
    m = len(tail)
    offsets = _column(doc, "est_offsets", m + 1)
    _check_types(offsets, _INTS, lambda k: f"est_offsets entry {k}")
    k = len(_column(doc, "est_lower"))
    if offsets[0] != 0:
        raise _bad("est_offsets must start at 0")
    if offsets[-1] != k:
        raise _bad(f"est_offsets must end at {k}, the length of est_lower")
    try:
        offsets = doc["est_offsets"] = np.fromiter(offsets, np.int64, m + 1)
        falls = np.diff(offsets) <= 0
    except OverflowError:  # an offset beyond int64 is outside [0, k], so they do not all rise
        falls = [b <= a for a, b in pairwise(offsets)]
    if np.any(falls):
        raise _bad(f"edge {np.argmax(falls)} has no estimators: est_offsets must strictly increase")

    def layer(what: str):
        def name(j: int) -> str:
            e = int(np.searchsorted(offsets, j, "right")) - 1
            return f"edge {e} estimator {j - offsets[e]} {what}"
        return name

    lower, upper, time_cost = (
        _floats(doc, key, k, _NUMBERS, layer(what))[0]
        for key, what in (("est_lower", "lower"), ("est_upper", "upper"),
                          ("est_time", "time_cost"))
    )
    true_cost, known = _floats(doc, "true_cost", m, _NUMBERS_OR_NULL,
                               lambda e: f"edge {e} true_cost")
    graph = EstimatedDigraph.from_arrays(
        n, tail, head, offsets, lower, upper, time_cost, true_cost,
        np.ones(m, np.bool_) if known is None else known,
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
    any error remove it and re-raise, so path keeps its bytes or absence.
    Newlines are written as they are in the pieces, on every platform."""
    path = FsPath(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    f = tmp.open("x", newline="")  # "x": fails rather than take over a file of that name
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
    yield "vertex_count", _json(wg.vertex_count)
    yield "start", _json(wg.start)
    yield "goals", _json(sorted(wg.goals))
    for key in ("tail", "head", "cost"):
        yield key, _json(getattr(wg, key))


def weighted_to_json(wg: WeightedDigraph) -> str:
    return "".join(_json_pieces(_weighted_columns(wg)))


def weighted_from_json(text: str) -> WeightedDigraph:
    return _decoded(text, _weighted)


def _weighted(doc: dict) -> WeightedDigraph:
    doc, n, start, goals, *_ = _graph_columns(doc, _WEIGHTED_KEYS, ("from", "to", "cost"))
    tail, head = doc["tail"], doc["head"]
    cost = _column(doc, "cost", len(tail))
    # costs stay Python ints: one beyond int64 is synth's to refuse
    if not set(map(type, cost)) <= _INTS or (cost and min(cost) < 1):
        e = next(e for e, c in enumerate(cost) if type(c) is not int or c < 1)
        raise _bad(f"edge {e}: cost must be a positive integer")
    return WeightedDigraph(n, start, tuple(sorted(goals)), tuple(tail), tuple(head), tuple(cost))


def load_weighted(path) -> WeightedDigraph:
    return weighted_from_json(FsPath(path).read_text())


def dump_weighted(wg: WeightedDigraph, path) -> None:
    _write_atomic(path, _json_pieces(_weighted_columns(wg)))


def load_suite(path) -> dict:
    return _read_doc(FsPath(path).read_text())
