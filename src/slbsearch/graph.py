"""Digraphs whose edge costs are known only through bound estimators.

Instead of a scalar weight, every edge carries a finite ordered sequence of
estimators. Estimator ``i`` returns a closed interval ``[lower, upper]``
containing the unknown true edge cost, at a simulated run-time price
``time_cost``. Within a sequence the intervals are nested (later estimators
never loosen what is known) and the prices strictly increase, so position in
the sequence trades accuracy against cost.

The tightest knowledge about an edge after applying the first ``j``
estimators is the max of the applied lower bounds paired with the min of the
applied upper bounds. Bounds are additive along paths.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EstimatorSpec",
    "Edge",
    "EstimatedDigraph",
    "Problem",
    "Path",
    "Violation",
    "validate_graph",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """One bound-estimation procedure: interval [lower, upper] at price time_cost."""

    lower: float
    upper: float
    time_cost: float


@dataclass(frozen=True)
class Edge:
    """Directed edge with its estimator sequence.

    ``true_cost`` is optional ground truth used by oracles and synthetic
    instances; the search algorithms never read it. Edges are how a graph
    is built by hand: a graph stores their numbers as float arrays, and
    its ``edges`` view builds them back with float fields.
    """

    tail: int
    head: int
    estimators: tuple[EstimatorSpec, ...]
    true_cost: float | None = None


@dataclass
class GraphArrays:
    """Flat array form of a graph, read by the search loop and the cache.

    Successors are CSR over the tail vertex, preserving edge declaration
    order within each tail. Predecessors are CSR over the head vertex: the
    edges into v are ``pred_edge[pred_indptr[v]:pred_indptr[v + 1]]``, in
    ascending (tail, edge) order. Estimator layers for edge e live in the flat
    slices ``est_lower[est_offsets[e]:est_offsets[e+1]]`` (same for upper
    and time); these four are the graph's own arrays, not copies.

    free_pass_lists holds (g, closed, parent edges) triples of n-length
    lists that finished search passes handed back reset to inf, False and
    -1; a new pass takes one (each pass its own) instead of allocating.
    """

    indptr: np.ndarray
    succ_vertex: np.ndarray
    succ_edge: np.ndarray
    pred_indptr: np.ndarray
    pred_edge: np.ndarray
    est_offsets: np.ndarray
    est_lower: np.ndarray
    est_upper: np.ndarray
    est_time: np.ndarray
    k_max: int
    free_pass_lists: list = field(default_factory=list, repr=False, compare=False)


@dataclass(frozen=True)
class _EdgeView(Sequence):
    """Read-only sequence of a graph's edges, each built as an Edge on demand."""

    _graph: EstimatedDigraph

    def __len__(self) -> int:
        return len(self._graph.tail)

    def __getitem__(self, eid: int) -> Edge:
        g = self._graph
        eid = range(len(g.tail))[eid]  # negative indices; IndexError past the end
        a, b = g.est_offsets[eid], g.est_offsets[eid + 1]
        columns = (x[a:b].tolist() for x in (g.est_lower, g.est_upper, g.est_time))
        specs = tuple(map(EstimatorSpec, *columns))
        true_cost = float(g.true_cost[eid]) if g.true_known[eid] else None
        return Edge(int(g.tail[eid]), int(g.head[eid]), specs, true_cost)


class EstimatedDigraph:
    """Explicit digraph. Parallel edges and self-loops are allowed.

    Stored as flat per-edge arrays: ``tail``, ``head``, the layers of edge e
    at ``est_offsets[e]:est_offsets[e + 1]`` of ``est_lower``, ``est_upper``
    and ``est_time``, and ``true_cost``, read only where ``true_known`` (so
    unknown is not NaN). ``EstimatedDigraph(n, edges)`` flattens hand-built
    Edges; ``edges`` is a read-only view that builds them on demand. Treat
    instances as immutable; the CSR form is built lazily and cached.
    """

    def __init__(self, vertex_count: int, edges: Sequence[Edge] = ()):
        specs = [s for e in edges for s in e.estimators]
        self._store(
            vertex_count, [e.tail for e in edges], [e.head for e in edges],
            np.cumsum([0] + [len(e.estimators) for e in edges]),
            [s.lower for s in specs], [s.upper for s in specs], [s.time_cost for s in specs],
            [e.true_cost for e in edges], [e.true_cost is not None for e in edges],
        )  # a None true cost is stored as NaN; true_known tells the two apart

    @classmethod
    def from_arrays(cls, vertex_count, tail, head, est_offsets, est_lower, est_upper, est_time,
                    true_cost, true_known) -> EstimatedDigraph:
        """Graph over its flat arrays (see the class docstring); no copies at the right dtype."""
        graph = cls.__new__(cls)
        graph._store(vertex_count, tail, head, est_offsets, est_lower, est_upper,
                     est_time, true_cost, true_known)
        return graph

    def _store(self, vertex_count, tail, head, est_offsets, est_lower, est_upper,
               est_time, true_cost, true_known) -> None:
        self.vertex_count = vertex_count
        self.tail = np.asarray(tail, np.int64)
        self.head = np.asarray(head, np.int64)
        self.est_offsets = np.asarray(est_offsets, np.int64)
        self.est_lower = np.asarray(est_lower, np.float64)
        self.est_upper = np.asarray(est_upper, np.float64)
        self.est_time = np.asarray(est_time, np.float64)
        self.true_cost = np.asarray(true_cost, np.float64)
        self.true_known = np.asarray(true_known, np.bool_)
        self._arrays: GraphArrays | None = None

    @property
    def edges(self) -> _EdgeView:
        return _EdgeView(self)

    def arrays(self) -> GraphArrays:
        if self._arrays is None:
            n, tail, head = self.vertex_count, self.tail, self.head
            lens = np.diff(self.est_offsets)
            outside = (tail < 0) | (tail >= n) | (head < 0) | (head >= n)
            for bad, what in ((outside, f"endpoint out of range for {n} vertices"),
                              (lens == 0, "empty estimator sequence")):
                if bad.any():
                    raise ValueError(f"edge {int(np.argmax(bad))}: {what}")
            indptr, pred_indptr = np.zeros((2, n + 1), np.int64)
            indptr[1:] = np.cumsum(np.bincount(tail, minlength=n))
            pred_indptr[1:] = np.cumsum(np.bincount(head, minlength=n))
            order = np.argsort(tail, kind="stable")
            est = (self.est_offsets, self.est_lower, self.est_upper, self.est_time)  # not copied
            self._arrays = GraphArrays(indptr, head[order], order, pred_indptr,
                                       np.lexsort((tail, head)), *est, int(lens.max(initial=1)))
        return self._arrays


@dataclass(frozen=True)
class Problem:
    """A graph plus a start vertex and a non-empty goal set."""

    graph: EstimatedDigraph
    start: int
    goals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "goals", frozenset(self.goals))
        n = self.graph.vertex_count
        if not 0 <= self.start < n:
            raise ValueError(f"start vertex {self.start} out of range")
        if not self.goals:
            raise ValueError("goal set is empty")
        for g in self.goals:
            if not 0 <= g < n:
                raise ValueError(f"goal vertex {g} out of range")


@dataclass(frozen=True)
class Path:
    """A walk through the graph, stored as edge indices plus its last vertex.

    An empty edge tuple is a legitimate path (start vertex is itself a
    goal); it is distinct from "no path found", which callers represent
    with None.
    """

    edges: tuple[int, ...]
    terminal: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    def vertices(self, graph: EstimatedDigraph) -> tuple[int, ...]:
        if not self.edges:
            return (self.terminal,)
        return (int(graph.tail[self.edges[0]]), *graph.head[list(self.edges)].tolist())


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_graph."""

    edge: int | None
    kind: str
    detail: str


def validate_graph(graph: EstimatedDigraph) -> list[Violation]:
    """Check every edge's estimator sequence; return all defects found.

    Checks per estimator: 0 <= lower <= upper < inf and finite non-negative
    time_cost. Checks per adjacent pair: interval nesting and strictly
    increasing time_cost. When true_cost is present it must lie in every
    interval of the sequence. An empty list means the graph is valid.

    Each rule is one array mask. Violations come by edge; within an edge,
    endpoints, emptiness, each layer's bounds and time_cost, each pair's
    nesting and time order, then the true cost against each layer.
    """
    n, tail, head = graph.vertex_count, graph.tail, graph.head
    lens = np.diff(graph.est_offsets)
    owner = np.repeat(np.arange(len(lens)), lens)  # the edge of each estimator
    lo, up, t, tc = graph.est_lower, graph.est_upper, graph.est_time, graph.true_cost[owner]
    # pair rules compare estimator k with k + 1, unless k is its edge's last
    last = np.append(owner[1:] != owner[:-1], True)
    nested = np.append((lo[1:] >= lo[:-1]) & (up[1:] <= up[:-1]), True)
    dearer = np.append(t[1:] > t[:-1], True)
    outside = (tail < 0) | (tail >= n) | (head < 0) | (head >= n)
    found = [  # (edge, section, layer, kind, detail)
        (e, 0, 0, "endpoint", f"({int(tail[e])}, {int(head[e])}) out of range")
        for e in np.flatnonzero(outside).tolist()
    ]
    empty = np.flatnonzero(lens == 0).tolist()
    found += [(e, 1, 0, "empty_sequence", "no estimators") for e in empty]
    rules = (  # (section, kind, failing estimators, detail of estimator k at layer i)
        (2, "bounds", ~(np.isfinite(lo) & np.isfinite(up) & (0.0 <= lo) & (lo <= up)),
         lambda k, i: f"layer {i + 1}: [{float(lo[k])}, {float(up[k])}]"),
        (2, "time_cost", ~(np.isfinite(t) & (t >= 0.0)),
         lambda k, i: f"layer {i + 1}: {float(t[k])}"),
        (3, "nesting", ~(last | nested),
         lambda k, i: f"layer {i + 2} does not tighten layer {i + 1}"),
        (3, "time_order", ~(last | dearer),
         lambda k, i: f"layer {i + 2} not more expensive than layer {i + 1}"),
        (4, "true_cost", graph.true_known[owner] & ~((lo <= tc) & (tc <= up)),
         lambda k, i: f"{float(tc[k])} outside layer {i + 1} interval"),
    )
    for section, kind, bad, detail in rules:
        for k in np.flatnonzero(bad).tolist():
            edge = int(owner[k])
            i = k - int(graph.est_offsets[edge])  # the layer, from 0
            found.append((edge, section, i, kind, detail(k, i)))
    # stable, so bounds stay before time_cost and nesting before time_order
    found.sort(key=lambda v: v[:3])
    return [Violation(edge, kind, detail) for edge, _, _, kind, detail in found]

