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
from functools import cached_property

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, locked: a write to it raises ValueError, as to any view of it."""
    a.setflags(write=False)
    return a


@dataclass
class GraphArrays:
    """Flat array form of a checked graph, read by the search loop and the cache.

    - Successors: CSR over the tail vertex, in edge declaration order.
    - Predecessors (``pred_indptr``, ``pred_edge``): CSR over the head
      vertex; the edges into v are
      ``pred_edge[pred_indptr[v]:pred_indptr[v + 1]]``, by tail, then edge.
      Only a tie check reads them, so they are built on first read and kept.
    - Edge e's layers: ``est_offsets[e]:est_offsets[e + 1]`` of est_lower,
      est_upper and est_time, the graph's own arrays, not copies.
    - free_pass_lists: (g, parent edges) pairs of n-length lists that
      finished passes handed back reset to inf and -1, each taken by one
      new pass.
    - ``full_lower``: every edge's fully-estimated lower bound, built on
      its first read and kept.
    """

    indptr: np.ndarray
    succ_vertex: np.ndarray
    succ_edge: np.ndarray
    est_offsets: np.ndarray
    est_lower: np.ndarray
    est_upper: np.ndarray
    est_time: np.ndarray
    k_max: int
    free_pass_lists: list = field(default_factory=list, repr=False, compare=False)

    @cached_property
    def pred_indptr(self) -> np.ndarray:
        out = np.zeros(len(self.indptr), np.int64)
        out[1:] = np.cumsum(np.bincount(self.succ_vertex, minlength=len(self.indptr) - 1))
        return out

    @cached_property
    def pred_edge(self) -> np.ndarray:
        # the successor order is by tail, then edge; a stable sort by head keeps it
        return self.succ_edge[np.argsort(self.succ_vertex, kind="stable")]

    @cached_property
    def full_lower(self) -> np.ndarray:
        """Each edge's tightest lower bound once its whole sequence is applied
        to a fresh cache: the search loop's fold from 0.0 (a fresh cache's
        bound), as one reduction over each edge's layers. fmax skips NaNs,
        and a NaN, negative or zero maximum becomes +0.0. An eager pass gives
        it to every edge it charges."""
        top = np.fmax.reduceat(self.est_lower, self.est_offsets[:-1])
        return _read_only(np.where(top > 0.0, top, 0.0))


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
    instances as immutable; the CSR form is built lazily and cached. Both
    constructors refuse a column of the wrong length or ``est_offsets`` not
    running from 0 to ``len(est_lower)``, then the first stray endpoint,
    else the first empty sequence, else the first decreasing offset.
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
        n, tail, head, offsets = vertex_count, self.tail, self.head, self.est_offsets
        m, layers = len(tail), len(self.est_lower)
        for name in ("head", "true_cost", "true_known"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"{name} must have one entry per edge ({m})")
        if len(self.est_upper) != layers or len(self.est_time) != layers:
            raise ValueError("est_lower, est_upper and est_time differ in length")
        if len(offsets) != m + 1 or offsets[0] != 0 or offsets[-1] != layers:
            raise ValueError(f"est_offsets must be {m + 1} entries from 0 to {layers}")
        outside = (tail < 0) | (tail >= n) | (head < 0) | (head >= n)
        steps = np.diff(offsets)
        for bad, what in ((outside, f"endpoint out of range for {n} vertices"),
                          (steps == 0, "empty estimator sequence"),
                          (steps < 0, "est_offsets decrease")):
            if bad.any():
                raise ValueError(f"edge {int(np.argmax(bad))}: {what}")
        self._arrays: GraphArrays | None = None

    @property
    def edges(self) -> _EdgeView:
        return _EdgeView(self)

    def arrays(self) -> GraphArrays:
        if self._arrays is None:
            n, tail = self.vertex_count, self.tail
            indptr = np.zeros(n + 1, np.int64)
            indptr[1:] = np.cumsum(np.bincount(tail, minlength=n))
            order = np.argsort(tail, kind="stable")
            est = (self.est_offsets, self.est_lower, self.est_upper, self.est_time)  # not copied
            self._arrays = GraphArrays(indptr, self.head[order], order, *est,
                                       int(np.diff(self.est_offsets).max(initial=1)))
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


def sum_overflow(values: np.ndarray) -> int | None:
    """Index of the value at which the running sum of values passes the
    largest float; None when it never does, or when some value is not finite
    (a bound defect of its own)."""
    with np.errstate(over="ignore"):
        if np.isfinite(values).all() and not np.isfinite(values.sum()):
            return int(np.argmin(np.isfinite(values.cumsum())))
    return None


def validate_graph(graph: EstimatedDigraph) -> list[Violation]:
    """Check every edge's estimator sequence for bound defects; return all found.

    Checks per estimator: 0 <= lower <= upper < inf and finite non-negative
    time_cost. Checks per adjacent pair: interval nesting and strictly
    increasing time_cost. When true_cost is present it must lie in every
    interval of the sequence. Across edges, the final lower bounds must sum
    to a finite float, so no path's bound overflows to inf (which a search
    would report as no path); the edge where their running sum overflows is
    named. An empty list means the graph is valid.

    Each rule is one array mask. Violations come by edge; within an edge,
    each layer's bounds and time_cost, each pair's nesting and time order,
    the true cost against each layer, then the sum.
    """
    lens = np.diff(graph.est_offsets)
    owner = np.repeat(np.arange(len(lens)), lens)  # the edge of each estimator
    lo, up, t, tc = graph.est_lower, graph.est_upper, graph.est_time, graph.true_cost[owner]
    # pair rules compare estimator k with k + 1, unless k is its edge's last
    last = np.append(owner[1:] != owner[:-1], True)
    nested = np.append((lo[1:] >= lo[:-1]) & (up[1:] <= up[:-1]), True)
    dearer = np.append(t[1:] > t[:-1], True)
    found = []  # (edge, section, layer, kind, detail)
    rules = (  # (section, kind, failing estimators, detail of estimator k at layer i)
        (0, "bounds", ~(np.isfinite(lo) & np.isfinite(up) & (0.0 <= lo) & (lo <= up)),
         lambda k, i: f"layer {i + 1}: [{float(lo[k])}, {float(up[k])}]"),
        (0, "time_cost", ~(np.isfinite(t) & (t >= 0.0)),
         lambda k, i: f"layer {i + 1}: {float(t[k])}"),
        (1, "nesting", ~(last | nested),
         lambda k, i: f"layer {i + 2} does not tighten layer {i + 1}"),
        (1, "time_order", ~(last | dearer),
         lambda k, i: f"layer {i + 2} not more expensive than layer {i + 1}"),
        (2, "true_cost", graph.true_known[owner] & ~((lo <= tc) & (tc <= up)),
         lambda k, i: f"{float(tc[k])} outside layer {i + 1} interval"),
    )
    for section, kind, bad, detail in rules:
        for k in np.flatnonzero(bad).tolist():
            edge = int(owner[k])
            i = k - int(graph.est_offsets[edge])  # the layer, from 0
            found.append((edge, section, i, kind, detail(k, i)))
    edge = sum_overflow(lo[graph.est_offsets[1:] - 1])
    if edge is not None:
        found.append((edge, 3, 0, "overflow",
                      f"final lower bounds of edges 0 to {edge} sum past the largest float"))
    # stable, so bounds stay before time_cost and nesting before time_order
    found.sort(key=lambda v: v[:3])
    return [Violation(edge, kind, detail) for edge, _, _, kind, detail in found]

