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

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EstimatorSpec",
    "Edge",
    "EstimatedDigraph",
    "Problem",
    "Path",
    "EdgeBoundState",
    "Violation",
    "validate_graph",
    "tightest_edge_bounds",
    "path_bounds",
    "admissibility_factor",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """One bound-estimation procedure: interval [lower, upper] at price time_cost."""

    lower: float
    upper: float
    time_cost: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        object.__setattr__(self, "time_cost", float(self.time_cost))


@dataclass(frozen=True)
class Edge:
    """Directed edge with its estimator sequence.

    ``true_cost`` is optional ground truth used by oracles and synthetic
    instances; the search algorithms never read it.
    """

    tail: int
    head: int
    estimators: tuple[EstimatorSpec, ...]
    true_cost: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.true_cost is not None:
            object.__setattr__(self, "true_cost", float(self.true_cost))


@dataclass
class GraphArrays:
    """Flat array form of a graph, read by the search loop and the cache.

    Successors are CSR over the tail vertex, preserving edge declaration
    order within each tail. Estimator layers for edge e live in the flat
    slices ``est_lower[est_offsets[e]:est_offsets[e+1]]`` (same for upper
    and time).
    """

    indptr: np.ndarray
    succ_vertex: np.ndarray
    succ_edge: np.ndarray
    est_offsets: np.ndarray
    est_lower: np.ndarray
    est_upper: np.ndarray
    est_time: np.ndarray
    k_max: int


def _build_arrays(graph: EstimatedDigraph) -> GraphArrays:
    n = graph.vertex_count
    m = len(graph.edges)
    tail = np.empty(m, np.int64)
    head = np.empty(m, np.int64)
    seq_len = np.empty(m, np.int64)
    for i, e in enumerate(graph.edges):
        if not (0 <= e.tail < n and 0 <= e.head < n):
            raise ValueError(f"edge {i}: endpoint out of range for {n} vertices")
        if not e.estimators:
            raise ValueError(f"edge {i}: empty estimator sequence")
        tail[i] = e.tail
        head[i] = e.head
        seq_len[i] = len(e.estimators)

    order = np.argsort(tail, kind="stable")
    indptr = np.zeros(n + 1, np.int64)
    if m:
        indptr[1:] = np.cumsum(np.bincount(tail, minlength=n))
    est_offsets = np.zeros(m + 1, np.int64)
    est_offsets[1:] = np.cumsum(seq_len)
    total = int(est_offsets[-1])
    est_lower = np.empty(total)
    est_upper = np.empty(total)
    est_time = np.empty(total)
    pos = 0
    for e in graph.edges:
        for s in e.estimators:
            est_lower[pos] = s.lower
            est_upper[pos] = s.upper
            est_time[pos] = s.time_cost
            pos += 1
    return GraphArrays(
        indptr=indptr,
        succ_vertex=head[order],
        succ_edge=order,
        est_offsets=est_offsets,
        est_lower=est_lower,
        est_upper=est_upper,
        est_time=est_time,
        k_max=int(seq_len.max()) if m else 1,
    )


@dataclass
class EstimatedDigraph:
    """Explicit digraph. Parallel edges and self-loops are allowed.

    Treat instances as immutable once constructed; the flat array form is
    built lazily and cached.
    """

    vertex_count: int
    edges: list[Edge]
    _arrays: GraphArrays | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def arrays(self) -> GraphArrays:
        if self._arrays is None:
            self._arrays = _build_arrays(self)
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
        out = [graph.edges[self.edges[0]].tail]
        for eid in self.edges:
            out.append(graph.edges[eid].head)
        return tuple(out)


@dataclass(frozen=True)
class EdgeBoundState:
    """What is currently known about one edge.

    ``next_index`` counts applied sequence positions; 0 means nothing has
    been applied yet, in which case the bounds fields are the vacuous
    (0, inf).
    """

    tightest_lower: float = 0.0
    tightest_upper: float = math.inf
    next_index: int = 0


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
    """
    out: list[Violation] = []
    n = graph.vertex_count
    for idx, e in enumerate(graph.edges):
        if not (0 <= e.tail < n and 0 <= e.head < n):
            out.append(Violation(idx, "endpoint", f"({e.tail}, {e.head}) out of range"))
        if not e.estimators:
            out.append(Violation(idx, "empty_sequence", "no estimators"))
            continue
        for i, s in enumerate(e.estimators):
            ok = (
                math.isfinite(s.lower)
                and math.isfinite(s.upper)
                and 0.0 <= s.lower <= s.upper
            )
            if not ok:
                out.append(
                    Violation(idx, "bounds", f"layer {i + 1}: [{s.lower}, {s.upper}]")
                )
            if not (math.isfinite(s.time_cost) and s.time_cost >= 0.0):
                out.append(
                    Violation(idx, "time_cost", f"layer {i + 1}: {s.time_cost}")
                )
        for i in range(len(e.estimators) - 1):
            cur, nxt = e.estimators[i], e.estimators[i + 1]
            if not (nxt.lower >= cur.lower and nxt.upper <= cur.upper):
                out.append(
                    Violation(
                        idx,
                        "nesting",
                        f"layer {i + 2} does not tighten layer {i + 1}",
                    )
                )
            if not nxt.time_cost > cur.time_cost:
                out.append(
                    Violation(
                        idx,
                        "time_order",
                        f"layer {i + 2} not more expensive than layer {i + 1}",
                    )
                )
        if e.true_cost is not None:
            for i, s in enumerate(e.estimators):
                if not s.lower <= e.true_cost <= s.upper:
                    out.append(
                        Violation(
                            idx,
                            "true_cost",
                            f"{e.true_cost} outside layer {i + 1} interval",
                        )
                    )
    return out


def tightest_edge_bounds(state: EdgeBoundState) -> tuple[float, float]:
    """Tightest (lower, upper) for an edge with at least one applied estimator."""
    if state.next_index < 1:
        raise ValueError("no estimator applied to this edge yet")
    return (state.tightest_lower, state.tightest_upper)


def path_bounds(path: Path, states) -> tuple[float, float]:
    """Sum the tightest bounds along a path.

    ``states`` maps edge index -> EdgeBoundState; every path edge must have
    at least one applied estimator. The empty path has bounds (0, 0).
    """
    lo = 0.0
    up = 0.0
    for eid in path.edges:
        l, u = tightest_edge_bounds(states[eid])
        lo += l
        up += u
    return (lo, up)


def admissibility_factor(path_upper: float, l_star: float) -> float:
    """Worst-case suboptimality factor B with path_upper <= B * l_star.

    Both arguments must be non-negative. By convention 0/0 is 1 (an upper
    bound of zero is exactly optimal when the best bound is zero) and
    anything positive over zero is inf.
    """
    if path_upper < 0 or l_star < 0:
        raise ValueError("bounds must be non-negative")
    if l_star == 0.0:
        return 1.0 if path_upper == 0.0 else math.inf
    return path_upper / l_star
