"""Reference answers computed by deliberately independent means.

Everything here ignores the search kernels and the estimation cache: edge
tables are folded directly with numpy, shortest paths use a hand-rolled
heapq Dijkstra over plain adjacency lists, and the enumeration oracle walks
simple paths recursively. Intended for tests and benchmark ground truth,
not for performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .graph import EdgeBoundState, EstimatedDigraph, Problem

__all__ = ["FullEstimate", "full_estimate", "oracle_lstar", "oracle_cstar", "oracle_enumerate"]


@dataclass(frozen=True)
class FullEstimate:
    """Per-edge tightest bounds with every estimator applied."""

    lowers: np.ndarray
    uppers: np.ndarray
    counts: np.ndarray

    def __getitem__(self, eid: int) -> EdgeBoundState:
        return EdgeBoundState(
            tightest_lower=float(self.lowers[eid]),
            tightest_upper=float(self.uppers[eid]),
            next_index=int(self.counts[eid]),
        )


def full_estimate(graph: EstimatedDigraph) -> FullEstimate:
    arr = graph.arrays()
    m = len(graph.edges)
    if m == 0:
        empty = np.empty(0)
        return FullEstimate(empty, empty.copy(), np.empty(0, np.int64))
    starts = arr.est_offsets[:-1]
    lowers = np.maximum.reduceat(arr.est_lower, starts)
    uppers = np.minimum.reduceat(arr.est_upper, starts)
    counts = np.diff(arr.est_offsets)
    return FullEstimate(lowers, uppers, counts)


def _adjacency(graph: EstimatedDigraph):
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    for eid, e in enumerate(graph.edges):
        adj[e.tail].append((eid, e.head))
    return adj


def _dijkstra_to_goals(problem: Problem, weights) -> float:
    adj = _adjacency(problem.graph)
    dist = [math.inf] * problem.graph.vertex_count
    dist[problem.start] = 0.0
    heap = [(0.0, problem.start)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if v in problem.goals:
            return d
        for eid, h in adj[v]:
            nd = d + weights[eid]
            if nd < dist[h]:
                dist[h] = nd
                heappush(heap, (nd, h))
    return math.inf


def oracle_lstar(problem: Problem) -> float:
    """Tightest fully-estimated path lower bound to any goal (inf if none)."""
    full = full_estimate(problem.graph)
    return _dijkstra_to_goals(problem, full.lowers)


def oracle_cstar(problem: Problem) -> float:
    """True shortest-path cost to any goal; every edge needs a true_cost."""
    weights = []
    for eid, e in enumerate(problem.graph.edges):
        if e.true_cost is None:
            raise ValueError(f"edge {eid} has no true_cost")
        weights.append(e.true_cost)
    return _dijkstra_to_goals(problem, weights)


def oracle_enumerate(problem: Problem) -> float:
    """Brute-force the tightest bound by walking simple paths.

    Exponential; meant as an independent cross-check on tiny graphs.
    """
    graph = problem.graph
    full = full_estimate(graph)
    adj = _adjacency(graph)
    goals = problem.goals
    best = math.inf
    on_path = bytearray(graph.vertex_count)

    def visit(v: int, cost: float) -> None:
        nonlocal best
        if cost >= best:
            return
        if v in goals:
            best = cost
            return
        on_path[v] = 1
        for eid, h in adj[v]:
            if not on_path[h]:
                visit(h, cost + float(full.lowers[eid]))
        on_path[v] = 0

    visit(problem.start, 0.0)
    return best
