"""Reference answers computed by deliberately independent means.

Everything here ignores the search kernels and the estimation cache, and
builds no GraphArrays: edge tables are folded directly with numpy from the
graph's own arrays (whose structure its constructor checked), shortest paths
use a hand-rolled heapq Dijkstra over a flat CSR of out-edges built in this
module, and the enumeration oracle walks simple paths recursively. Intended
for tests and benchmark ground truth, not for performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .graph import EstimatedDigraph, Problem

__all__ = ["FullEstimate", "full_estimate", "oracle_lstar", "oracle_cstar", "oracle_enumerate"]


@dataclass(frozen=True)
class FullEstimate:
    """Per-edge tightest bounds with every estimator applied."""

    lowers: np.ndarray
    uppers: np.ndarray


def full_estimate(graph: EstimatedDigraph) -> FullEstimate:
    starts = graph.est_offsets[:-1]
    lowers = np.maximum.reduceat(graph.est_lower, starts)
    uppers = np.minimum.reduceat(graph.est_upper, starts)
    return FullEstimate(lowers, uppers)


def _adjacency(graph: EstimatedDigraph):
    """Out-edges as flat CSR, built here from tail and head alone: the edges
    leaving v are order[first[v]:first[v + 1]], in edge id order, and heads[k]
    is the head of edge order[k]. All three are memoryviews, which read as
    Python ints."""
    first = np.zeros(graph.vertex_count + 1, np.int64)
    np.cumsum(np.bincount(graph.tail, minlength=graph.vertex_count), out=first[1:])
    order = np.argsort(graph.tail, kind="stable")
    return memoryview(first), memoryview(order), memoryview(graph.head[order])


def _dijkstra_to_goals(problem: Problem, weights) -> float:
    dist = np.full(problem.graph.vertex_count, math.inf).tolist()  # too large an n fails here
    first, order, heads = _adjacency(problem.graph)
    dist[problem.start] = 0.0
    heap = [(0.0, problem.start)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if v in problem.goals:
            return d
        for k in range(first[v], first[v + 1]):
            nd = d + weights[order[k]]
            h = heads[k]
            if nd < dist[h]:
                dist[h] = nd
                heappush(heap, (nd, h))
    return math.inf


def oracle_lstar(problem: Problem) -> float:
    """Tightest fully-estimated path lower bound to any goal (inf if none)."""
    return _dijkstra_to_goals(problem, full_estimate(problem.graph).lowers.tolist())


def oracle_cstar(problem: Problem) -> float:
    """True shortest-path cost to any goal; every edge needs a true_cost."""
    if not problem.graph.true_known.all():
        raise ValueError(f"edge {np.argmin(problem.graph.true_known)} has no true_cost")
    return _dijkstra_to_goals(problem, problem.graph.true_cost.tolist())


def oracle_enumerate(problem: Problem) -> float:
    """Brute-force the tightest bound by walking simple paths.

    Exponential; meant as an independent cross-check on tiny graphs.
    """
    graph = problem.graph
    lowers = full_estimate(graph).lowers.tolist()
    first, order, heads = _adjacency(graph)
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
        for k in range(first[v], first[v + 1]):
            h = heads[k]
            if not on_path[h]:
                visit(h, cost + lowers[order[k]])
        on_path[v] = 0

    visit(problem.start, 0.0)
    return best
