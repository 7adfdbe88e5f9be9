import numpy as np
import pytest

from slbsearch import (
    Edge,
    EstimatedDigraph,
    EstimatorSpec,
    Problem,
    default_backend_name,
)

# Reference instance used across the suite: five vertices, start 0, goals
# {3, 4}. Edge indices by declaration order; labels name tail/head.
E01, E02, E14, E21, E23, E24 = range(6)

# layer time costs for the reference instance (cheap probe, pricier refine)
T1, T2 = 1.0, 10.0

# CSV headers for graphs of at most three estimator layers
METRIC_COLUMNS = ["w_1", "w_2", "w_3", "expansions", "evaluations", "prunings", "T_w", "T_v"]
RUNS_CSV_HEADER = [
    "instance_id", "algorithm", *METRIC_COLUMNS,
    "l_under", "l_over", "optimal_flag", "iterations",
]
ITERATIONS_CSV_HEADER = [
    "instance_id", "algorithm", "iteration", "l_under", "l_over", *METRIC_COLUMNS,
]


def charged_layers(cache, eid):
    """The 1-based layers of edge eid that cache has invoked, in order."""
    off = cache.graph.est_offsets
    return tuple((np.flatnonzero(cache.invoked[off[eid]:off[eid + 1]]) + 1).tolist())


def edge(tail, head, specs, true_cost=None):
    return Edge(tail, head, tuple(EstimatorSpec(*s) for s in specs), true_cost)


def make_reference_graph():
    edges = [
        edge(0, 1, [(4, 4, T1)], 4),
        edge(0, 2, [(2, 6, T1), (3, 5, T2)], 4),
        edge(1, 4, [(1, 10, T1), (4, 6, T2)], 5),
        edge(2, 1, [(2, 3, T1), (3, 3, T2)], 3),
        edge(2, 3, [(5, 9, T1), (7, 8, T2)], 7),
        edge(2, 4, [(4, 6, T1)], 6),
    ]
    return EstimatedDigraph(5, edges)


def make_reference_problem():
    return Problem(make_reference_graph(), 0, frozenset({3, 4}))


def lazy_edge(tail, head, *lowers):
    """Edge whose i-th estimator has lower bound lowers[i]; nested and valid."""
    specs = [(lo, 20 - i, 10.0**i) for i, lo in enumerate(lowers)]
    return edge(tail, head, specs, lowers[-1])


# Tie shapes. In each, a lazy pass pops a goal at key k through a path that
# post-search tightening raises, while the optimum L* is also k.


def make_goal_tie_problem():
    """Another goal (5, via the single-layer edge 2) waits at key k = 4."""
    edges = [lazy_edge(0, 3, 1, 5), lazy_edge(0, 4, 4, 6), lazy_edge(0, 5, 4)]
    return Problem(EstimatedDigraph(6, edges), 0, frozenset({3, 4, 5}))


def make_frontier_tie_problem():
    """Vertex 2 sits unexpanded at key k = 4 on the optimal route 0-2-4."""
    edges = [
        lazy_edge(0, 3, 1, 5),
        lazy_edge(0, 4, 4, 6),
        lazy_edge(0, 2, 4),
        lazy_edge(2, 4, 0),
    ]
    return Problem(EstimatedDigraph(5, edges), 0, frozenset({3, 4}))


def make_queued_behind_goal_problem(vertex_count=7, goal_lowers=(1,)):
    """The goal 2 pops at key k = 1 with two kinds of vertices queued at k:
    3 and 4 were pushed before it and wait behind it, and 5 was pushed at k
    through the zero-bound edge 1 -> 5 while k's list was being walked.
    Expanding 3 pushes 6 at k through another zero-bound edge. Vertices 7..
    only pad the graph."""
    edges = [
        lazy_edge(0, 1, 1),
        lazy_edge(0, 2, *goal_lowers),
        lazy_edge(0, 3, 1),
        lazy_edge(0, 4, 1),
        lazy_edge(1, 5, 0),
        lazy_edge(3, 6, 0),
    ]
    return Problem(EstimatedDigraph(vertex_count, edges), 0, frozenset({2}))


def make_closed_tie_problem():
    """Closed vertex 3 has tied parents 1 and 2; the recorded one, 1, sits
    behind edge 1, which rises; the optimum (k = 4) runs through 2."""
    edges = [
        lazy_edge(0, 5, 1, 9),
        lazy_edge(0, 1, 2, 4),
        lazy_edge(0, 2, 2),
        lazy_edge(1, 3, 1),
        lazy_edge(2, 3, 1),
        lazy_edge(3, 4, 1),
    ]
    return Problem(EstimatedDigraph(6, edges), 0, frozenset({4, 5}))


def make_closed_bracket_problem():
    """Pass 1's path 0-1-3 attains L* = 5 but is popped at 1; pass 2 pops
    goal 4 at 5 through edge 1, which rises, so the bracket closes."""
    edges = [lazy_edge(0, 1, 1), lazy_edge(0, 4, 5, 7), lazy_edge(1, 3, 0, 4)]
    return Problem(EstimatedDigraph(5, edges), 0, frozenset({3, 4}))


@pytest.fixture
def ref():
    return make_reference_problem()


@pytest.fixture(params=[default_backend_name()])
def kernel(request):
    """The one search kernel, named as benchmark results are stamped.

    Tests that take it keep the ``[numpy]`` id they have always had.
    """
    return request.param


def random_problem(rng: np.random.Generator, max_n=8, edge_prob=0.3, max_layers=3):
    """Arbitrary-topology estimated problem: cycles, self-loops and parallel
    edges allowed, integer-valued nested bounds, true cost inside every
    interval."""
    n = int(rng.integers(2, max_n + 1))
    edges = []
    for tail in range(n):
        for head in range(n):
            if rng.random() >= edge_prob:
                continue
            k = int(rng.integers(1, max_layers + 1))
            c = int(rng.integers(0, 21))
            lowers = sorted(int(rng.integers(0, c + 1)) for _ in range(k))
            uppers = sorted(
                (int(rng.integers(c, c + 15)) for _ in range(k)), reverse=True
            )
            specs = tuple(
                EstimatorSpec(float(lo), float(up), float(10**i))
                for i, (lo, up) in enumerate(zip(lowers, uppers))
            )
            edges.append(Edge(tail, head, specs, float(c)))
    graph = EstimatedDigraph(n, edges)
    n_goals = int(rng.integers(1, 3))
    goals = frozenset(int(v) for v in rng.choice(n, size=n_goals, replace=False))
    return Problem(graph, 0, goals)
