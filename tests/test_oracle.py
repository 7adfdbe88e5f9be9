import math
import tracemalloc

import pytest
from conftest import E01, E02, E14, E21, E23, E24, edge, make_reference_problem

from slbsearch import (
    EstimatedDigraph,
    EstimationCache,
    Problem,
    full_estimate,
    oracle_cstar,
    oracle_enumerate,
    oracle_lstar,
)
from slbsearch.oracle import _adjacency


class TestFullEstimate:
    def test_reference_tables(self):
        full = full_estimate(make_reference_problem().graph)
        lowers = dict(enumerate(full.lowers.tolist()))
        uppers = dict(enumerate(full.uppers.tolist()))
        assert lowers == {E01: 4, E02: 3, E14: 4, E21: 3, E23: 7, E24: 4}
        assert uppers == {E01: 4, E02: 5, E14: 6, E21: 3, E23: 8, E24: 6}

    def test_counts_are_sequence_lengths(self):
        # full means every layer applied: a cache that applied them all
        # holds the sequence lengths and the same bounds
        graph = make_reference_problem().graph
        cache = EstimationCache(graph)
        for eid in range(6):
            while cache.has_remaining(eid):
                cache.apply_next(eid)
        assert cache.next_index[E01] == 1
        assert cache.next_index[E02] == 2
        full = full_estimate(graph)
        assert cache.tightest_lower.tolist() == full.lowers.tolist()
        assert cache.tightest_upper.tolist() == full.uppers.tolist()

    def test_empty_graph(self):
        full = full_estimate(EstimatedDigraph(1, []))
        assert len(full.lowers) == 0


class TestOracleLstar:
    def test_reference_value(self):
        assert oracle_lstar(make_reference_problem()) == 7.0

    def test_returns_a_python_float(self):
        problem = make_reference_problem()
        assert type(oracle_lstar(problem)) is type(oracle_cstar(problem)) is float
        assert type(oracle_enumerate(problem)) is float

    def test_single_goal_forces_worse_route(self):
        problem = make_reference_problem()
        assert oracle_lstar(Problem(problem.graph, 0, frozenset({3}))) == 10.0

    def test_unreachable(self):
        g = EstimatedDigraph(3, [edge(0, 1, [(1, 2, 1.0)])])
        assert oracle_lstar(Problem(g, 0, frozenset({2}))) == math.inf

    def test_start_is_goal(self):
        problem = make_reference_problem()
        assert oracle_lstar(Problem(problem.graph, 0, frozenset({0}))) == 0.0


class TestOracleCstar:
    def test_reference_value(self):
        assert oracle_cstar(make_reference_problem()) == 9.0

    def test_agrees_with_lstar_when_estimators_are_exact(self):
        g = EstimatedDigraph(
            3,
            [
                edge(0, 1, [(2, 2, 1.0)], 2),
                edge(1, 2, [(3, 3, 1.0)], 3),
                edge(0, 2, [(6, 6, 1.0)], 6),
            ],
        )
        problem = Problem(g, 0, frozenset({2}))
        assert oracle_cstar(problem) == oracle_lstar(problem) == 5.0

    def test_missing_true_cost_rejected(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(1, 2, 1.0)])])
        with pytest.raises(ValueError):
            oracle_cstar(Problem(g, 0, frozenset({1})))

    def test_lstar_never_exceeds_cstar(self):
        problem = make_reference_problem()
        assert oracle_lstar(problem) <= oracle_cstar(problem)


class TestOracleEnumerate:
    def test_agrees_with_dijkstra_on_reference(self):
        problem = make_reference_problem()
        assert oracle_enumerate(problem) == oracle_lstar(problem) == 7.0

    def test_ablated_graph(self):
        # removing e02 forces the route through e01
        graph = make_reference_problem().graph
        pruned = EstimatedDigraph(
            5, [e for i, e in enumerate(graph.edges) if i != E02]
        )
        problem = Problem(pruned, 0, frozenset({3, 4}))
        assert oracle_enumerate(problem) == 8.0
        assert oracle_lstar(problem) == 8.0

    def test_start_is_goal(self):
        problem = make_reference_problem()
        assert oracle_enumerate(Problem(problem.graph, 0, frozenset({0}))) == 0.0

    def test_unreachable(self):
        g = EstimatedDigraph(3, [edge(0, 1, [(1, 2, 1.0)])])
        assert oracle_enumerate(Problem(g, 0, frozenset({2}))) == math.inf

    def test_cycles_do_not_hang_enumeration(self):
        g = EstimatedDigraph(
            3,
            [
                edge(0, 1, [(1, 1, 1.0)], 1),
                edge(1, 0, [(1, 1, 1.0)], 1),
                edge(1, 2, [(4, 4, 1.0)], 4),
            ],
        )
        problem = Problem(g, 0, frozenset({2}))
        assert oracle_enumerate(problem) == 5.0


class TestAdjacency:
    def test_out_edges_in_edge_id_order(self):
        edges = [edge(2, 3, [(1, 1, 1)]), edge(0, 1, [(1, 1, 1)]), edge(2, 0, [(1, 1, 1)]),
                 edge(0, 2, [(1, 1, 1)])]
        first, order, heads = _adjacency(EstimatedDigraph(4, edges))
        assert (first.tolist(), order.tolist(), heads.tolist()) == (
            [0, 2, 2, 4, 4], [1, 3, 0, 2], [1, 2, 3, 0])
        assert type(first[1]) is int and type(heads[0]) is int

    def test_flat_in_vertex_count(self):
        n = 10**6
        graph = EstimatedDigraph(n, [edge(0, n - 1, [(1, 1, 1)])])
        tracemalloc.start()
        try:
            _adjacency(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 offset array and its bincount, not one list per vertex
        assert peak < 3 * 8 * n
