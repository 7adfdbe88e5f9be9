import math
import tracemalloc

import numpy as np
import pytest
from conftest import E02, E14, E21, edge, make_reference_graph

from slbsearch import (
    Edge,
    EstimatedDigraph,
    EstimatorSpec,
    Violation,
    Path,
    Problem,
    gen_grid_graph,
    synth_estimators,
    validate_graph,
)


# validate_graph as first written, one edge at a time, over a vertex count and
# Edges: the constructor must refuse exactly the draws it flags as endpoint or
# empty_sequence, and validate_graph must return its list for every other draw.
def reference_validate_graph(n, edges):
    out = []
    for idx, e in enumerate(edges):
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


BAD_NUMBERS = (-1.0, math.nan, math.inf, -math.inf, -0.0)
TRUE_COSTS = (None, math.nan, 0.0, 5.0, 6.0, 20.0)


def defective_graph(rng):
    """Vertex count and Edges of a random graph whose edges each carry, by
    chance, none, one or several of the defects the constructor and
    validate_graph look for."""
    n = int(rng.integers(1, 6))
    edges = []
    for _ in range(int(rng.integers(0, 12))):
        k = int(rng.integers(0 if rng.random() < 0.1 else 1, 5))
        lowers = sorted(float(rng.integers(0, 6)) for _ in range(k))
        uppers = sorted((float(rng.integers(6, 12)) for _ in range(k)), reverse=True)
        layers = [[lo, up, float(10**i)] for i, (lo, up) in enumerate(zip(lowers, uppers))]
        for layer in layers:
            roll = rng.random()
            if roll < 0.05:
                layer[0], layer[1] = layer[1], layer[0]  # swapped bounds
            elif roll < 0.15:
                layer[int(rng.integers(0, 3))] = BAD_NUMBERS[int(rng.integers(0, 5))]
        if k >= 2 and rng.random() < 0.2:
            i = int(rng.integers(1, k))
            layers[i][2] = layers[i - 1][2] * (1.0, 0.5)[int(rng.integers(0, 2))]  # equal, falling
        if k >= 2 and rng.random() < 0.2:
            layers.reverse()  # no longer nested
        lo, hi = (-1, n + 2) if rng.random() < 0.1 else (0, n)  # out-of-range endpoints
        tail, head = (int(v) for v in rng.integers(lo, hi, size=2))
        specs = tuple(EstimatorSpec(*layer) for layer in layers)
        edges.append(Edge(tail, head, specs, TRUE_COSTS[int(rng.integers(0, 6))]))
    return n, edges


def structure_error(n, violations):
    """The message the constructor raises for the reference's violations:
    the first stray endpoint, else the first empty sequence, else None."""
    for kind, what in (("endpoint", f"endpoint out of range for {n} vertices"),
                       ("empty_sequence", "empty estimator sequence")):
        for v in violations:
            if v.kind == kind:
                return f"edge {v.edge}: {what}"
    return None


class TestValidateGraph:
    def test_matches_the_per_edge_loop(self):
        rng = np.random.default_rng(20261018)
        kinds = set()
        refused = 0
        for _ in range(600):
            n, edges = defective_graph(rng)
            expected = reference_validate_graph(n, edges)
            kinds.update(v.kind for v in expected)
            message = structure_error(n, expected)
            if message is not None:
                with pytest.raises(ValueError) as info:
                    EstimatedDigraph(n, edges)
                assert str(info.value) == message
                refused += 1
                continue
            got = validate_graph(EstimatedDigraph(n, edges))
            assert got == expected
            # np.int64 would compare equal but not serialize as a plain int
            assert all(type(v.edge) is int for v in got)
        assert 0 < refused < 600
        assert kinds == {
            "endpoint", "empty_sequence", "bounds", "time_cost", "nesting", "time_order",
            "true_cost",
        }

    def test_synth_grid_is_clean(self):
        g = synth_estimators(gen_grid_graph(30, 30, (1, 9), 4), 2).graph
        assert validate_graph(g) == reference_validate_graph(g.vertex_count, g.edges) == []

    def test_reference_graph_is_clean(self):
        assert validate_graph(make_reference_graph()) == []

    def test_nested_two_layer_sequence_is_clean(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(2, 6, 1.0), (3, 5, 2.0)])])
        assert validate_graph(g) == []

    def test_reversed_nesting_is_one_violation(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(3, 5, 1.0), (2, 6, 2.0)])])
        report = validate_graph(g)
        assert len(report) == 1
        assert report[0].kind == "nesting"
        assert report[0].edge == 0

    def test_negative_lower_bound(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(-1, 5, 1.0)])])
        assert any(v.kind == "bounds" for v in validate_graph(g))

    def test_lower_above_upper(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(6, 5, 1.0)])])
        assert any(v.kind == "bounds" for v in validate_graph(g))

    def test_infinite_upper_bound(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(1, math.inf, 1.0)])])
        assert any(v.kind == "bounds" for v in validate_graph(g))

    def test_non_increasing_time_cost(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(2, 6, 2.0), (3, 5, 2.0)])])
        assert any(v.kind == "time_order" for v in validate_graph(g))

    def test_true_cost_outside_interval(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(2, 6, 1.0), (3, 5, 2.0)], 6)])
        report = validate_graph(g)
        assert [v.kind for v in report] == ["true_cost"]

    def test_path_sum_overflow(self):
        # each bound is a valid float; their sum along 0 -> 1 -> 2 is inf
        big = [(1e308, 1e308, 1.0)]
        g = EstimatedDigraph(4, [edge(2, 3, [(1, 1, 1.0)]), edge(0, 1, big), edge(1, 2, big)])
        detail = "final lower bounds of edges 0 to 2 sum past the largest float"
        assert validate_graph(g) == [Violation(2, "overflow", detail)]
        # an infinite bound is reported as bounds alone, not as an overflow too
        g = EstimatedDigraph(2, [edge(0, 1, big), edge(0, 1, [(1, math.inf, 1.0)])])
        assert [v.kind for v in validate_graph(g)] == ["bounds"]

    def test_all_defects_reported_not_just_first(self):
        g = EstimatedDigraph(
            2,
            [
                edge(0, 1, [(3, 5, 1.0), (2, 6, 2.0)]),
                edge(0, 1, [(-1, 5, 1.0)]),
            ],
        )
        kinds = {v.kind for v in validate_graph(g)}
        assert {"nesting", "bounds"} <= kinds


class TestProblem:
    def test_start_out_of_range(self):
        g = make_reference_graph()
        with pytest.raises(ValueError):
            Problem(g, 9, frozenset({3}))

    def test_empty_goal_set(self):
        g = make_reference_graph()
        with pytest.raises(ValueError):
            Problem(g, 0, frozenset())

    def test_goal_out_of_range(self):
        g = make_reference_graph()
        with pytest.raises(ValueError):
            Problem(g, 0, frozenset({7}))


class TestStorage:
    @staticmethod
    def refused_both_ways(n, edges, message):
        """Both constructors, from Edges and from their columns, raise message."""
        specs = [s for e in edges for s in e.estimators]
        ones = np.ones(len(edges))
        columns = (
            [e.tail for e in edges], [e.head for e in edges],
            np.cumsum([0] + [len(e.estimators) for e in edges]),
            [s.lower for s in specs], [s.upper for s in specs], [s.time_cost for s in specs],
            ones, ones.astype(bool),
        )
        for build, args in ((EstimatedDigraph, (n, edges)),
                            (EstimatedDigraph.from_arrays, (n, *columns))):
            with pytest.raises(ValueError) as info:
                build(*args)
            assert str(info.value) == message

    def test_empty_sequence(self):
        edges = [edge(0, 1, [(1, 2, 1.0)]), edge(0, 1, [])]
        self.refused_both_ways(2, edges, "edge 1: empty estimator sequence")

    def test_endpoint_out_of_range(self):
        # a stray endpoint is named before an earlier edge's empty sequence
        edges = [edge(0, 1, []), edge(0, 5, [(1, 2, 1.0)]), edge(-1, 1, [(1, 2, 1.0)])]
        self.refused_both_ways(2, edges, "edge 1: endpoint out of range for 2 vertices")
        edges = [edge(-1, 1, [(1, 2, 1.0)])]
        self.refused_both_ways(2, edges, "edge 0: endpoint out of range for 2 vertices")

    @staticmethod
    def from_columns(est_offsets, layers=3, **columns):
        """from_arrays over 3 vertices and 2 edges, with columns replaced."""
        args = dict(
            vertex_count=3, tail=[0, 1], head=[1, 2], est_offsets=est_offsets,
            est_lower=np.ones(layers), est_upper=np.ones(layers), est_time=np.ones(layers),
            true_cost=np.zeros(2), true_known=np.zeros(2, bool),
        )
        return EstimatedDigraph.from_arrays(**{**args, **columns})

    @pytest.mark.parametrize("offsets,layers,message", [
        ([0, 2, 1], 3, "est_offsets must be 3 entries from 0 to 3"),  # ends short
        ([1, 2, 3], 3, "est_offsets must be 3 entries from 0 to 3"),  # layer 0 unowned
        ([0, 1, 5], 3, "est_offsets must be 3 entries from 0 to 3"),  # past the layers
        ([0, 1, 2, 3], 3, "est_offsets must be 3 entries from 0 to 3"),  # a third edge
        ([], 0, "est_offsets must be 3 entries from 0 to 0"),
        ([0, 2, 1], 1, "edge 1: est_offsets decrease"),
        ([0, 0, 0], 0, "edge 0: empty estimator sequence"),
    ])
    def test_broken_layer_layout(self, offsets, layers, message):
        with pytest.raises(ValueError) as info:
            self.from_columns(offsets, layers)
        assert str(info.value) == message

    @pytest.mark.parametrize("column", ["head", "true_cost", "true_known"])
    def test_edge_column_of_the_wrong_length(self, column):
        with pytest.raises(ValueError) as info:
            self.from_columns([0, 1, 3], **{column: [0]})
        assert str(info.value) == f"{column} must have one entry per edge (2)"

    @pytest.mark.parametrize("column", ["est_lower", "est_upper", "est_time"])
    def test_layer_columns_of_different_lengths(self, column):
        with pytest.raises(ValueError) as info:
            self.from_columns([0, 1, 3], **{column: np.ones(2)})
        assert str(info.value) == "est_lower, est_upper and est_time differ in length"

    def test_edges_round_trip_through_the_arrays(self):
        edges = list(make_reference_graph().edges)
        again = EstimatedDigraph(5, edges)
        assert list(again.edges) == edges
        assert again.est_offsets.tolist() == [0, 1, 3, 5, 7, 9, 10]
        assert again.true_cost.tolist() == [4.0, 4.0, 5.0, 3.0, 7.0, 6.0]

    def test_edge_view_indexing(self):
        g = make_reference_graph()
        assert len(g.edges) == 6
        assert g.edges[-1] == g.edges[5] == edge(2, 4, [(4, 6, 1.0)], 6)
        with pytest.raises(IndexError):
            g.edges[6]

    def test_unknown_true_cost_is_not_nan(self):
        g = EstimatedDigraph(2, [edge(0, 1, [(1, 2, 1.0)]), edge(0, 1, [(1, 2, 1.0)], math.nan)])
        assert g.true_known.tolist() == [False, True]
        assert g.edges[0].true_cost is None
        assert math.isnan(g.edges[1].true_cost)

    def test_edge_count_allocates_nothing(self):
        graph = synth_estimators(gen_grid_graph(150, 150, (1, 9), 1), 0).graph
        tracemalloc.start()
        try:
            count = len(graph.edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2 * 150 * 149
        assert peak < 1024

    def test_predecessor_index_lists_edges_into_each_vertex(self):
        # the tie check reads every edge into a vertex from this index, so
        # it must list exactly those, by tail and then edge
        rng = np.random.default_rng(20261018)
        graphs = [EstimatedDigraph(1, [])]
        for _ in range(50):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(0, 3 * n))
            # few heads, so parallel edges, self-loops and isolated vertices
            tail = rng.integers(0, n, m)
            head = rng.integers(0, max(1, n // 2), m)
            ones = np.ones(m)
            graphs.append(EstimatedDigraph.from_arrays(
                n, tail, head, np.arange(m + 1), ones, ones, ones, ones, np.ones(m, bool)))
        kinds = {"parallel": 0, "self-loop": 0, "isolated": 0}
        for graph in graphs:
            arr = graph.arrays()
            tail, head = graph.tail.tolist(), graph.head.tolist()
            assert arr.pred_indptr.dtype == arr.pred_edge.dtype == np.int64
            assert len(arr.pred_indptr) == graph.vertex_count + 1
            for v in range(graph.vertex_count):
                into = arr.pred_edge[arr.pred_indptr[v]:arr.pred_indptr[v + 1]].tolist()
                expected = sorted((tail[e], e) for e in range(len(tail)) if head[e] == v)
                assert [(tail[e], e) for e in into] == expected
                kinds["isolated"] += not into and v not in tail
            pairs = list(zip(tail, head))
            kinds["parallel"] += len(set(pairs)) < len(pairs)
            kinds["self-loop"] += any(u == h for u, h in pairs)
        assert min(kinds.values()) > 0, kinds


class TestPath:
    def test_vertices_of_empty_path(self):
        assert Path((), 2).vertices(make_reference_graph()) == (2,)

    def test_vertices_follow_edges(self):
        g = make_reference_graph()
        assert Path((E02, E21, E14), 4).vertices(g) == (0, 2, 1, 4)
