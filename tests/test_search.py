import math

import pytest
from conftest import (
    E01,
    E02,
    E14,
    E21,
    E23,
    E24,
    charged_layers,
    edge,
    lazy_edge,
    make_closed_tie_problem,
    make_frontier_tie_problem,
    make_goal_tie_problem,
    make_reference_problem,
)

from slbsearch import (
    EstimatedDigraph,
    EstimationCache,
    Path,
    Problem,
    a_beauty,
    beauty,
    beauty_ps,
    ei_ucs,
    gen_grid_graph,
    oracle_lstar,
    synth_estimators,
    validate_graph,
)
from slbsearch.search import _Pass


class TestBeautyGolden:
    """The reference instance, traced by hand."""

    def test_unbounded_run(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache)
        assert res.path == Path((E02, E24), 4)
        assert res.opt is True
        assert (res.l_under, res.l_over) == (7.0, 7.0)
        assert res.pops == ((0, 0.0), (2, 3.0), (1, 4.0), (4, 7.0))

    def test_unbounded_run_invokes_nine(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        beauty(problem, cache)
        invoked = {
            (eid, layer)
            for eid in range(6)
            for layer in charged_layers(cache, eid)
        }
        assert invoked == {
            (E01, 1),
            (E02, 1), (E02, 2),
            (E14, 1), (E14, 2),
            (E21, 1),
            (E23, 1), (E23, 2),
            (E24, 1),
        }

    def test_thresholded_first_pass(self):
        # with no lower-bound floor established, estimation breaks at the
        # first layer everywhere and the cheap-looking path wins the pop
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache, l_est=0.0)
        assert res.path == Path((E01, E14), 4)
        assert res.opt is False
        assert (res.l_under, res.l_over) == (5.0, 8.0)
        assert res.pops == ((0, 0.0), (2, 2.0), (1, 4.0), (4, 5.0))

    def test_thresholded_second_pass_reuses_cache(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        beauty(problem, cache, l_est=0.0)
        before = cache.invocation_count()
        res = beauty(problem, cache, l_est=5.0, l_prune=8.0)
        assert res.path == Path((E02, E24), 4)
        assert res.opt is True
        assert (res.l_under, res.l_over) == (7.0, 7.0)
        # exactly one genuinely new invocation: e02's refinement
        assert cache.invocation_count() == before + 1
        assert charged_layers(cache, E02) == (1, 2)
        assert charged_layers(cache, E23) == (1,)

    def test_metrics_counts(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache)
        # non-goal pops: v0, v2, v1
        assert res.metrics.expansions == 3
        # successor edges examined: e01, e02 from v0; e21, e23, e24 from
        # v2; e14 from v1
        assert res.metrics.evaluations == 6
        assert res.metrics.prunings == 0


def _charged_once(cache, result):
    assert result.metrics.invocations == cache.invocation_count()
    for eid in range(len(cache.graph.edges)):
        assert len(charged_layers(cache, eid)) <= cache.sequence_length(eid)


class TestTieCertification:
    """A goal popped at the optimum is certified in the pass that pops it."""

    def test_another_goal_tied_at_k(self):
        problem = make_goal_tie_problem()
        assert validate_graph(problem.graph) == []
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache, l_est=1.0)
        # goal 4 pops first at 4 and rises to 6; draining the tie pops goal 5
        assert res.pops == ((0, 0.0), (4, 4.0), (5, 4.0))
        assert res.path == Path((2,), 5)
        assert res.opt is True
        assert res.l_under == res.l_over == oracle_lstar(problem) == 4.0
        _charged_once(cache, res)

    def test_unexpanded_vertex_tied_at_k(self):
        problem = make_frontier_tie_problem()
        assert validate_graph(problem.graph) == []
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache, l_est=1.0)
        # the drain expands vertex 2 (a second expansion); its edge to the
        # goal is only tied, never estimated, until the certification step
        # charges its single estimator
        assert res.pops == ((0, 0.0), (4, 4.0), (2, 4.0))
        assert res.metrics.expansions == 2
        assert res.path == Path((2, 3), 4)
        assert res.opt is True
        assert res.l_under == res.l_over == oracle_lstar(problem) == 4.0
        assert charged_layers(cache, 3) == (1,)
        _charged_once(cache, res)

    def test_tie_at_closed_interior_vertex(self):
        problem = make_closed_tie_problem()
        assert validate_graph(problem.graph) == []
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache, l_est=1.0)
        assert res.pops == ((0, 0.0), (1, 2.0), (2, 2.0), (3, 3.0), (4, 4.0))
        # vertex 3 was recorded through 1, whose edge rose to 4; the
        # certified route takes the other tied parent, 2
        assert res.path == Path((2, 4, 5), 4)
        assert res.opt is True
        assert res.l_under == res.l_over == oracle_lstar(problem) == 4.0
        assert charged_layers(cache, 1) == (1, 2)
        _charged_once(cache, res)

    def test_rising_route_dropped_and_next_route_tried(self):
        # edges 0-1, 0-2 and 0-3 all enter a vertex at 1, and 1-4, 2-4 and
        # 3-4 all reach goal 4 at 2. The popped path (through 1) rises; the
        # backward route search tries 3 before 2, and edge 2 (0-3) rises
        # under its final estimator, so the route through 2 is certified
        g = EstimatedDigraph(
            5,
            [
                lazy_edge(0, 1, 1, 3),
                lazy_edge(0, 2, 1),
                lazy_edge(0, 3, 1, 2),
                lazy_edge(1, 4, 1),
                lazy_edge(2, 4, 1),
                lazy_edge(3, 4, 1),
            ],
        )
        problem = Problem(g, 0, frozenset({4}))
        cache = EstimationCache(g)
        res = beauty(problem, cache, l_est=0.0)
        assert res.path == Path((1, 4), 4)
        assert res.opt is True
        assert res.l_under == res.l_over == oracle_lstar(problem) == 2.0
        assert charged_layers(cache, 0) == (1, 2)
        assert charged_layers(cache, 2) == (1, 2)
        _charged_once(cache, res)

    def test_no_tied_route_keeps_bracket_and_charges(self):
        # pass 1 of the reference anytime run: pops goal 4 at 5, rises to
        # 8, and L* = 7, so no route is tight at 5. The tie check must
        # return the popped bracket and charge nothing beyond post-search.
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache, l_est=0.0)
        assert res.path == Path((E01, E14), 4)
        assert res.opt is False
        assert (res.l_under, res.l_over) == (5.0, 8.0)
        assert res.pops == ((0, 0.0), (2, 2.0), (1, 4.0), (4, 5.0))
        assert res.metrics.layer_invocations == (6, 1)
        assert res.metrics.expansions == 3
        assert charged_layers(cache, E14) == (1, 2)
        for eid in (E01, E02, E21, E23, E24):
            assert charged_layers(cache, eid) == (1,)
        _charged_once(cache, res)


class TestEiUcs:
    def test_same_answer_and_pops_as_unbounded(self):
        problem = make_reference_problem()
        lazy = beauty(problem, EstimationCache(problem.graph))
        eager = ei_ucs(problem, EstimationCache(problem.graph))
        assert eager.path == lazy.path
        assert eager.pops == lazy.pops
        assert (eager.l_under, eager.l_over) == (7.0, 7.0)
        assert eager.opt is True

    def test_invokes_every_touched_estimator(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        ei_ucs(problem, cache)
        assert cache.invocation_count() == 10

    def test_certified_even_on_ties(self):
        res = ei_ucs(make_reference_problem())
        assert res.opt and res.l_under == res.l_over


class TestBeautyPs:
    def test_tightening_changes_nothing_when_fully_estimated(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        cache.apply_final(E02)
        cache.apply_final(E24)
        opt, l_under, l_over = beauty_ps(Path((E02, E24), 4), 7.0, cache)
        assert (opt, l_under, l_over) == (True, 7.0, 7.0)

    def test_tightening_raises_the_bound(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        cache.apply_next(E01)
        cache.apply_next(E14)
        opt, l_under, l_over = beauty_ps(Path((E01, E14), 4), 5.0, cache)
        assert (opt, l_under, l_over) == (False, 5.0, 8.0)
        assert charged_layers(cache, E14) == (1, 2)

    def test_partially_estimated_path_certifies_if_unchanged(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        cache.apply_next(E01)  # single estimator, already final
        opt, l_under, l_over = beauty_ps(Path((E01,), 1), 4.0, cache)
        assert (opt, l_under, l_over) == (True, 4.0, 4.0)

    def test_unestimated_path_edge_rejected(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        cache.apply_next(E02)
        with pytest.raises(ValueError):
            beauty_ps(Path((E02, E24), 4), 3.0, cache)
        assert cache.next_index[E02] == 1  # rejected before any edge is jumped


class TestFloatSums:
    """l_over is the path's bounds summed from the start, ((0.0 + b1) + b2)
    + ..., as the kernel's g and oracle_lstar sum them."""

    def test_decimal_rise_keeps_the_bracket(self):
        # 0.7999999999999999 + (0.3 - 0.1) would give 0.9999999999999999 < L*
        edges = [
            edge(0, 1, [(0.0, 1.0, 1.0), (0.7, 0.7, 10.0)]),
            edge(1, 2, [(0.1, 1.0, 1.0), (0.3, 0.3, 10.0)]),
        ]
        problem = Problem(EstimatedDigraph(3, edges), 0, frozenset({2}))
        res = beauty(problem, l_est=0.0)
        assert (res.opt, res.l_under) == (False, 0.7999999999999999)
        assert res.l_over == 1.0 == oracle_lstar(problem)

    def test_chain_bound_is_the_fold_from_the_start(self):
        # popped at 0.05 + 0.1 + 0.1; adding the rises to that gives 0.6
        finals = (0.1, 0.2, 0.3)
        edges = [
            edge(v, v + 1, [(first, 1.0, 1.0), (final, 1.0, 10.0)])
            for v, (first, final) in enumerate(zip((0.05, 0.1, 0.1), finals))
        ]
        problem = Problem(EstimatedDigraph(4, edges), 0, frozenset({3}))
        res = beauty(problem, l_est=0.0)
        assert res.l_over == ((0.0 + 0.1) + 0.2) + 0.3 == 0.6000000000000001
        assert res.l_over == oracle_lstar(problem)

    def test_rise_absorbed_on_a_tie_route_is_certified(self):
        # goal 2 pops at k = 1e16 over edge 1, which rises by 4; the tie route
        # 0-1-3 has g[1] = 1e16, so its last edge's rise 0.5 -> 0.9 rounds
        # away and the route's bound stays k, which is L*
        big = 1e16
        edges = [
            edge(0, 1, [(big, big, 1.0)]),
            edge(0, 2, [(big, big + 8, 1.0), (big + 4, big + 4, 10.0)]),
            edge(1, 3, [(0.5, 1.0, 1.0), (0.9, 0.9, 10.0)]),
        ]
        problem = Problem(EstimatedDigraph(4, edges), 0, frozenset({2, 3}))
        cache = EstimationCache(problem.graph)
        res = beauty(problem, cache, l_est=0.0)
        assert res.path == Path((0, 2), 3)
        assert res.opt and res.l_under == res.l_over == big == oracle_lstar(problem)
        assert charged_layers(cache, 1) == charged_layers(cache, 2) == (1, 2)


class TestSearchTree:
    """The parent-edge tree a pass records, walked by _Pass.trace."""

    def tree(self):
        problem = make_reference_problem()
        return _Pass(problem, EstimationCache(problem.graph), math.inf, math.inf, False)

    def test_traces_back_through_parents(self):
        run = self.tree()
        run.parent_edge[2] = E02
        run.parent_edge[4] = E24
        assert run.trace(4) == Path((E02, E24), 4)

    def test_start_traces_to_empty_path(self):
        assert self.tree().trace(0) == Path((), 0)

    def test_unreached_vertex_rejected(self):
        with pytest.raises(ValueError):
            self.tree().trace(2)


class TestEdgeCases:
    def test_unreachable_goal(self):
        g = EstimatedDigraph(3, [edge(0, 1, [(1, 2, 1.0)])])
        problem = Problem(g, 0, frozenset({2}))
        res = beauty(problem)
        assert res.path is None
        assert not res.found
        assert (res.l_under, res.l_over) == (math.inf, math.inf)

    def test_unreachable_goal_eager(self):
        g = EstimatedDigraph(3, [edge(0, 1, [(1, 2, 1.0)])])
        problem = Problem(g, 0, frozenset({2}))
        res = ei_ucs(problem)
        assert res.path is None

    def test_start_is_goal(self):
        problem = make_reference_problem()
        at_start = Problem(problem.graph, 0, frozenset({0, 4}))
        res = beauty(at_start)
        assert res.path == Path((), 0)
        assert res.found
        assert (res.l_under, res.l_over) == (0.0, 0.0)
        assert res.opt is True
        assert res.metrics.invocations == 0

    @pytest.mark.parametrize("threshold", ["l_est", "l_prune"])
    def test_nan_threshold_rejected(self, threshold):
        # every comparison with NaN is false: l_prune=nan would prune every
        # successor and report no path, l_est=nan would ignore the cutoff
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        with pytest.raises(ValueError, match="NaN"):
            beauty(problem, cache, **{threshold: math.nan})
        assert cache.snapshot_metrics().expansions == 0

    @pytest.mark.parametrize(
        "bad,named",
        [(edge(0, 5, [(1, 1, 1.0)]), "edge 0: endpoint out of range for 2 vertices"),
         (edge(0, 1, []), "edge 0: empty estimator sequence")],
        ids=["stray-endpoint", "no-estimators"],
    )
    def test_unvalidated_graph_rejected(self, bad, named):
        # a graph built by hand is checked by its constructor, before any search
        with pytest.raises(ValueError, match=named):
            beauty(Problem(EstimatedDigraph(2, [bad]), 0, frozenset({1})))

    def test_self_loops_and_parallel_edges(self):
        g = EstimatedDigraph(
            2,
            [
                edge(0, 0, [(1, 1, 1.0)], 1),
                edge(0, 1, [(5, 9, 1.0), (7, 7, 2.0)], 7),
                edge(0, 1, [(3, 3, 1.0)], 3),
            ],
        )
        problem = Problem(g, 0, frozenset({1}))
        res = beauty(problem)
        assert res.path == Path((2,), 1)
        assert (res.l_under, res.l_over) == (3.0, 3.0)

    def test_zero_cost_cycle_terminates(self):
        g = EstimatedDigraph(
            3,
            [
                edge(0, 1, [(0, 0, 1.0)], 0),
                edge(1, 0, [(0, 0, 1.0)], 0),
                edge(1, 2, [(2, 2, 1.0)], 2),
            ],
        )
        problem = Problem(g, 0, frozenset({2}))
        res = beauty(problem)
        assert res.found and res.l_over == 2.0

    def test_negative_input_bounds_clamped_by_vacuous_prior(self):
        # invalid per validate_graph, but the bound fold never drops below
        # the fresh-state floor of zero, so the search still terminates
        # with monotone keys instead of looping or corrupting state
        g = EstimatedDigraph(
            5,
            [
                edge(0, 1, [(10, 10, 1.0)]),
                edge(0, 3, [(2, 2, 1.0)]),
                edge(3, 1, [(-9, -9, 1.0)]),
                edge(1, 3, [(1, 1, 1.0)]),
            ],
        )
        problem = Problem(g, 0, frozenset({4}))
        assert beauty(problem).path is None
        assert ei_ucs(problem).path is None


class TestForeignCache:
    """A cache holds per-edge state of one graph; another graph must not read it."""

    @pytest.mark.parametrize("solve", [beauty, ei_ucs, a_beauty])
    def test_cache_built_for_another_graph_rejected(self, solve):
        first = synth_estimators(gen_grid_graph(10, 10, (1, 9), 1), 0)
        second = synth_estimators(gen_grid_graph(10, 10, (1, 9), 2), 0)
        cache = EstimationCache(first.graph)
        assert ei_ucs(first, cache).opt
        with pytest.raises(ValueError, match="another graph"):
            solve(second, cache=cache)
        # a fresh cache gives the certified answer the foreign one would not
        assert a_beauty(second).l_star == oracle_lstar(second) == 287.0
