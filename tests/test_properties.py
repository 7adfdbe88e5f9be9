"""Invariant checks on randomized inputs.

Four layers: hypothesis-driven properties of the estimation primitives,
seeded sweeps over random problems (cycles allowed) checking the search
algorithms against the brute-force oracles, a hypothesis search over
graphs whose bounds are decimal or near 2^53, so that their sums round,
and one over unvalidated graphs whose bounds no valid estimator yields.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import charged_layers, lazy_edge, random_problem

from slbsearch import (
    Edge,
    EstimatedDigraph,
    EstimationCache,
    EstimatorSpec,
    Problem,
    a_beauty,
    beauty,
    ei_ucs,
    oracle_cstar,
    oracle_enumerate,
    oracle_lstar,
)
from slbsearch import anytime

INF = math.inf


@st.composite
def estimator_edges(draw):
    """One edge whose sequence is nested and time-ordered by construction."""
    k = draw(st.integers(1, 4))
    lowers = sorted(draw(st.lists(st.integers(0, 50), min_size=k, max_size=k)))
    uppers = sorted(
        draw(st.lists(st.integers(50, 120), min_size=k, max_size=k)), reverse=True
    )
    cost = draw(st.integers(lowers[-1], uppers[-1]))
    specs = tuple(
        EstimatorSpec(float(lo), float(up), float(2**i))
        for i, (lo, up) in enumerate(zip(lowers, uppers))
    )
    return Edge(0, 1, specs, float(cost)), float(cost)


class TestEstimationProperties:
    @given(estimator_edges())
    @settings(max_examples=80, deadline=None)
    def test_prefixes_tighten_monotonically_around_true_cost(self, case):
        e, cost = case
        cache = EstimationCache(EstimatedDigraph(2, [e]))
        prev_low, prev_up = 0.0, INF
        charged = 0.0
        for j in range(1, len(e.estimators) + 1):
            low, layer = cache.apply_next(0)
            assert layer == j
            lower, upper = cache.tightest_lower[0], cache.tightest_upper[0]
            assert cache.next_index[0] == j
            assert low == lower
            # intervals only shrink, and never exclude the true cost
            assert prev_low <= lower <= cost
            assert cost <= upper <= prev_up
            prev_low, prev_up = lower, upper
            charged += e.estimators[j - 1].time_cost
            assert cache.snapshot_metrics().estimation_time == charged
            assert charged_layers(cache, 0) == tuple(range(1, j + 1))
        assert not cache.has_remaining(0)
        assert (cache.tightest_lower[0], cache.tightest_upper[0]) == (prev_low, prev_up)
        assert cache.invocation_count() == len(e.estimators)

    @given(estimator_edges())
    @settings(max_examples=80, deadline=None)
    def test_final_jump_matches_full_application_bounds(self, case):
        e, _ = case
        graph = EstimatedDigraph(2, [e])
        stepped = EstimationCache(graph)
        while stepped.has_remaining(0):
            stepped.apply_next(0)
        jumped = EstimationCache(graph)
        jumped.apply_final(0)
        assert jumped.tightest_lower[0] == stepped.tightest_lower[0]
        assert jumped.tightest_upper[0] == stepped.tightest_upper[0]
        # the jump charges only the final layer
        assert jumped.snapshot_metrics().invocations == 1
        assert (
            jumped.snapshot_metrics().estimation_time == e.estimators[-1].time_cost
        )


def exact_variant(problem):
    """Same topology, single exact estimator per edge."""
    edges = [
        Edge(e.tail, e.head, (EstimatorSpec(e.true_cost, e.true_cost, 1.0),), e.true_cost)
        for e in problem.graph.edges
    ]
    return Problem(
        EstimatedDigraph(problem.graph.vertex_count, edges), problem.start, problem.goals
    )


class TestSearchAgainstOracles:
    def test_full_estimation_search_matches_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            problem = random_problem(rng)
            lstar = oracle_lstar(problem)
            res = beauty(problem, EstimationCache(problem.graph))
            if math.isinf(lstar):
                assert not res.found
                assert res.l_under == INF
            else:
                assert res.found and res.opt
                assert res.l_under == lstar == res.l_over
                assert res.metrics.prunings == 0

    def test_small_instances_cross_checked_by_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            problem = random_problem(rng, max_n=6)
            assert oracle_lstar(problem) == oracle_enumerate(problem)

    def test_exact_single_estimator_graphs_reduce_to_shortest_path(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            problem = exact_variant(random_problem(rng))
            cstar = oracle_cstar(problem)
            assert oracle_lstar(problem) == cstar
            res = beauty(problem, EstimationCache(problem.graph))
            if math.isinf(cstar):
                assert not res.found
            else:
                assert res.opt and res.l_under == cstar == res.l_over

    def test_eager_baseline_pops_and_expansions_match_lazy(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            problem = random_problem(rng)
            lazy_cache = EstimationCache(problem.graph)
            eager_cache = EstimationCache(problem.graph)
            lazy = beauty(problem, lazy_cache)
            eager = ei_ucs(problem, eager_cache)
            assert lazy.pops == eager.pops
            assert lazy.metrics.expansions == eager.metrics.expansions
            assert lazy.metrics.evaluations == eager.metrics.evaluations
            assert (lazy.l_under, lazy.l_over) == (eager.l_under, eager.l_over)
            # lazy invokes a subset of the estimators, layer by layer
            lw = lazy.metrics.layer_invocations
            ew = eager.metrics.layer_invocations
            assert all(a <= b for a, b in zip(lw, ew))
            assert np.all(lazy_cache.invoked <= eager_cache.invoked)

    def test_thresholded_runs_bracket_the_optimum(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 300:
            problem = random_problem(rng)
            lstar = oracle_lstar(problem)
            if math.isinf(lstar):
                res = beauty(problem, EstimationCache(problem.graph))
                assert not res.found
                continue
            l_est = float(rng.integers(0, int(2 * lstar) + 2))
            l_prune = lstar + float(rng.integers(0, 10))
            if rng.random() < 0.2:
                l_prune = INF
            res = beauty(
                problem, EstimationCache(problem.graph), l_est=l_est, l_prune=l_prune
            )
            assert res.found
            assert res.l_under <= lstar <= res.l_over
            # a goal popped at the optimum is certified in the same pass
            assert res.opt or res.l_under < lstar
            if l_est < lstar:
                assert res.l_under > l_est
            else:
                assert res.opt
                assert res.l_under == lstar == res.l_over
            checked += 1


def reaches_a_goal_only_at_its_end(problem, path):
    *before, last = path.vertices(problem.graph)
    return last in problem.goals and problem.goals.isdisjoint(before)


class TestReturnedPaths:
    def test_paths_reach_a_goal_only_at_their_end(self):
        # the tie check follows tight edges from any vertex with g <= k; the
        # goals at k seed its seen set, which keeps them off a route's
        # interior, and no goal has g < k
        rng = np.random.default_rng(163)
        for _ in range(300):
            problem = random_problem(rng)
            l_est = float(rng.integers(0, 30))
            l_prune = INF if rng.random() < 0.3 else l_est + float(rng.integers(0, 30))
            paths = [
                beauty(problem).path,
                beauty(problem, l_est=l_est, l_prune=l_prune).path,
                ei_ucs(problem).path,
            ]
            out = a_beauty(problem, max_iterations=8)
            paths += [out.path] + [r.path for r in out.log]
            for path in paths:
                assert path is None or reaches_a_goal_only_at_its_end(problem, path)

    def test_tie_route_does_not_pass_through_a_tied_goal(self):
        # goals 1 and 2 both pop at k = 1 over edges that rise; the route
        # 0-3-1 certifies goal 1 at k, and the zero-bound edge 1 -> 2 is
        # tight, but 0-3-1-2 would reach goal 2 through goal 1
        edges = [
            lazy_edge(0, 1, 1, 5),
            lazy_edge(0, 2, 1, 5),
            lazy_edge(0, 3, 1),
            lazy_edge(3, 1, 0),
            lazy_edge(1, 2, 0),
        ]
        problem = Problem(EstimatedDigraph(4, edges), 0, frozenset({1, 2}))
        res = beauty(problem, l_est=0.5)
        assert res.opt and res.l_over == 1.0
        assert res.path.vertices(problem.graph) == (0, 3, 1)
        assert a_beauty(problem).path == res.path


class TestAnytimeProperties:
    def test_anytime_certifies_the_oracle_value(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            problem = random_problem(rng)
            lstar = oracle_lstar(problem)
            out = a_beauty(problem, max_iterations=8)
            if math.isinf(lstar):
                assert not out.found and out.l_star == INF
                assert out.iterations == 1
            else:
                assert out.found
                assert out.l_star == lstar
                final = out.log[-1]
                assert final.l_under == final.l_over == lstar

    def test_brackets_narrow_and_never_leak_work(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            problem = random_problem(rng)
            cache = EstimationCache(problem.graph)
            out = a_beauty(problem, max_iterations=6, cache=cache)
            if not out.found:
                continue
            lstar = out.l_star
            overs = [r.l_over for r in out.log]
            unders = [r.l_under for r in out.log]
            assert all(a >= b for a, b in zip(overs, overs[1:])), "l_over must not rise"
            assert all(a < b for a, b in zip(unders, unders[1:])), "l_under must rise"
            assert all(lo <= lstar <= up for lo, up in zip(unders, overs))
            # per-pass deltas sum to the cache totals: nothing charged twice
            total = sum(r.metrics_delta.invocations for r in out.log)
            assert total == cache.invocation_count()
            assert np.all(cache.next_index <= np.diff(cache.graph.est_offsets))

    def test_two_pass_budget_still_certifies(self):
        rng = np.random.default_rng(113)
        for _ in range(150):
            problem = random_problem(rng)
            out = a_beauty(problem, max_iterations=2)
            assert out.iterations <= 2
            if out.found:
                assert out.l_star == oracle_lstar(problem)

    def test_epsilon_zero_matches_exhaustive_run(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            problem = random_problem(rng)
            plain = a_beauty(problem, max_iterations=10)
            eps = a_beauty(problem, max_iterations=10, epsilon=0.0)
            assert eps.l_star == plain.l_star

    @pytest.mark.parametrize("epsilon", [0.5, 0.1])
    def test_epsilon_rule_never_loosens_the_answer(self, epsilon):
        rng = np.random.default_rng(151)
        for _ in range(100):
            problem = random_problem(rng)
            out = a_beauty(problem, max_iterations=10, epsilon=epsilon)
            if out.found:
                assert out.l_star == oracle_lstar(problem)


# Bounds whose sums round: decimals, and magnitudes where the spacing of
# doubles exceeds 1 (2^53 + 1.0 rounds back to 2^53).
FLOAT_BOUNDS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.3, 0.001, 3.3, 0.1 + 0.2, 1.0, 1e16, 2.0**53)


@st.composite
def float_problem_specs(draw):
    """(vertex count, edges as (tail, head, nested lower bounds), goals) of a
    graph with 3-7 vertices, start 0 and 1-3 layers per edge."""
    n = draw(st.integers(3, 7))
    vertex = st.integers(0, n - 1)
    lowers = st.lists(st.sampled_from((0.0, *FLOAT_BOUNDS)), min_size=1, max_size=3)
    edges = draw(st.lists(st.tuples(vertex, vertex, lowers.map(sorted)), min_size=1, max_size=3 * n))
    goals = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2))
    return n, tuple((t, h, tuple(low)) for t, h, low in edges), tuple(sorted(goals))


def float_problem(n, edges, goals):
    """Each edge's layers have the given lowers, one shared upper bound above
    them, and prices 1, 10, 100; its true cost is its last lower bound."""
    built = []
    for tail, head, lowers in edges:
        upper = 2.0 * lowers[-1] + 1.0
        specs = tuple(EstimatorSpec(lo, upper, 10.0**i) for i, lo in enumerate(lowers))
        built.append(Edge(tail, head, specs, lowers[-1]))
    return Problem(EstimatedDigraph(n, built), 0, frozenset(goals))


class TestFloatBounds:
    """Every reported bound is the start-to-goal fold that oracle_lstar takes."""

    @given(float_problem_specs())
    # popped at 0.7999999999999999; adding the rise 0.3 - 0.1 to that gives
    # 0.9999999999999999, below L* = 0.7 + 0.3 = 1.0
    @example((3, ((0, 1, (0.0, 0.7)), (1, 2, (0.1, 0.3))), (2,)))
    # popped at 2^53 + 1.0 = 2^53; adding the rise 1.1 - 1.0 to that leaves
    # 2^53, but L* = 2^53 + 1.1 = 2^53 + 2
    @example((3, ((0, 1, (2.0**53,)), (1, 2, (1.0, 1.1))), (2,)))
    @settings(max_examples=150, deadline=None)
    def test_bounds_bracket_and_certify_the_oracle_sum(self, spec):
        problem = float_problem(*spec)
        lstar = oracle_lstar(problem)
        assert oracle_enumerate(problem) == lstar  # both fold each path from the start
        shared = EstimationCache(problem.graph)
        for l_est in (0.0, lstar / 2, INF):
            for cache in (EstimationCache(problem.graph), shared):
                res = beauty(problem, cache, l_est=l_est)
                assert res.found == math.isfinite(lstar)
                if res.found:
                    assert res.l_under <= lstar <= res.l_over
                    assert not res.opt or res.l_over == lstar
        eager = ei_ucs(problem)
        if eager.found:
            assert eager.opt and eager.l_under == lstar == eager.l_over
        assert a_beauty(problem).l_star == lstar


# Bounds no valid estimator yields: negative, signed zeros, NaN and both
# infinities; a sequence of them is nested or ordered only by chance.
WILD_BOUNDS = (-5.0, -1.0, -0.0, 0.0, 1.0, 2.5, 7.0, math.nan, INF, -INF)


@st.composite
def wild_problems(draw):
    """A problem over a hand-built graph, never validated: 2-6 vertices,
    start 0, and 1-3 layers per edge drawn from WILD_BOUNDS."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    bound = st.sampled_from(WILD_BOUNDS)
    layers = st.lists(st.tuples(bound, bound), min_size=1, max_size=3)
    edges = draw(st.lists(st.tuples(vertex, vertex, layers), min_size=1, max_size=3 * n))
    built = [Edge(t, h, tuple(EstimatorSpec(lo, up, 2.0**i) for i, (lo, up) in enumerate(specs)))
             for t, h, specs in edges]
    goals = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2))
    return Problem(EstimatedDigraph(n, built), 0, frozenset(goals))


class TestWildBounds:
    """Every bound the search loop reads is a fold from +0.0 that keeps a
    bound only when it is greater, so whatever the layers hold, every run
    ends and no pop key falls below an earlier one."""

    @given(wild_problems())
    @example(Problem(EstimatedDigraph(3, [
        Edge(0, 1, (EstimatorSpec(2.0, 2.0, 1.0),)),
        Edge(1, 2, (EstimatorSpec(-5.0, -5.0, 1.0), EstimatorSpec(math.nan, 1.0, 2.0))),
    ]), 0, frozenset({2})))
    @settings(max_examples=150, deadline=None)
    def test_runs_end_with_keys_that_never_fall(self, problem):
        def check(res):
            keys = res.pop_keys
            assert keys[0] == 0.0
            assert all(a <= b for a, b in zip(keys, keys[1:]))
            return res

        shared = EstimationCache(problem.graph)
        for l_est in (0.0, INF):
            for cache in (EstimationCache(problem.graph), shared):
                check(beauty(problem, cache, l_est=l_est))
        check(ei_ucs(problem, shared))
        check(ei_ucs(problem))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anytime, "beauty", lambda *args, **kw: check(beauty(*args, **kw)))
            assert a_beauty(problem, max_iterations=3).iterations <= 3
        assert shared.invoked.sum() == shared.layer_counts.sum()  # each charged once
