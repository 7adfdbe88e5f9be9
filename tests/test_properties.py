"""Invariant checks on randomized inputs.

Two layers: hypothesis-driven properties of the estimation primitives, and
seeded sweeps over random problems (cycles allowed) checking the search
algorithms against the brute-force oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import charged_layers, random_problem

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
            assert np.all(cache.next_index <= cache._arr.est_offsets[1:] - cache._arr.est_offsets[:-1])

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
