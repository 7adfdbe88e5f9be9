"""Pass state reused per graph: pooled lists never change an answer.

A search pass takes its g and parent-edge lists from its graph's free
list and, when it touched few enough vertices, hands them back reset.
Every query here is checked against the same query on a freshly built
copy of the graph, whose free list starts empty.
"""

import math

import numpy as np
from conftest import make_queued_behind_goal_problem

from slbsearch import (
    EstimatedDigraph,
    EstimationCache,
    Problem,
    a_beauty,
    beauty,
    ei_ucs,
    gen_grid_graph,
    gen_random_graph,
    oracle_lstar,
    synth_estimators,
)
from slbsearch.search import _Pass


def fresh_copy(graph):
    """The same graph built anew: its own arrays and an empty free list."""
    return EstimatedDigraph.from_arrays(
        graph.vertex_count, graph.tail.copy(), graph.head.copy(), graph.est_offsets.copy(),
        graph.est_lower.copy(), graph.est_upper.copy(), graph.est_time.copy(),
        graph.true_cost.copy(), graph.true_known.copy(),
    )


def clone_cache(cache, graph):
    """A cache over graph holding exactly what cache holds."""
    twin = EstimationCache(graph)
    for name in ("next_index", "tightest_lower", "invoked", "layer_counts"):
        getattr(twin, "_" + name)[:] = getattr(cache, name)
    twin._tw = cache._tw
    twin._counters[:] = cache._counters
    return twin


def cache_state(cache):
    return (
        cache.next_index.tobytes(), cache.tightest_lower.tobytes(),
        cache.tightest_upper.tobytes(), cache.invoked.tobytes(),
        cache.layer_counts.tobytes(), repr(cache._tw), list(cache._counters),
    )


def solve(algorithm, problem, cache, l_est, l_prune):
    if algorithm == "ei_ucs":
        return ei_ucs(problem, cache)
    if algorithm == "beauty":
        return beauty(problem, cache, l_est=l_est, l_prune=l_prune)
    return a_beauty(problem, max_iterations=4, cache=cache)


def assert_clean(graph):
    """Every pooled pair is all inf / -1, and no list is pooled twice."""
    pool = graph.free_pass_lists
    for g, parent_edge in pool:
        assert g == [math.inf] * graph.vertex_count
        assert parent_edge == [-1] * graph.vertex_count
    ids = [id(lst) for pair in pool for lst in pair]
    assert len(ids) == len(set(ids))


def test_mixed_queries_match_a_fresh_graph():
    problem = synth_estimators(gen_random_graph(400, 0.02, (1, 6), 4), 1)
    graph, n = problem.graph, problem.graph.vertex_count
    pool = graph.free_pass_lists
    rng = np.random.default_rng(5)
    shared = EstimationCache(graph)
    took_pooled = no_path = drained = 0
    for q in range(240):
        start = int(rng.integers(0, n))
        size = int(rng.integers(1, 11))
        goals = frozenset(int(v) for v in rng.integers(start, n, size=size))
        algorithm = ("ei_ucs", "beauty", "beauty", "a_beauty")[q % 4]
        l_est, l_prune = math.inf, math.inf
        if rng.random() < 0.5:
            l_est = float(rng.integers(0, 25))
            l_prune = l_est + float(rng.integers(0, 25))
        cache = shared if rng.random() < 0.5 else EstimationCache(graph)
        copy = fresh_copy(graph)
        expected_cache = clone_cache(cache, copy)
        expected = solve(algorithm, Problem(copy, start, goals), expected_cache, l_est, l_prune)
        took_pooled += bool(pool)
        got = solve(algorithm, Problem(graph, start, goals), cache, l_est, l_prune)
        assert got == expected, q
        assert cache_state(cache) == cache_state(expected_cache), q
        assert_clean(graph)
        no_path += not got.found
        pops = getattr(got, "pops", ())
        first_goal = next((i for i, (v, _) in enumerate(pops) if v in goals), None)
        drained += first_goal is not None and first_goal < len(pops) - 1
    assert len(pool) == 1  # one pass at a time: one pair, reused throughout
    assert took_pooled > 180 and 50 < no_path < 190 and drained > 0


def test_pass_stopped_inside_a_list_hands_back_clean():
    # the goal 2 pops at key 1 while 3, 4 and 5 are still queued there
    certified = make_queued_behind_goal_problem(200)
    pool = certified.graph.free_pass_lists
    res = beauty(certified)
    assert res.opt and res.pops == ((0, 0.0), (1, 1.0), (2, 1.0))
    assert len(pool) == 1
    assert_clean(certified.graph)
    # the goal edge rises to 2 under post-search tightening, so the pass
    # drains key 1 in push order before it hands its lists back
    rising = make_queued_behind_goal_problem(200, goal_lowers=(1, 2))
    pool = rising.graph.free_pass_lists
    res = beauty(rising, l_est=0.5)
    assert not res.opt and (res.l_under, res.l_over) == (1.0, 2.0)
    assert [v for v, _ in res.pops] == [0, 1, 2, 3, 4, 5, 6]
    assert len(pool) == 1
    assert_clean(rising.graph)


def test_result_pops_outlive_the_pooled_lists():
    problem = make_queued_behind_goal_problem(200)
    pool = problem.graph.free_pass_lists
    res = beauty(problem)
    assert len(pool) == 1
    lists = pool[0]
    # another query takes the same lists, writes g and hands them back reset
    other = beauty(Problem(problem.graph, 1, frozenset({5})))
    assert other.pops == ((1, 0.0), (5, 0.0)) and pool == [lists]
    assert res.pops == ((0, 0.0), (1, 1.0), (2, 1.0))
    assert all(type(v) is int and type(k) is float for v, k in res.pops)
    rerun = beauty(problem)
    assert rerun == res and hash(rerun) == hash(res)


def test_grid_pass_too_large_to_pool():
    problem = synth_estimators(gen_grid_graph(20, 20, (1, 9), 2), 3)
    pool = problem.graph.free_pass_lists
    l_star = oracle_lstar(problem)
    for _ in range(2):
        for search in (beauty, ei_ucs):
            res = search(problem)
            assert res.opt and res.l_over == l_star
            assert pool == []  # it touched far more than an eighth of the grid
    assert a_beauty(problem).l_star == l_star


def test_interleaved_passes_never_share_a_list():
    graph = synth_estimators(gen_random_graph(300, 0.01, (1, 9), 7), 2).graph
    problem = Problem(graph, 19, frozenset({299}))  # a path, 11 pops: pooled
    pool = graph.free_pass_lists
    beauty(problem)
    assert len(pool) == 1
    first = _Pass(problem, EstimationCache(graph), math.inf, math.inf, False)
    second = _Pass(problem, EstimationCache(graph), math.inf, math.inf, False)
    assert pool == []
    lists = [first.g, first.parent_edge, second.g, second.parent_edge]
    assert len({id(lst) for lst in lists}) == 4
    copy = fresh_copy(graph)
    alone = _Pass(
        Problem(copy, problem.start, problem.goals), EstimationCache(copy),
        math.inf, math.inf, False,
    )
    goal = alone.run()
    assert first.run() == goal == second.run()
    assert first.g == second.g == alone.g
    assert first.pops == second.pops == alone.pops
    first.release()
    second.release()
    assert len(pool) == 2
    assert_clean(graph)
    third = _Pass(problem, EstimationCache(graph), math.inf, math.inf, False)
    fourth = _Pass(problem, EstimationCache(graph), math.inf, math.inf, False)
    assert len({id(third.g), id(fourth.g)} | {id(lst) for lst in lists}) == 4
    assert third.g is not fourth.g and pool == []
