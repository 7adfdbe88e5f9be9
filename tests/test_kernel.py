"""The search kernel: pinned traces, frontier order, resumption and state.

The golden fingerprints were recorded on an earlier kernel and pin the pop
order, the returned path and the charged work, so a frontier or loop
change that alters any of them shows up here.
"""

import hashlib
import math

import numpy as np
import pytest
from conftest import (
    edge,
    make_frontier_tie_problem,
    make_queued_behind_goal_problem,
    make_reference_problem,
)

import slbsearch.anytime
from slbsearch import (
    EstimatedDigraph,
    EstimationCache,
    Problem,
    a_beauty,
    beauty,
    default_backend_name,
    ei_ucs,
    gen_grid_graph,
    gen_random_graph,
    synth_estimators,
)
from slbsearch.search import _Pass

INSTANCES = {
    "grid-40x40": lambda: synth_estimators(gen_grid_graph(40, 40, (1, 9), 1), 3),
    "random-300": lambda: synth_estimators(gen_random_graph(300, 0.03, (1, 20), 5), 2),
}

# (instance, algorithm) -> (digest of every pass's pops, path and bracket
# plus the returned path, passes, expansions, evaluations, prunings,
# per-layer invocations, T_w)
GOLDEN = {
    ("grid-40x40", "beauty"): (
        "2d379aaac86eac7c", 1, 1597, 3118, 0, (2583, 2261, 2048), 229993.0
    ),
    ("grid-40x40", "ei_ucs"): (
        "2d379aaac86eac7c", 1, 1597, 3118, 0, (3118, 3118, 3118), 346098.0
    ),
    ("grid-40x40", "a_beauty"): (
        "c568e058e1eaca82", 6, 9586, 18710, 0, (2764, 2090, 2068), 230464.0
    ),
    ("random-300", "beauty"): (
        "664836a57feb1290", 1, 29, 88, 0, (86, 82, 78), 8706.0
    ),
    ("random-300", "ei_ucs"): (
        "664836a57feb1290", 1, 29, 88, 0, (88, 88, 88), 9768.0
    ),
    ("random-300", "a_beauty"): (
        "1ecee6f4f3c9eb30", 3, 172, 530, 125, (209, 30, 27), 3209.0
    ),
}


def fingerprint(problem, algorithm, monkeypatch):
    cache = EstimationCache(problem.graph)
    if algorithm == "a_beauty":
        passes = []

        def recording(*args, **kwargs):
            res = beauty(*args, **kwargs)
            passes.append(res)
            return res

        monkeypatch.setattr(slbsearch.anytime, "beauty", recording)
        path = a_beauty(problem, max_iterations=10, cache=cache).path
    else:
        res = (beauty if algorithm == "beauty" else ei_ucs)(problem, cache)
        passes, path = [res], res.path
    trace = [(r.pops, r.path, r.opt, r.l_under, r.l_over) for r in passes] + [path]
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()[:16]
    m = cache.snapshot_metrics()
    return (
        digest,
        len(passes),
        m.expansions,
        m.evaluations,
        m.prunings,
        m.layer_invocations,
        m.estimation_time,
    )


@pytest.mark.parametrize("instance,algorithm", sorted(GOLDEN))
def test_golden_fingerprint(instance, algorithm, monkeypatch):
    problem = INSTANCES[instance]()
    assert fingerprint(problem, algorithm, monkeypatch) == GOLDEN[instance, algorithm]


def test_equal_keys_pop_in_insertion_order():
    # 0 pushes 3, 1, 2 at key 1 in successor order; 1 then pushes 4 at key
    # 1 as well, behind them; the goal 5 waits at key 2
    unit = [(1, 1, 1.0)]
    free = [(0, 0, 1.0)]
    graph = EstimatedDigraph(
        6,
        [
            edge(0, 3, unit),
            edge(0, 1, unit),
            edge(0, 2, unit),
            edge(1, 4, free),
            edge(4, 5, unit),
        ],
    )
    res = beauty(Problem(graph, 0, frozenset({5})))
    assert res.pops == ((0, 0.0), (3, 1.0), (1, 1.0), (2, 1.0), (4, 1.0), (5, 2.0))


def frontier(run):
    """The queued (key, vertex) entries in pop order; the key heap holds
    exactly the keys that have a list."""
    assert sorted(run.keys) == sorted(run.buckets)
    return [(key, v) for key in sorted(run.buckets) for v in run.buckets[key]]


def test_drain_resumes_the_same_frontier():
    problem = make_frontier_tie_problem()
    run = _Pass(problem, EstimationCache(problem.graph), 1.0, math.inf, False)
    assert run.run() == 4
    assert run.pops == ((0, 0.0), (4, 4.0))
    assert frontier(run) == [(4.0, 2), (5.0, 3)]
    # vertex 2 waits at key 4; draining expands it, and its edge into the
    # goal ties the goal's bound, so it pushes nothing; the goal 3 at key 5
    # stays queued
    assert run.run(drain_key=4.0) is None
    assert run.pops == ((0, 0.0), (4, 4.0), (2, 4.0))
    assert [v for v, c in enumerate(run.closed) if c] == [0, 2]
    assert frontier(run) == [(5.0, 3)]
    assert run.run(drain_key=5.0) is None
    assert run.pops[-1] == (3, 5.0)
    assert frontier(run) == []


def test_goal_stop_keeps_queue_order_at_its_key():
    # the goal 2 pops at key 1 inside the list [1, 2, 3, 4], after 1 pushed
    # 5 at key 1 while that list was walked; the drain takes 3 and 4 in push
    # order, then 5, then 6, which 3 pushed at key 1 during the drain
    problem = make_queued_behind_goal_problem()
    run = _Pass(problem, EstimationCache(problem.graph), math.inf, math.inf, False)
    assert run.run() == 2
    assert run.pops == ((0, 0.0), (1, 1.0), (2, 1.0))
    assert frontier(run) == [(1.0, 3), (1.0, 4), (1.0, 5)]
    assert run.run(drain_key=1.0) is None
    assert run.pops[3:] == ((3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0))
    assert frontier(run) == []


def test_writes_land_in_the_cache_arrays():
    problem = make_reference_problem()
    cache = EstimationCache(problem.graph)
    beauty(problem, cache)
    # by edge: E01, E02, E14, E21, E23, E24
    assert cache.next_index.dtype == np.int64
    assert cache.next_index.tolist() == [1, 2, 2, 1, 2, 1]
    assert cache.tightest_lower.tolist() == [4.0, 3.0, 4.0, 2.0, 7.0, 4.0]
    assert cache.tightest_upper.tolist() == [4.0, 5.0, 6.0, 3.0, 8.0, 6.0]
    assert cache.invoked.dtype == np.bool_
    assert cache.invoked.tolist() == [
        True, True, True, True, True, True, False, True, True, True
    ]
    assert cache.layer_counts.tolist() == [6, 3]
    est_time = problem.graph.arrays().est_time
    assert est_time[cache.invoked].sum() == cache.snapshot_metrics().estimation_time == 36.0


def test_pops_and_tree_hold_native_values():
    res = ei_ucs(make_reference_problem())
    assert all(type(v) is int and type(k) is float for v, k in res.pops)
    assert all(type(e) is int for e in res.path.edges)


def test_poisoned_cache_raises_and_keeps_counts():
    graph = EstimatedDigraph(
        5,
        [
            edge(0, 1, [(10, 10, 1.0)]),
            edge(0, 3, [(2, 2, 1.0)]),
            edge(3, 1, [(0, 0, 1.0)]),
            edge(1, 3, [(1, 1, 1.0)]),
        ],
    )
    cache = EstimationCache(graph)
    cache.next_index[2] = 1
    cache.tightest_lower[2] = -9.0
    with pytest.raises(RuntimeError, match="closed vertex 3 improved"):
        beauty(Problem(graph, 0, frozenset({4})), cache)
    # 0, 3 and 1 were expanded, the last edge examined was the one that
    # improved the closed vertex 3
    m = cache.snapshot_metrics()
    assert (m.expansions, m.evaluations, m.prunings) == (3, 4, 0)


def test_kernel_name_is_numpy():
    assert default_backend_name() == "numpy"
