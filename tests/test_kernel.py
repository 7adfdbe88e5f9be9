"""The search kernel: pinned traces, frontier order, resumption and state.

The golden fingerprints were recorded on an earlier kernel and pin the pop
order, the returned path and the charged work, so a frontier or loop
change that alters any of them shows up here.
"""

import hashlib
import heapq
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
    ei_ucs,
    gen_grid_graph,
    gen_random_graph,
    oracle_lstar,
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
    # vertex 2 waits at key 4; running up to key 4 expands it, and its edge
    # into the goal ties the goal's bound, so it pushes nothing; the goal 3
    # at key 5 stays queued
    assert run.run(4.0) is None
    assert run.pops == ((0, 0.0), (4, 4.0), (2, 4.0))
    assert [v for v, _ in run.pops if v not in problem.goals] == [0, 2]  # expanded
    assert frontier(run) == [(5.0, 3)]
    assert run.run(5.0) == 3  # the goal pops and is returned
    assert run.pops[-1] == (3, 5.0)
    assert frontier(run) == []
    assert run.run(5.0) is None


def test_goal_stop_keeps_queue_order_at_its_key():
    # the goal 2 pops at key 1 inside the list [1, 2, 3, 4], after 1 pushed
    # 5 at key 1 while that list was walked; running up to key 1 takes 3 and
    # 4 in push order, then 5, then 6, which 3 pushed at key 1 meanwhile
    problem = make_queued_behind_goal_problem()
    run = _Pass(problem, EstimationCache(problem.graph), math.inf, math.inf, False)
    assert run.run() == 2
    assert run.pops == ((0, 0.0), (1, 1.0), (2, 1.0))
    assert frontier(run) == [(1.0, 3), (1.0, 4), (1.0, 5)]
    assert run.run(1.0) is None
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
    with pytest.raises(
        RuntimeError, match=r"edge 2 lowers vertex 1 to key -7\.0, below the key 2\.0 being"
    ):
        beauty(Problem(graph, 0, frozenset({4})), cache)
    # 0 and 3 were expanded; the last edge examined, 3 -> 1, took vertex 1
    # from key 10 to -7, below the key 2 of vertex 3
    m = cache.snapshot_metrics()
    assert (m.expansions, m.evaluations, m.prunings) == (2, 3, 0)


def test_corrupt_edge_mid_expansion_counts_only_the_edges_examined():
    graph = EstimatedDigraph(
        5,
        [
            edge(0, 1, [(10, 10, 1.0)]),
            edge(0, 3, [(2, 2, 1.0)]),
            edge(3, 1, [(0, 0, 1.0)]),
            edge(3, 4, [(5, 5, 1.0)]),
        ],
    )
    cache = EstimationCache(graph)
    cache.next_index[2] = 1
    cache.tightest_lower[2] = -9.0
    with pytest.raises(
        RuntimeError, match=r"edge 2 lowers vertex 1 to key -7\.0, below the key 2\.0 being"
    ):
        beauty(Problem(graph, 0, frozenset({4})), cache)
    # 3 -> 1 raises before 3 -> 4, the last edge of the expansion, is examined
    m = cache.snapshot_metrics()
    assert (m.expansions, m.evaluations, m.prunings) == (2, 3, 0)
    assert cache.next_index[3] == 0


def test_negative_cached_bound_into_an_unexpanded_vertex_raises():
    # edge 1 -> 2 is poisoned to a bound of -5, so expanding 1 at key 2
    # would push the goal 2 at key -3; no vertex it reaches was expanded,
    # so nothing but the key itself shows that the bounds are inconsistent
    graph = EstimatedDigraph(3, [edge(0, 1, [(2, 2, 1.0)]), edge(1, 2, [(5, 5, 1.0)])])
    cache = EstimationCache(graph)
    cache.next_index[1] = 1
    cache.tightest_lower[1] = -5.0
    with pytest.raises(
        RuntimeError,
        match=r"edge 1 lowers vertex 2 to key -3\.0, below the key 2\.0 being expanded; "
        "edge bounds are inconsistent",
    ):
        beauty(Problem(graph, 0, frozenset({2})), cache)
    m = cache.snapshot_metrics()
    assert (m.expansions, m.evaluations, m.prunings) == (2, 2, 0)


def _order_sensitive_graph(rng, nested=False):
    """A graph built from arrays, unvalidated: 1-4 layers per edge, a fifth of
    the steps lower the bound (non-nested) or, if nested, raise it by a
    fraction, zero lowers are -0.0 half the time, and layer prices are
    non-integers over many magnitudes, so the order of their summation shows
    in T_w."""
    n = int(rng.integers(4, 14))
    m = int(rng.integers(2 * n, 4 * n))
    lens = rng.integers(1, 5, m)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    lower, price = [], []
    for k in lens.tolist():
        low = float(rng.integers(0, 4))
        for _ in range(k):
            if rng.random() < 0.2:
                low = low + rng.random() if nested else low * rng.random()
            else:
                low += float(rng.integers(0, 3))
            lower.append(-0.0 if low == 0.0 and rng.random() < 0.5 else low)
            price.append(float(rng.random() * 10.0 ** rng.integers(-3, 8)))
    lower = np.array(lower)
    graph = EstimatedDigraph.from_arrays(
        n, rng.integers(0, n, m), rng.integers(0, n, m), offsets, lower, lower + 5.0,
        np.array(price), np.zeros(m), np.zeros(m, np.bool_),
    )
    return graph, n


def _eager_model(problem, cache):
    """ei_ucs written out layer by layer on copies of the cache's state: pop
    in (key, push order), and for each expanded vertex take its out-edges in
    CSR order, charging each remaining layer and folding its lower bound as
    it goes. Returns the state and the pops."""
    graph = problem.graph
    off, est_lower, est_time = graph.est_offsets, graph.est_lower, graph.est_time
    next_index = cache.next_index.copy()
    tight = cache.tightest_lower.copy()
    invoked = cache.invoked.copy()
    counts = cache.layer_counts.copy()
    tw = cache._tw
    expansions, evaluations, prunings = cache._counters
    g = {problem.start: 0.0}
    heap, pushes, pops = [(0.0, 0, problem.start)], 1, []
    while heap:
        key, _, v = heapq.heappop(heap)
        if g[v] != key:
            continue
        pops.append((v, key))
        if v in problem.goals:
            break
        expansions += 1
        for eid in np.flatnonzero(graph.tail == v).tolist():
            evaluations += 1
            low = float(tight[eid])
            for layer in range(int(next_index[eid]), int(off[eid + 1] - off[eid])):
                flat = int(off[eid]) + layer
                invoked[flat] = True
                counts[layer] += 1
                tw += float(est_time[flat])
                if est_lower[flat] > low:
                    low = float(est_lower[flat])
                next_index[eid] = layer + 1
            tight[eid] = low
            s = int(graph.head[eid])
            if key + low < g.get(s, math.inf):
                g[s] = key + low
                heapq.heappush(heap, (key + low, pushes, s))
                pushes += 1
    state = (next_index, tight, invoked, counts)
    return (
        [a.tobytes() for a in state], repr(tw), [expansions, evaluations, prunings], tuple(pops)
    )


def _lazy_model(problem, cache, l_est, l_prune):
    """A lazy pass written out layer by layer on copies of the cache's state,
    up to its first goal pop: pop in (key, push order), and for each expanded
    vertex take its out-edges in CSR order. An edge whose source key is not
    below g[s] is passed by. Any other edge takes a layer (its cached bound,
    or its first layer if fresh), then further layers one at a time, each
    charged as it is taken, while its bound beats g[s] and has not passed
    l_est. A bound that beats g[s] is pushed unless it passes l_prune, which
    counts as a pruning. Returns the state and the pops."""
    graph = problem.graph
    off, est_lower, est_time = graph.est_offsets, graph.est_lower, graph.est_time
    next_index = cache.next_index.copy()
    tight = cache.tightest_lower.copy()
    invoked = cache.invoked.copy()
    counts = cache.layer_counts.copy()
    tw = cache._tw
    expansions, evaluations, prunings = cache._counters
    g = {problem.start: 0.0}
    heap, pushes, pops = [(0.0, 0, problem.start)], 1, []
    while heap:
        key, _, v = heapq.heappop(heap)
        if g[v] != key:
            continue
        pops.append((v, key))
        if v in problem.goals:
            break
        expansions += 1
        for eid in np.flatnonzero(graph.tail == v).tolist():
            evaluations += 1
            s = int(graph.head[eid])
            g_s = g.get(s, math.inf)
            if key >= g_s:
                continue
            layer, low = int(next_index[eid]), float(tight[eid])
            k_e = int(off[eid + 1] - off[eid])
            while layer == 0 or (layer < k_e and key + low < g_s and not key + low > l_est):
                flat = int(off[eid]) + layer
                invoked[flat] = True
                counts[layer] += 1
                tw += float(est_time[flat])
                if est_lower[flat] > low:
                    low = float(est_lower[flat])
                layer += 1
            next_index[eid], tight[eid] = layer, low
            if key + low < g_s:
                assert key + low >= key  # the graphs below hold no negative bound
                if key + low <= l_prune:
                    g[s] = key + low
                    heapq.heappush(heap, (key + low, pushes, s))
                    pushes += 1
                else:
                    prunings += 1
    state = (next_index, tight, invoked, counts)
    return (
        [a.tobytes() for a in state], repr(tw), [expansions, evaluations, prunings], tuple(pops)
    )


def _state(cache):
    arrays = (cache.next_index, cache.tightest_lower, cache.invoked, cache.layer_counts)
    return [[a.tobytes() for a in arrays], repr(cache._tw), list(cache._counters)]


def test_eager_charges_equal_a_layer_by_layer_model():
    # per graph, one cache shared by beauty, thresholded beauty, apply_final
    # and ei_ucs, so an ei_ucs pass meets fresh, partly applied and exhausted
    # edges, some of them exhausted by a jump past a higher layer
    met = set()
    order_sensitive = skipped = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        graph, n = _order_sensitive_graph(rng)
        cache = EstimationCache(graph)
        for _ in range(8):
            problem = Problem(graph, int(rng.integers(0, n)), frozenset({int(rng.integers(0, n))}))
            kind = int(rng.integers(0, 4))
            if kind == 0:
                beauty(problem, cache)
                continue
            if kind == 1:
                beauty(problem, cache, float(rng.integers(1, 6)) + 0.5, float(rng.integers(2, 9)))
                continue
            if kind == 2:
                left = np.flatnonzero(cache.next_index < np.diff(graph.est_offsets))
                for eid in rng.choice(left, len(left) // 2, replace=False).tolist():
                    cache.apply_final(eid)
                continue
            *expected, pops = _eager_model(problem, cache)
            done, invoked = cache.next_index.copy(), cache.invoked.copy()
            assert ei_ucs(problem, cache).pops == pops
            assert _state(cache) == expected
            examined = np.isin(graph.tail, [v for v, _ in pops if v not in problem.goals])
            done, k_e = done[examined], np.diff(graph.est_offsets)[examined]
            kinds = {"fresh": done == 0, "partly applied": (0 < done) & (done < k_e),
                     "exhausted": done == k_e}
            met |= {name for name, hit in kinds.items() if hit.any()}
            full = graph.arrays().full_lower[examined]
            skipped += (kinds["exhausted"] & (cache.tightest_lower[examined] != full)).sum()
            charged = graph.est_time[cache.invoked & ~invoked].tolist()
            order_sensitive += sum(charged) != sum(sorted(charged))
    assert met == {"fresh", "partly applied", "exhausted"}
    assert order_sensitive > 0
    assert skipped > 0  # so reading full_lower for an exhausted edge fails the model


def test_lazy_pass_equals_a_layer_by_layer_model():
    # per graph, one cache shared by thresholded lazy passes and apply_final,
    # so a pass meets fresh, partly applied and exhausted edges, and cached
    # edges whose bound already passes l_est
    stopped = pruned = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        graph, n = _order_sensitive_graph(rng)
        cache = EstimationCache(graph)
        for _ in range(10):
            if rng.random() < 0.15:
                left = np.flatnonzero(cache.next_index < np.diff(graph.est_offsets))
                for eid in rng.choice(left, len(left) // 3, replace=False).tolist():
                    cache.apply_final(eid)
                continue
            problem = Problem(graph, int(rng.integers(0, n)), frozenset({int(rng.integers(0, n))}))
            l_est = float(rng.integers(0, 8)) + float(rng.choice([0.0, 0.5]))
            l_prune = l_est + float(rng.integers(-2, 6))
            *expected, pops = _lazy_model(problem, cache, l_est, l_prune)
            run = _Pass(problem, cache, l_est, l_prune, False)
            found = run.run()
            assert run.pops == pops
            assert (found is not None) == (pops[-1][0] in problem.goals)
            assert _state(cache) == expected
            stopped += found is not None
        pruned += cache._counters[2]
    assert stopped > 0 and pruned > 0


def test_lazy_passes_bracket_and_certify_the_oracle_bound():
    # the whole pass of beauty against oracle_lstar, on the scenarios of the
    # lazy model with nested sequences, whose fractional steps make the path
    # sums round: the bracket whenever no pruning could drop the optimum, and
    # a certified result only at L*
    certified = uncertified = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        graph, n = _order_sensitive_graph(rng, nested=True)
        cache = EstimationCache(graph)
        for _ in range(10):
            if rng.random() < 0.15:
                left = np.flatnonzero(cache.next_index < np.diff(graph.est_offsets))
                for eid in rng.choice(left, len(left) // 3, replace=False).tolist():
                    cache.apply_final(eid)
                continue
            problem = Problem(graph, int(rng.integers(0, n)), frozenset({int(rng.integers(0, n))}))
            l_est = float(rng.integers(0, 8)) + float(rng.choice([0.0, 0.5]))
            l_prune = l_est + float(rng.integers(-2, 6))
            lstar = oracle_lstar(problem)
            res = beauty(problem, cache, l_est, l_prune)
            if l_prune >= lstar:
                assert res.found == math.isfinite(lstar)
                assert res.l_under <= lstar
            if res.found:
                assert lstar <= res.l_over
                assert not res.opt or res.l_over == lstar
                certified += res.opt and res.path.edges != ()
                uncertified += not res.opt
    assert certified > 0 and uncertified > 0


def test_full_lower_table_folds_like_the_steps_and_is_built_once_by_an_eager_pass():
    # built by hand and not validated: a non-nested sequence, a NaN lower
    # after a finite one and before one, -0.0 alone and after 0.0, NaNs
    # alone, negatives alone, +inf, -inf before and after a finite one, a
    # repeated maximum, and sequences of one to four layers
    sequences = [[3.0, 1.0, 2.0], [1.0, math.nan], [math.nan, 2.0], [-0.0], [0.0, -0.0],
                 [5.0], [0.5, 1.5, 1.5, 4.0], [math.nan], [math.nan, math.nan],
                 [-1.0, -2.0], [math.inf], [-math.inf, 2.0], [2.0, -math.inf], [2.0, 2.0]]
    m = len(sequences)
    lower = np.array([x for seq in sequences for x in seq])
    graph = EstimatedDigraph.from_arrays(
        2, [0] * m, [1] * m, np.cumsum([0] + [len(seq) for seq in sequences]), lower,
        np.full(len(lower), 9.0), np.arange(1.0, len(lower) + 1), np.zeros(m), np.zeros(m, bool),
    )
    arrays = graph.arrays()
    problem = Problem(graph, 0, frozenset({1}))
    beauty(problem, EstimationCache(graph))
    assert "full_lower" not in vars(arrays)  # a lazy pass does not build it
    eager = EstimationCache(graph)
    ei_ucs(problem, eager)
    table = vars(arrays)["full_lower"]
    assert eager.tightest_lower.tobytes() == table.tobytes()
    # the steps' fold, taken on a fresh cache one layer at a time
    cache = EstimationCache(graph)
    for eid, seq in enumerate(sequences):
        for _ in seq:
            cache.apply_next(eid)
    assert table.tobytes() == cache.tightest_lower.tobytes()
    assert table.tolist() == [3.0, 1.0, 2.0, 0.0, 0.0, 5.0, 4.0, 0.0, 0.0, 0.0, math.inf,
                              2.0, 2.0, 2.0]
    assert not np.signbit(table).any()
    ei_ucs(problem, EstimationCache(graph))
    assert vars(arrays)["full_lower"] is table  # a second eager pass reuses it
    empty = EstimatedDigraph(3).arrays().full_lower
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_predecessor_index_is_built_once_by_a_tie_check():
    reference = make_reference_problem()
    arrays = reference.graph.arrays()
    ei_ucs(reference)
    assert beauty(reference).opt  # certified without a tie check
    assert "pred_indptr" not in vars(arrays) and "pred_edge" not in vars(arrays)
    tie = make_frontier_tie_problem()
    arrays = tie.graph.arrays()
    assert beauty(tie, l_est=1.0).opt  # certified by the tie check
    indptr, edges = vars(arrays)["pred_indptr"], vars(arrays)["pred_edge"]
    assert beauty(tie, l_est=1.0).opt
    assert arrays.pred_indptr is indptr and arrays.pred_edge is edges  # built once
    # by head, then tail, then edge, on a multigraph with parallel edges and self-loops
    rng = np.random.default_rng(7)
    tail, head = rng.integers(0, 6, 80), rng.integers(0, 6, 80)
    m = len(tail)
    graph = EstimatedDigraph.from_arrays(
        7, tail, head, np.arange(m + 1), np.ones(m), np.ones(m), np.ones(m), np.zeros(m),
        np.zeros(m, bool),
    )
    arrays = graph.arrays()
    assert arrays.pred_edge.tolist() == np.lexsort((tail, head)).tolist()
    assert arrays.pred_indptr.tolist() == [0, *np.cumsum(np.bincount(head, minlength=7))]


def test_eager_pass_charges_the_edges_examined_before_a_corrupt_one():
    # edge 2 (3 -> 1) is poisoned exhausted at -9: expanding 3 at key 2 would
    # push 1 at -7; edges 0 and 1, examined before it, are charged in order,
    # and edge 3 (3 -> 4), after it, is not
    graph = EstimatedDigraph(
        5,
        [
            edge(0, 1, [(4, 12, 0.1), (10, 10, 0.7)]),
            edge(0, 3, [(1, 3, 0.2), (2, 2, 0.3)]),
            edge(3, 1, [(0, 0, 1.0)]),
            edge(3, 4, [(5, 5, 1.0)]),
        ],
    )
    cache = EstimationCache(graph)
    cache.next_index[2] = 1
    cache.tightest_lower[2] = -9.0
    with pytest.raises(
        RuntimeError, match=r"edge 2 lowers vertex 1 to key -7\.0, below the key 2\.0 being"
    ):
        ei_ucs(Problem(graph, 0, frozenset({4})), cache)
    m = cache.snapshot_metrics()
    assert (m.expansions, m.evaluations, m.prunings) == (2, 3, 0)
    assert cache.invoked.tolist() == [True, True, True, True, False, False]
    assert cache.layer_counts.tolist() == [2, 2]
    assert repr(cache._tw) == repr(((0.0 + 0.1) + 0.7) + 0.2 + 0.3)
    assert cache.next_index.tolist() == [2, 2, 1, 0]
    assert cache.tightest_lower.tolist() == [10.0, 2.0, -9.0, 0.0]
