"""Pinned search and cache state over many small seeded instances.

Each family is hashed with sha256: per pass the pops, path, bracket, opt
and Metrics, then repr(T_w) and the bytes of the cache's next_index,
tightest_lower, tightest_upper, invoked and layer_counts. The digests were
recorded with the kernel that stored tightest_upper as its own array and
gave every pass freshly allocated lists, so a change to either shows up
here as soon as it alters one pop, bound or charge. The last test runs the
same warm queries but checks the cache's invariant after each one.
"""

import hashlib

import numpy as np
import pytest
from conftest import (
    make_closed_bracket_problem,
    make_closed_tie_problem,
    make_frontier_tie_problem,
    make_goal_tie_problem,
    make_reference_problem,
    random_problem,
)

import slbsearch.anytime
from slbsearch import (
    EstimationCache,
    Problem,
    a_beauty,
    beauty,
    ei_ucs,
    gen_grid_graph,
    gen_random_graph,
    synth_estimators,
)

ALGORITHMS = ("ei_ucs", "beauty", "beauty_thresholds", "a_beauty")

# (family, algorithm), "warm" or "warm-random" -> sha256 hex digest
GOLDEN = {
    ("ties", "ei_ucs"): "d67ab4d4992e26f701e698916908522f553f2f471a587c85c6069b9531b58cc1",
    ("ties", "beauty"): "3ccadf7b3796f50f76dd860be48cb58ba52918e5e65bd48032c2a1917ea40e5b",
    ("ties", "beauty_thresholds"): "99025ea1d81aafd91a2259b94cdb9b7a161fd82eb3c85f62427f48fc918618b8",
    ("ties", "a_beauty"): "7ccff7b547bbda26e60d2ac3c997af9bdbb5acc409af2af60258f1e3b05dbb70",
    ("random", "ei_ucs"): "9c51c956c9ab86fa2a0d0d4e629077ed414ec5822e8a3697b77ea4395ee57095",
    ("random", "beauty"): "657ed6306515a4027045740e8e42e336d1fbb1d7f969326d23d3e902421562fb",
    ("random", "beauty_thresholds"): "1b6852fafaea82eab3d86ea9323bd210a94a996b31d8478743799c1549a92388",
    ("random", "a_beauty"): "15cd5f6910bf7ee472f0d27aa57a9f8e7a209b886ce66e01ed5e526b6df24a7e",
    ("grid", "ei_ucs"): "f3025bc83f94352608b1347ae7b79a917c1ecb6caec336e2aa1a190a2fe94a3f",
    ("grid", "beauty"): "104ec593a973209604e205d451d4d8eaa9ba4fd90f5f23eb6ae605f33086c7ac",
    ("grid", "beauty_thresholds"): "962892426379b6e0a6a4a0ad4ec9a9616f6bf3d1b4f9999ce2a7c034d73100d2",
    ("grid", "a_beauty"): "e4d4b735f0097d0145b9c7807d62b1147614b7c01663b216a6609e8294a1b290",
    ("gen-random", "ei_ucs"): "75640d8909f5afb6b572267e33da2abde8cb11e5d77662cfec51bb6000244d7c",
    ("gen-random", "beauty"): "d47cdef3d20ec1901e2c0e71c6542df1662a7d68e5243c689ea75007c58d8b62",
    ("gen-random", "beauty_thresholds"): "8b31ea4ce359e4677e65ef865a423a095684bcb4e3c7569c99233d0745eb6629",
    ("gen-random", "a_beauty"): "ae26489644650a233336d4e5ff272bc45930873d7e0bac94e21398397d434945",
    "warm": "bc8b91dfb44d54d14c3123361fad03cbf01507472da700bb09e24fa6e1d2988c",
    "warm-random": "4eff7b49be5c192fa0956c2c797b8a2944da817780b2f4fc1f350e144551cb47",
}


def _problems(family: str):
    """The seeded instances of one family."""
    if family == "ties":
        return [
            make_reference_problem(),
            make_goal_tie_problem(),
            make_frontier_tie_problem(),
            make_closed_tie_problem(),
            make_closed_bracket_problem(),
        ]
    rng = np.random.default_rng({"random": 11, "grid": 12, "gen-random": 13}[family])
    if family == "random":
        return [random_problem(rng, max_n=9, edge_prob=0.35) for _ in range(600)]
    out = []
    for i in range(250 if family == "grid" else 200):
        if family == "grid":
            rows, cols = (int(x) for x in rng.integers(2, 8, size=2))
            weighted = gen_grid_graph(rows, cols, (1, 9), i)
        else:
            n = int(rng.integers(8, 60))
            weighted = gen_random_graph(n, float(rng.uniform(0.04, 0.2)), (1, 20), i)
        problem = synth_estimators(weighted, i)
        n = problem.graph.vertex_count
        start, goal = (int(v) for v in rng.integers(0, n, size=2))
        out.append(Problem(problem.graph, start, frozenset({goal, n - 1})))
    return out


class _Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.drained = 0  # lazy passes that popped past their first goal

    def search(self, problem, res):
        self.sha.update(
            repr((res.pops, res.path, res.opt, res.l_under, res.l_over, res.metrics)).encode()
        )
        first_goal = next((i for i, (v, _) in enumerate(res.pops) if v in problem.goals), None)
        if first_goal is not None and first_goal < len(res.pops) - 1:
            self.drained += 1

    def cache(self, cache):
        self.sha.update(repr(cache.snapshot_metrics().estimation_time).encode())
        for array in (
            cache.next_index,
            cache.tightest_lower,
            cache.tightest_upper,
            cache.invoked,
            cache.layer_counts,
        ):
            self.sha.update(array.tobytes())


def _run(algorithm, problem, cache, rng, digest, monkeypatch):
    if algorithm == "a_beauty":
        def recording(*args, **kwargs):
            res = beauty(*args, **kwargs)
            digest.search(problem, res)
            return res

        monkeypatch.setattr(slbsearch.anytime, "beauty", recording)
        res = a_beauty(problem, max_iterations=10, cache=cache)
        digest.sha.update(repr((res.path, res.l_star, res.log)).encode())
        return
    if algorithm == "ei_ucs":
        res = ei_ucs(problem, cache)
    elif algorithm == "beauty":
        res = beauty(problem, cache)
    else:
        l_est, l_prune = (float(x) for x in rng.integers(0, 30, size=2))
        res = beauty(problem, cache, l_est=l_est, l_prune=l_est + l_prune)
    digest.search(problem, res)


@pytest.mark.parametrize("family", ["ties", "random", "grid", "gen-random"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fresh_cache_state_is_pinned(family, algorithm, monkeypatch):
    rng = np.random.default_rng(7)
    digest = _Digest()
    for problem in _problems(family):
        cache = EstimationCache(problem.graph)
        _run(algorithm, problem, cache, rng, digest, monkeypatch)
        digest.cache(cache)
    assert digest.sha.hexdigest() == GOLDEN[family, algorithm]
    if algorithm in ("beauty_thresholds", "a_beauty"):
        assert digest.drained > 0  # some pass drained the tie at its goal key


def _warm_queries(problem, algorithms, rng, digest, monkeypatch):
    """Run each algorithm in turn on one cache, from a random start to a random goal."""
    graph, n = problem.graph, problem.graph.vertex_count
    cache = EstimationCache(graph)
    for algorithm in algorithms:
        start, goal = (int(v) for v in rng.integers(0, n, size=2))
        query = Problem(graph, start, frozenset({goal}))
        _run(algorithm, query, cache, rng, digest, monkeypatch)
        digest.cache(cache)


def test_warm_cache_sequence_is_pinned(monkeypatch):
    """One cache per graph, shared by a sequence of mixed queries."""
    rng = np.random.default_rng(8)
    digest = _Digest()
    for problem in _problems("gen-random")[:60]:
        _warm_queries(problem, rng.choice(ALGORITHMS, size=6).tolist(), rng, digest, monkeypatch)
    assert digest.sha.hexdigest() == GOLDEN["warm"]


def test_warm_cache_over_mixed_sequence_lengths_is_pinned(monkeypatch):
    """One cache per graph of 1 to 3 layers per edge, shared by every algorithm.

    Here an edge can be exhausted before the graph's longest sequence, and
    ei_ucs, which estimates every edge it examines to the end, meets edges
    that earlier queries left partly or fully estimated.
    """
    rng = np.random.default_rng(9)
    digest = _Digest()
    problems = _problems("random")
    for problem in problems:
        _warm_queries(problem, rng.permutation(ALGORITHMS).tolist(), rng, digest, monkeypatch)
    assert digest.sha.hexdigest() == GOLDEN["warm-random"]
    assert any(len(set(np.diff(p.graph.est_offsets))) > 1 for p in problems)


class _InvariantCheck(_Digest):
    """Checks the cache after each query instead of hashing it."""

    def __init__(self):
        super().__init__()
        self.jumped = 0  # queries after which some edge had skipped a layer

    def cache(self, cache):
        off, applied = cache.graph.est_offsets, cache.next_index
        for e in range(len(applied)):
            assert not cache.invoked[off[e] + applied[e]:off[e + 1]].any()
        assert cache.invoked.sum() == cache.layer_counts.sum()
        self.jumped += int(cache.invoked.sum() < applied.sum())


def test_no_layer_at_or_past_next_index_is_invoked(monkeypatch):
    """The invariant a step's charge rests on, after every query.

    One cache per graph of 1 to 3 layers per edge is shared by every
    algorithm; a_beauty's beauty_ps jumps edges with apply_final. After
    each query no layer at or past an edge's next_index is invoked, and
    each invoked layer was charged exactly once.
    """
    rng = np.random.default_rng(10)
    check = _InvariantCheck()
    for problem in _problems("random"):
        _warm_queries(problem, rng.permutation(ALGORITHMS).tolist(), rng, check, monkeypatch)
    assert check.jumped > 0
