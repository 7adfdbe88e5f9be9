"""Best-first search for the tightest fully-estimated path lower bound.

The target is the minimum, over start-to-goal paths, of the path's lower
bound once every estimator on every path edge is applied. A path attaining
it certifies the tightest available optimistic bound on the true
shortest-path cost.

- ``beauty`` searches on accumulated lower bounds and tightens a successor
  edge only while that could still change the successor's bound, stopping
  once the bound passes ``l_est``; bounds above ``l_prune`` are discarded.
  With both thresholds at infinity the result is exact.
- ``ei_ucs``, the estimation-indifferent baseline, fully estimates every
  edge it examines.
- ``beauty_ps`` jumps each edge of a found path to its final estimator,
  which certifies the path or yields the bracket (l_under, l_over); l_over
  is the path's bounds summed from the start, as g and oracle_lstar sum them.
- A lazy pass whose popped goal is uncertified at key k pops every entry
  tied at k, then runs lazy path evaluation as in LazySP (Dellin &
  Srinivasa, ICAPS 2016) over the tight subgraph of the vertices with
  g <= k. Where path sums are exact, a goal popped at the optimum is so
  certified in the pass that pops it. Only edges on tight routes are charged.

Each pass is one ``_Pass``, whose ``run`` is the one search loop: plain
Python over ``memoryview``s of the graph and cache arrays, with a bucket
queue (Dial, CACM 1969) as its frontier. Invariants:

- entries pop in (key, push order), across calls to ``run`` too;
- every bound the loop reads is a fold from +0.0 that keeps a bound only
  when it is greater, so no key falls below the key being expanded: there
  is no closed set and a popped vertex's g is final;
- only the estimation steps write the cache, whose public arrays are
  read-only views, so each layer is charged at most once per cache;
- ``T_w`` is summed in charge order;
- an eager pass writes nothing to the cache until it returns;
- an edge with layers left holds the fold of its applied prefix, so its
  fully-estimated bound is ``GraphArrays.full_lower``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import sub

from .estimation import EstimationCache, Metrics
from .graph import Path, Problem

__all__ = ["SearchResult", "beauty", "beauty_ps", "default_backend_name", "ei_ucs"]


def default_backend_name() -> str:
    """Name of the kernel that runs: always ``"numpy"``.

    There is one kernel, plain Python over numpy arrays without a JIT. The
    name remains so that benchmark results stay stamped with, and
    comparable by, the kernel that produced them.
    """
    return "numpy"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search pass.

    path is None when no goal is reachable under the thresholds, in which
    case both bounds are inf. opt means the path's fully-estimated bound
    was certified as the tightest reachable one; a pass certified by its
    tie check returns the tied route, not the popped path. pops records
    the pop order as (vertex, key) pairs: every expansion, the goal pop
    that ended the search and, after an uncertified lazy pop, every later
    pop tied at that goal's key (a goal is recorded but never expanded).
    It is stored as two tuples, pop_vertices and pop_keys, and paired on
    each read; a popped vertex's key is its g, final once it is popped.
    """

    path: Path | None
    opt: bool
    l_under: float
    l_over: float
    metrics: Metrics
    pop_vertices: tuple[int, ...] = ()
    pop_keys: tuple[float, ...] = ()

    @property
    def found(self) -> bool:
        return self.path is not None

    @property
    def pops(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.pop_vertices, self.pop_keys))


# Resetting one touched vertex in both lists takes ~38-48 ns, and
# allocating the two lists afresh ~4.6-10 ns per vertex of the graph
# (timeit on a 2-core Xeon VM, CPython 3.11, n = 1000 to 22500, 50 to 2000
# touched vertices). The reset is the cheaper of the two while a pass
# touches under a quarter (n = 22500) to a ninth (n = 1000) of the graph;
# lists go back to the free list only when it touched at most an eighth.
_RESET_SHARE = 8


class _Pass:
    """One best-first pass and the search state it owns as plain lists.

    g (inf) and the parent edges (-1) are n-length lists taken from the
    free list on the graph's GraphArrays, or allocated when it is empty;
    ``release`` gives them back reset. Each pass takes its own lists, so
    concurrent searches on one graph never share them. The frontier is
    ``keys``, a heap of the distinct queued keys, and ``buckets``, which
    maps each of them to its vertices in push order; the start is pushed
    at key 0 when the pass is built. These and the popped vertices persist
    between calls to run, so the pass resumes to pop the tie at its goal
    key and the certification step can read g afterwards. A popped vertex
    keeps its key as g, so ``pops`` pairs each with g until ``release``.
    """

    def __init__(self, problem, cache, l_est, l_prune, eager):
        self.problem = problem
        self.cache = cache
        self.arrays = problem.graph.arrays()
        self.eager = bool(eager)
        self.l_est = float(l_est)  # an eager pass does not read it
        self.l_prune = float(l_prune)
        try:
            self.g, self.parent_edge = self.arrays.free_pass_lists.pop()
        except IndexError:
            n = problem.graph.vertex_count
            self.g = [math.inf] * n
            self.parent_edge = [-1] * n
        start = problem.start
        self.g[start] = 0.0
        self.keys: list[float] = [0.0]  # heap of the distinct queued keys
        self.buckets: dict[float, list[int]] = {0.0: [start]}  # key -> vertices in push order
        self.popped: list[int] = []  # each popped vertex keeps its key as g

    def run(self, limit: float = math.inf) -> int | None:
        """Resume the frontier and pop until a goal, which is returned
        unexpanded, or return None once the next key exceeds limit or the
        frontier runs out.

        Every pop is appended to popped; every other pop is expanded, and
        its edges counted as evaluations. A lazy pass steps an edge's
        estimators while the successor's tentative bound beats g[s] and does
        not pass l_est; cached work is one free step. An eager pass fully
        estimates every examined edge: one with layers left takes its
        full_lower bound and is charged by EstimationCache._charge_rest as
        run returns; an exhausted one keeps its cached bound, which
        apply_final may have left below the table's. An improving successor
        above l_prune counts as a pruning. Invariants:

        - entries pop in (key, push order); a call that stops inside a key's
          list requeues the rest at that key;
        - every bound read here, cached, stepped or from full_lower, is a
          fold from +0.0 that keeps a bound only when it is greater, so no
          push falls below the key being expanded and an entry is current
          exactly when its key equals g[v];
        - no layer at or past next_index is invoked, so a step charges its
          layer without testing invoked;
        - an eager pass examines each edge at most once (each vertex is
          expanded once), so reading the cache as it was is exact.
        """
        arr, cache = self.arrays, self.cache
        indptr = memoryview(arr.indptr)
        succ_vertex = memoryview(arr.succ_vertex)
        succ_edge = memoryview(arr.succ_edge)
        est_offsets = memoryview(arr.est_offsets)
        est_lower = memoryview(arr.est_lower)
        est_time = memoryview(arr.est_time)
        next_index = memoryview(cache._next_index)
        tight_lower = memoryview(cache._tightest_lower)
        invoked = memoryview(cache._invoked)
        k_max = arr.k_max
        counters = cache._counters
        expansions, evaluations, prunings = counters
        l_est, l_prune, eager = self.l_est, self.l_prune, self.eager
        if eager:  # nothing is written to the cache until run returns
            full_lower = memoryview(arr.full_lower)
            charged_edges = array("q")
            charge_edge = charged_edges.append
        else:
            layer_counts = [0] * k_max  # charged here, added to the cache's on return
            tw = cache._tw  # summed in charge order, as a running total
        g, parent_edge = self.g, self.parent_edge
        keys, buckets, goals = self.keys, self.buckets, self.problem.goals
        bucket_at = buckets.get
        record_pop = self.popped.append
        found = None
        while keys:
            key = keys[0]
            if key > limit:
                break
            heappop(keys)
            # the walk also reaches what is appended at this key meanwhile
            # (zero-bound edges), in push order
            entries = iter(buckets[key])
            for v in entries:
                if key != g[v]:
                    continue  # stale entry superseded by a better key
                record_pop(v)  # its key stays g[v]: nothing is pushed below key
                if v in goals:
                    found = v
                    break
                expansions += 1
                lo, hi = indptr[v], indptr[v + 1]
                evaluations += hi - lo
                for ptr in range(lo, hi):
                    s = succ_vertex[ptr]
                    g_s = g[s]
                    if eager:
                        # the full bound, charged when run returns
                        eid = succ_edge[ptr]
                        layer = next_index[eid]
                        if not layer or est_offsets[eid] + layer < est_offsets[eid + 1]:
                            low = full_lower[eid]
                            charge_edge(eid)
                        else:  # exhausted: apply_final may have skipped a layer
                            low = tight_lower[eid]
                        gt = key + low
                    elif not key < g_s:
                        continue  # the edge cannot improve s
                    else:
                        # stop once the bound no longer beats g[s] or passes l_est
                        eid = succ_edge[ptr]
                        layer = applied = next_index[eid]
                        low = tight_lower[eid]
                        # cached work, consumed as one free step; a fresh
                        # edge's bound is +0.0 and no key is -0.0, so gt is key
                        gt = key + low
                        # a cached edge can take no step once it reaches k_max
                        # (no sequence is longer), passes l_est or no longer
                        # beats g[s]
                        if not layer or (layer != k_max and not gt > l_est and gt < g_s):
                            base = est_offsets[eid]
                            k_e = est_offsets[eid + 1] - base
                            while layer < k_e and gt < g_s:
                                # no layer at or past next_index was invoked: charge it
                                flat = base + layer
                                invoked[flat] = True
                                layer_counts[layer] += 1
                                tw += est_time[flat]
                                lower = est_lower[flat]
                                if lower > low:
                                    low = lower
                                layer += 1
                                gt = key + low
                                if gt > l_est:
                                    break
                            if layer != applied:
                                next_index[eid] = layer
                                tight_lower[eid] = low
                    if gt < g_s:
                        if gt <= l_prune:
                            g[s] = gt
                            parent_edge[s] = eid
                            bucket = bucket_at(gt)
                            if bucket is None:
                                buckets[gt] = [s]
                                heappush(keys, gt)
                            else:
                                bucket.append(s)
                        else:
                            prunings += 1
            else:
                del buckets[key]
                continue
            buckets[key] = list(entries)  # stopped inside: requeue the unpopped rest
            heappush(keys, key)
            break
        counters[:] = expansions, evaluations, prunings
        if eager:
            if charged_edges:
                cache._charge_rest(charged_edges)
        elif any(layer_counts):
            cache._tw = tw
            cache._layer_counts += layer_counts
        return found

    def release(self) -> None:
        """Give the lists back to the graph's free list, reset, when that is
        cheaper than allocating them afresh; the pass must not be run again.

        Every vertex a pass touched was popped or is still in its buckets:
        g and the parent edge are set only with a push, and the entry pushed
        last for a vertex is either still queued or was popped and recorded
        (only entries superseded by a better key are skipped).
        """
        g, parent_edge = self.g, self.parent_edge
        self.g = self.parent_edge = None
        queued = self.buckets.values()
        if (len(self.popped) + sum(map(len, queued))) * _RESET_SHARE > len(g):
            return
        inf = math.inf
        for v in self.popped:
            g[v] = inf
            parent_edge[v] = -1
        for bucket in queued:
            for v in bucket:
                g[v] = inf
                parent_edge[v] = -1
        self.arrays.free_pass_lists.append((g, parent_edge))

    @property
    def pops(self) -> tuple[tuple[int, float], ...]:
        """The pops as (vertex, key) pairs, each key read back from g; valid
        until ``release``."""
        return tuple(zip(self.popped, map(self.g.__getitem__, self.popped)))

    def trace(self, vertex: int) -> Path:
        """Walk the parent edges back to the start; empty path at the start."""
        tail = self.problem.graph.tail
        route = []
        v = vertex
        while (eid := self.parent_edge[v]) >= 0:
            route.append(eid)
            v = int(tail[eid])
        if v != self.problem.start:
            raise ValueError(f"vertex {vertex} was not reached from {self.problem.start}")
        route.reverse()
        return Path(tuple(route), vertex)


def _finalise(route: Path, cache: EstimationCache) -> float:
    """Jump each route edge with layers left to its final estimator, in route
    order, and return the route's bound: the left fold from +0.0 of its
    tightest lower bounds, the sum g and oracle_lstar compute."""
    bound = 0.0
    for eid in route.edges:
        if cache.has_remaining(eid):
            cache.apply_final(eid)
        bound += float(cache.tightest_lower[eid])
    return bound


def beauty_ps(
    path: Path, l_path: float, cache: EstimationCache
) -> tuple[bool, float, float]:
    """Post-search tightening of a found path's own bound.

    l_path is the path's bound as popped. Unless every path edge has an
    applied estimator, ValueError is raised before any edge is jumped.
    Returns (opt, l_under, l_over): l_under is l_path, l_over the path's
    bound once finalised, and opt says it is not above l_path, i.e. the
    path is certified.
    """
    for eid in path.edges:
        if cache.next_index[eid] < 1:
            raise ValueError(f"path edge {eid} has no applied estimator")
    l_over = _finalise(path, cache)
    return (not l_over > l_path), l_path, l_over


def _tight_route(run: _Pass, k: float) -> Path | None:
    """A start-to-goal route through tight edges of vertices with g <= k, or None.

    An edge (u, h) is tight when g[h] <= k and g[u] plus the edge's tightest
    lower bound equals g[h], the very float sum the kernel stores, so a
    route's bounds fold to k, the g of the goal it ends at. The route is
    found backwards from the goals: every edge into a visited vertex is read
    from the predecessor index and tested, in ascending tail and then edge
    order. Bounds are never negative, so every vertex reached has g <= k
    and, once the pass has run up to key k, was popped; all but the goals
    were expanded. No goal has g < k and those at k seed the seen set, so the
    tail u needs no closed test and a route never passes through a goal.
    """
    start, g = run.problem.start, run.g
    tail = run.problem.graph.tail
    pred_indptr, pred_edge = run.arrays.pred_indptr, run.arrays.pred_edge
    tight_lower = run.cache.tightest_lower
    toward_goal: dict[int, tuple[int, int]] = {}  # vertex -> (edge, next vertex)
    stack = [v for v in sorted(run.problem.goals) if g[v] == k]
    seen = set(stack)
    while stack:
        v = stack.pop()
        if v == start:
            edges = []
            while v in toward_goal:
                eid, v = toward_goal[v]
                edges.append(eid)
            return Path(tuple(edges), v)
        into = pred_edge[pred_indptr[v]:pred_indptr[v + 1]]
        for u, eid, low in zip(tail[into].tolist(), into.tolist(), tight_lower[into].tolist()):
            if g[u] + low == g[v] and u not in seen:
                seen.add(u)
                toward_goal[u] = (eid, v)
                stack.append(u)
    return None


def _certify_tie(run: _Pass, k: float) -> Path | None:
    """LazySP over the tight subgraph: a route whose full bound is k, or None.

    The pass is first run up to key k until it pops no more goals, so every
    entry tied at k is popped and each tied goal recorded unexpanded. Each
    tight route is finalised and certified if its bound is still k. If not,
    an edge of it rose and is no longer tight (a bound changes only when its
    own edge is jumped), so the next route is sought in a smaller tight
    subgraph. Only edges on tight routes are ever charged.
    """
    while run.run(k) is not None:
        pass  # a tied goal is recorded as a pop, not expanded
    while (route := _tight_route(run, k)) is not None:
        if _finalise(route, run.cache) == k:
            return route
    return None


def _search(problem, cache, l_est, l_prune, eager):
    if cache is None:
        cache = EstimationCache(problem.graph)
    elif cache.graph is not problem.graph:
        raise ValueError("the cache was built for another graph")
    counts_before, counters_before, tw_before = (
        cache.layer_counts.tolist(), tuple(cache._counters), cache._tw
    )
    run = _Pass(problem, cache, l_est, l_prune, eager)
    goal = run.run()
    if goal is None:
        path, opt, l_under, l_over = None, False, math.inf, math.inf
    else:
        path = run.trace(goal)
        k = run.g[goal]
        opt, l_under, l_over = beauty_ps(path, k, cache)
        if not opt:  # an eager pass estimates fully, so its path never rises
            route = _certify_tie(run, k)
            if route is not None:
                path, opt, l_over = route, True, k
    popped = tuple(run.popped)
    keys = tuple(map(run.g.__getitem__, popped))  # before release resets g
    run.release()
    metrics = Metrics(
        tuple(map(sub, cache.layer_counts.tolist(), counts_before)),
        *map(sub, cache._counters, counters_before),
        cache._tw - tw_before,
    )
    return SearchResult(path, opt, l_under, l_over, metrics, popped, keys)


def check_thresholds(l_est: float, l_prune: float) -> None:
    """Reject a NaN threshold: every comparison with it is false."""
    if math.isnan(l_est) or math.isnan(l_prune):
        raise ValueError("l_est and l_prune must not be NaN")


def beauty(
    problem: Problem,
    cache: EstimationCache | None = None,
    l_est: float = math.inf,
    l_prune: float = math.inf,
) -> SearchResult:
    """Lazy bound-tightening search.

    With the default thresholds the returned path attains the tightest
    fully-estimated lower bound and opt is True. With finite thresholds
    from an earlier pass, the guarantees weaken to the bracket documented
    on SearchResult but estimation effort drops. When the popped path rises
    under post-search tightening, the pass resumes to pop every entry tied
    at its key and seeks a tight route at that key, which certifies a goal
    popped at the optimum where path sums are exact (see the module
    docstring). Pass a shared cache to reuse estimation work across calls.
    A NaN threshold raises ValueError: every comparison with it is false.
    """
    check_thresholds(l_est, l_prune)
    return _search(problem, cache, l_est, l_prune, eager=False)


def ei_ucs(
    problem: Problem,
    cache: EstimationCache | None = None,
) -> SearchResult:
    """Estimation-indifferent baseline: fully estimate every touched edge.

    Expands vertices in exactly the same order as beauty with infinite
    thresholds, but pays for every estimator on every examined edge, so
    its result is always certified (opt=True when a path is found).
    """
    return _search(problem, cache, math.inf, math.inf, eager=True)
