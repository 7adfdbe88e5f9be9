"""Best-first search for the tightest fully-estimated path lower bound.

The target quantity is the minimum, over all start-to-goal paths, of the
path's lower bound after every estimator on every path edge has been
applied. A path attaining that minimum certifies the tightest available
optimistic bound on the true shortest-path cost, and the ratio of its upper
to lower bound caps how suboptimal acting on it can be.

``beauty`` searches like uniform-cost search on accumulated lower bounds
but estimates lazily: a successor edge is only tightened while that could
still change the successor's recorded bound, and estimation stops early
once the tentative bound clears the l_est threshold. Candidates whose bound
exceeds l_prune are discarded. With both thresholds at infinity the result
is exact; with thresholds from a previous pass it does strictly less
estimation work. ``ei_ucs`` is the estimation-indifferent baseline that
fully estimates every edge it touches.

After a goal is popped, ``beauty_ps`` tightens the returned path's own
bound by jumping each path edge to its final estimator, which either
certifies the path as exactly optimal or yields the bracket
(l_under, l_over) a following pass can exploit.

A lazy pass whose popped goal is left uncertified at its key k checks in
the same pass whether the optimum is tied at k. It drains the tie (every
frontier entry keyed exactly k is popped and, unless it is a goal,
expanded), then runs lazy path evaluation in the manner of LazySP (Dellin
& Srinivasa, ICAPS 2016) over the tight subgraph of the closed set: the
edges (u, h) with u closed, g[h] <= k and g[u] + tightest lower bound ==
g[h]. A route from the start to a goal with g == k whose edges all keep
their bound under the final estimator is certified at k; edges that rise
are dropped and another route is tried. If the optimum is k, each optimal
route lies in that subgraph and none of its edges can rise, so a goal
popped at the optimum is always certified in the pass that pops it. With
no such route the pass returns the popped path's bracket unchanged, and
only edges on tight routes are ever charged.

Each pass is one ``_Pass``: its ``run`` method is the search loop, plain
Python with the graph and cache arrays read and written through
``memoryview``. Its frontier is a bucket queue (Dial, CACM 1969): a
``heapq`` of the distinct keys and, per key, a list of vertices in push
order. Keys are sums of bounds, so many entries share one; the loop walks
a key's whole list and does heap work once per key, and equal keys still
pop in push order. The pass owns its search state as plain lists (g, the
closed set, the parent edges, the frontier and the pops), so it can be
resumed to drain a tie and its closed set read afterwards. The three
n-length lists are reused per graph: a pass that touched few vertices
resets just those and hands the lists back, so a small search does not
pay for the graph's size. The tie check walks backwards from the goals
through the graph's predecessor index, testing every edge into each
vertex it reaches, so the loop records nothing for it and its work grows
with the route's backward cone, not with the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

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
    that ended the search and, after an uncertified lazy pop, the pops of
    the tie drain at that goal's key (drained goals are recorded but not
    expanded).
    """

    path: Path | None
    opt: bool
    l_under: float
    l_over: float
    metrics: Metrics
    pops: tuple[tuple[int, float], ...] = ()

    @property
    def found(self) -> bool:
        return self.path is not None


# Resetting one touched vertex in all three lists takes ~40-55 ns, and
# allocating the three lists afresh ~7-11 ns per vertex of the graph
# (timeit on a 2-core Xeon VM, CPython 3.11, n = 1000 to 22500, 50 to 2000
# touched vertices). The reset is the cheaper of the two while a pass
# touches under about a seventh of the graph; lists go back to the free list
# only when it touched at most an eighth, where the reset clearly wins.
_RESET_SHARE = 8


class _Pass:
    """One best-first pass and the search state it owns as plain lists.

    g (inf), closed (False) and the parent edges (-1) are n-length lists
    taken from the free list on the graph's GraphArrays, or allocated when
    it is empty; ``release`` gives them back reset. Each pass takes its own
    lists, so concurrent searches on one graph never share them. The
    frontier is ``keys``, a heap of the distinct queued keys, and
    ``buckets``, which maps each of them to its vertices in push order.
    These and the pops persist between calls to run, so a pass can be
    resumed to drain a tie at its goal key and the certification step can
    read the closed set afterwards.
    """

    def __init__(self, problem, cache, l_est, l_prune, eager):
        self.problem = problem
        self.cache = cache
        self.arrays = problem.graph.arrays()
        self.eager = bool(eager)
        self.l_est = math.inf if eager else float(l_est)
        self.l_prune = float(l_prune)
        try:
            self.g, self.closed, self.parent_edge = self.arrays.free_pass_lists.pop()
        except IndexError:
            n = problem.graph.vertex_count
            self.g = [math.inf] * n
            self.closed = [False] * n
            self.parent_edge = [-1] * n
        self.keys: list[float] = []  # heap of the distinct queued keys
        self.buckets: dict[float, list[int]] = {}  # key -> vertices in push order
        self._pops: list[tuple[int, float]] = []

    def run(self, drain_key: float | None = None) -> int | None:
        """Best-first search on accumulated lower bounds.

        Lazy mode: while a successor's tentative bound still beats its
        recorded one and the edge has unapplied estimators, take one
        estimation step; previously cached work is consumed as a single
        free step, after which genuinely new estimators are invoked and
        charged once per cache lifetime. Estimation stops early once the
        tentative bound exceeds l_est. Successors are recorded only if they
        improve and their bound does not exceed l_prune; improving bounds
        above l_prune count as prunings. Eager mode fully estimates every
        examined edge up front, with no estimation cutoff (the baseline).
        An edge's next_index and tightest lower bound are read and written
        once per evaluation, not once per step.

        A first call (drain_key None) pushes the start and returns the
        first goal popped, or None when the frontier runs out. A later call
        with a drain_key resumes the same frontier and pops every entry
        keyed at most drain_key, expanding non-goal vertices as usual;
        goals are recorded as pops but never expanded, and it returns None.
        Every pop is appended to the pops as (vertex, key). The cache's
        counters and simulated estimation time advance in place; a closed
        vertex that improves (impossible with valid bounds) raises
        RuntimeError once they are written back.

        Entries pop in (key, push order). The smallest key is popped and its
        list walked whole, together with what a zero-bound edge appends to
        it meanwhile; a call that stops inside a list requeues the unpopped
        rest at its key, so the order holds across calls.
        """
        arr, cache = self.arrays, self.cache
        indptr = memoryview(arr.indptr)
        succ_vertex = memoryview(arr.succ_vertex)
        succ_edge = memoryview(arr.succ_edge)
        est_offsets = memoryview(arr.est_offsets)
        est_lower = memoryview(arr.est_lower)
        est_time = memoryview(arr.est_time)
        next_index = memoryview(cache.next_index)
        tight_lower = memoryview(cache.tightest_lower)
        invoked = memoryview(cache.invoked)
        layer_counts = [0] * arr.k_max  # charged here, added to the cache's on return
        counters = cache._counters
        expansions, evaluations, prunings = counters
        tw = cache._tw  # summed in charge order, as a running total
        g, closed, parent_edge = self.g, self.closed, self.parent_edge
        keys, buckets, goals = self.keys, self.buckets, self.problem.goals
        l_est, l_prune, eager = self.l_est, self.l_prune, self.eager
        record_pop = self._pops.append
        drain = drain_key is not None
        if not drain:
            start = self.problem.start
            g[start] = 0.0
            keys.append(0.0)
            buckets[0.0] = [start]
        found = None
        corrupt = -1
        while keys:
            key = keys[0]
            if drain and key > drain_key:
                break
            heappop(keys)
            # the walk also reaches what is appended at this key meanwhile
            # (zero-bound edges), in push order
            entries = iter(buckets[key])
            for v in entries:
                if closed[v] or key != g[v]:
                    continue  # stale entry superseded by a better key
                record_pop((v, key))
                if v in goals:
                    if drain:
                        continue
                    found = v
                    break
                closed[v] = True
                expansions += 1
                for ptr in range(indptr[v], indptr[v + 1]):
                    s = succ_vertex[ptr]
                    eid = succ_edge[ptr]
                    evaluations += 1
                    g_s = g[s]
                    # eager: run the sequence to its end; lazy: stop once the
                    # bound no longer beats g[s] or passes l_est
                    gt = key
                    if eager or gt < g_s:
                        layer = applied = next_index[eid]
                        low = tight_lower[eid]
                        if layer:
                            gt = key + low  # cached work, consumed as one free step
                        if not (layer and gt > l_est):
                            base = est_offsets[eid]
                            k_e = est_offsets[eid + 1] - base
                            while layer < k_e and (eager or gt < g_s):
                                flat = base + layer
                                if not invoked[flat]:
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
                        if closed[s]:
                            corrupt = s
                            break
                        if gt <= l_prune:
                            g[s] = gt
                            parent_edge[s] = eid
                            if gt in buckets:
                                buckets[gt].append(s)
                            else:
                                buckets[gt] = [s]
                                heappush(keys, gt)
                        else:
                            prunings += 1
                if corrupt >= 0:
                    break
            else:
                del buckets[key]
                continue
            buckets[key] = list(entries)  # stopped inside: requeue the unpopped rest
            heappush(keys, key)
            break
        counters[:] = expansions, evaluations, prunings
        cache._tw = tw
        cache.layer_counts += layer_counts
        if corrupt >= 0:
            raise RuntimeError(
                f"closed vertex {corrupt} improved during search; "
                "edge bounds are inconsistent (negative or non-nested?)"
            )
        return found

    def release(self) -> None:
        """Give the lists back to the graph's free list, reset, when that is
        cheaper than allocating them afresh; the pass must not be run again.

        Every vertex a pass touched is in its pops or still in its buckets:
        g and the parent edge are set only with a push, and the entry pushed
        last for a vertex is either still queued or was popped and recorded
        (only entries superseded by a better key are skipped); closed is set
        only at a recorded pop.
        """
        g, closed, parent_edge = self.g, self.closed, self.parent_edge
        self.g = self.closed = self.parent_edge = None
        queued = self.buckets.values()
        if (len(self._pops) + sum(map(len, queued))) * _RESET_SHARE > len(g):
            return
        inf = math.inf
        for v, _ in self._pops:
            g[v] = inf
            closed[v] = False
            parent_edge[v] = -1
        for bucket in queued:
            for v in bucket:
                g[v] = inf
                closed[v] = False
                parent_edge[v] = -1
        self.arrays.free_pass_lists.append((g, closed, parent_edge))

    @property
    def pops(self) -> tuple[tuple[int, float], ...]:
        return tuple(self._pops)

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


def beauty_ps(
    path: Path, l_path: float, cache: EstimationCache
) -> tuple[bool, float, float]:
    """Post-search tightening of a found path's own bound.

    l_path is the path's bound as popped (every path edge has at least one
    applied estimator). Each edge that still has unapplied estimators is
    jumped to its final one and the path bound updated incrementally.
    Returns (opt, l_under, l_over): l_under is the bound as popped, l_over
    the fully-estimated bound, and opt says they agree, i.e. tightening
    changed nothing and the path is certified.
    """
    l_under = l_path
    l_cur = l_path
    for eid in path.edges:
        if cache.applied_count(eid) < 1:
            raise ValueError(f"path edge {eid} has no applied estimator")
        if cache.has_remaining(eid):
            prev = float(cache.tightest_lower[eid])
            new = cache.apply_final(eid)
            l_cur += new - prev
    return (not l_cur > l_under), l_under, l_cur


def _tight_route(run: _Pass, k: float, dead: set[int]) -> Path | None:
    """A start-to-goal route through tight edges of the closed set, or None.

    An edge (u, h) is tight when u is closed, g[h] <= k and g[u] plus the
    edge's tightest lower bound equals g[h], the very float sum the kernel
    stores. Routes end at a goal with g == k and avoid the dead edges. The
    route is found backwards from the goals, so only vertices that reach a
    goal through tight edges are visited: every edge into such a vertex is
    read from the predecessor index and tested, in ascending tail and then
    edge order. Bounds are never negative, so every vertex the walk reaches
    has g <= k.
    """
    start, g, closed = run.problem.start, run.g, run.closed
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
            if closed[u] and g[u] + low == g[v] and u not in seen and eid not in dead:
                seen.add(u)
                toward_goal[u] = (eid, v)
                stack.append(u)
    return None


def _certify_tie(run: _Pass, k: float) -> Path | None:
    """LazySP over the tight subgraph: a route whose full bound is k, or None.

    Each candidate route has every edge jumped to its final estimator; a
    route on which no edge rose is certified at k, otherwise the edges that
    rose are dropped and the next route is tried. Only edges on tight
    routes are ever charged.
    """
    cache = run.cache
    dead: set[int] = set()
    while (route := _tight_route(run, k, dead)) is not None:
        for eid in route.edges:
            if cache.has_remaining(eid):
                low = float(cache.tightest_lower[eid])
                if cache.apply_final(eid) > low:
                    dead.add(eid)
        if dead.isdisjoint(route.edges):
            return route
    return None


def _search(problem, cache, l_est, l_prune, eager):
    if cache is None:
        cache = EstimationCache(problem.graph)
    elif cache.graph is not problem.graph:
        raise ValueError("the cache was built for another graph")
    before = cache.snapshot_metrics()
    run = _Pass(problem, cache, l_est, l_prune, eager)
    goal = run.run()
    if goal is None:
        path, opt, l_under, l_over = None, False, math.inf, math.inf
    else:
        path = run.trace(goal)
        k = run.g[goal]
        opt, l_under, l_over = beauty_ps(path, k, cache)
        if not opt and not eager:
            # the optimum may still be tied at k: drain the tie, then look
            # for a tight route that full estimation leaves at k
            run.run(drain_key=k)
            route = _certify_tie(run, k)
            if route is not None:
                path, opt, l_over = route, True, k
    run.release()
    return SearchResult(
        path, opt, l_under, l_over, cache.snapshot_metrics() - before, run.pops
    )


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
    on SearchResult but estimation effort drops. A goal popped at the
    optimum is still certified in this pass: when the popped path rises
    under post-search tightening, the tie at its key is drained and a
    tight route at that key is sought (see the module docstring). Pass a
    shared cache to reuse estimation work across calls. A NaN threshold
    raises ValueError: every comparison with it is false.
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
