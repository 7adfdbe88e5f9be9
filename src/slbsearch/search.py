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

Each pass runs the kernel (``_kernels.run_search``) over search state that
the pass owns as plain Python lists: g, the closed set, the parent tree,
the heap, the pops and the tied edges. The tie check reads
them after the kernel returns; the tight edges it walks are the parent
edges and the ties the kernel recorded, so its memory grows with the
route's backward cone, not with the graph.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ._kernels import CORRUPT, EXHAUSTED, FOUND, run_search
from .estimation import EstimationCache, Metrics
from .graph import Path, Problem

__all__ = ["SearchResult", "SearchTree", "beauty", "beauty_ps", "ei_ucs"]


@dataclass(frozen=True)
class SearchTree:
    """Parent pointers produced by a search, enough to rebuild any path."""

    start: int
    parent_vertex: Sequence[int]
    parent_edge: Sequence[int]

    def trace(self, vertex: int) -> Path:
        """Walk parents back to the start; empty path if vertex is the start."""
        edges = []
        v = vertex
        while self.parent_edge[v] >= 0:
            edges.append(int(self.parent_edge[v]))
            v = int(self.parent_vertex[v])
        if v != self.start:
            raise ValueError(f"vertex {vertex} was not reached from {self.start}")
        edges.reverse()
        return Path(tuple(edges), vertex)


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


class _Pass:
    """One kernel pass whose search state (g, closed, heap, tree) we own.

    The state is plain lists. Owning it lets a pass be resumed to drain a
    tie at its goal key and lets the certification step read the closed
    set afterwards.
    """

    def __init__(self, problem, cache, l_est, l_prune, eager):
        n = problem.graph.vertex_count
        self.problem = problem
        self.cache = cache
        self.arr = problem.graph.arrays()
        self.thresholds = (float(l_est), float(l_prune), bool(eager))
        self.g = [math.inf] * n
        self.closed = [False] * n
        self.parent_vertex = [-1] * n
        self.parent_edge = [-1] * n
        self.heap: list[tuple[float, int, int]] = []  # (key, seq, vertex)
        self.seq = 0
        self._pops: list[tuple[int, float]] = []
        self.ties: list[tuple[int, int, int]] = []  # (head, tail, edge)

    def run(self, drain_key: float | None = None) -> tuple[int, int]:
        """Search to the first goal pop, or drain every entry keyed <= drain_key."""
        cache = self.cache
        l_est, l_prune, eager = self.thresholds
        tw_before = cache._tw
        status, vertex, self.seq = run_search(
            self.arr,
            cache,
            self.problem.start,
            self.problem.goals,
            l_est,
            l_prune,
            eager,
            self.g,
            self.closed,
            self.parent_vertex,
            self.parent_edge,
            self.heap,
            self._pops,
            self.ties,
            self.seq,
            None if drain_key is None else float(drain_key),
        )
        if status == CORRUPT:
            raise RuntimeError(
                f"closed vertex {vertex} improved during search; "
                "edge bounds are inconsistent (negative or non-nested?)"
            )
        cache.sleep_for(cache._tw - tw_before)
        return status, vertex

    @property
    def pops(self) -> tuple[tuple[int, float], ...]:
        return tuple(self._pops)

    @property
    def tree(self) -> SearchTree:
        return SearchTree(self.problem.start, self.parent_vertex, self.parent_edge)


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
            prev = cache.state(eid).tightest_lower
            new = cache.apply_final(eid)
            l_cur += new - prev
    return (not l_cur > l_under), l_under, l_cur


def _tight_route(
    run: _Pass, k: float, ties_into: dict[int, list[tuple[int, int]]], dead: set[int]
) -> Path | None:
    """A start-to-goal route through tight edges of the closed set, or None.

    An edge (u, h) is tight when u is closed, g[h] <= k and g[u] plus the
    edge's tightest lower bound equals g[h], the very float sum the kernel
    stores. Routes end at a goal with g == k and avoid the dead edges. The
    route is found backwards from the goals, so only vertices that reach a
    goal through tight edges are visited.

    A tight edge into h is either h's parent edge or one the kernel
    recorded as a tie into h: any other edge examined from a closed vertex
    lost to a strictly smaller bound or was pruned above every recorded
    one, and neither bounds nor g can move back. So the candidates are
    those, tested again here (post-search tightening may have raised a
    parent edge), in ascending tail and then edge order. Bounds are never
    negative, so every vertex the walk reaches has g <= k.
    """
    start, g, closed = run.problem.start, run.g, run.closed
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
        into = ties_into.get(v, [])
        if run.parent_edge[v] >= 0:
            into = into + [(run.parent_vertex[v], run.parent_edge[v])]
        for u, eid in sorted(into):
            tight = closed[u] and g[u] + float(tight_lower[eid]) == g[v]
            if tight and u not in seen and eid not in dead:
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
    ties_into: dict[int, list[tuple[int, int]]] = {}
    for h, u, eid in run.ties:
        ties_into.setdefault(h, []).append((u, eid))
    dead: set[int] = set()
    while (route := _tight_route(run, k, ties_into, dead)) is not None:
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
    before = cache.snapshot_metrics()
    run = _Pass(problem, cache, l_est, l_prune, eager)
    status, goal_v = run.run()
    if status == EXHAUSTED:
        return SearchResult(
            None, False, math.inf, math.inf, cache.snapshot_metrics() - before, run.pops
        )
    assert status == FOUND
    path = run.tree.trace(goal_v)
    k = run.g[goal_v]
    opt, l_under, l_over = beauty_ps(path, k, cache)
    if not opt and not eager:
        # the optimum may still be tied at k: drain the tie, then look for
        # a tight route that full estimation leaves at k
        run.run(drain_key=k)
        route = _certify_tie(run, k)
        if route is not None:
            path, opt, l_over = route, True, k
    return SearchResult(
        path, opt, l_under, l_over, cache.snapshot_metrics() - before, run.pops
    )


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
    shared cache to reuse estimation work across calls.
    """
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
