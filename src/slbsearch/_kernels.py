"""The search kernel: lazy or eager best-first search over flat arrays.

``run_search`` is plain Python. The frontier is a ``heapq`` of
``(key, seq, vertex)`` tuples; ``seq`` is a unique insertion counter, so
entries with equal keys pop in FIFO order. The graph arrays and the
estimation cache stay numpy and are read and written through
``memoryview``, which copies nothing and yields native ints, floats and
bools. The per-pass search state (g, closed, parent tree, heap, pops and
ties) is caller-owned Python lists, so a pass can be resumed to drain a
tie and its closed set read afterwards.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

# run_search status codes
FOUND = 0
EXHAUSTED = 1
CORRUPT = 2  # a closed vertex improved; impossible with valid bounds


def default_backend_name() -> str:
    """Name of the kernel that runs: always ``"numpy"``.

    There is one kernel, plain Python over numpy arrays without a JIT. The
    name remains so that benchmark results stay stamped with, and
    comparable by, the kernel that produced them.
    """
    return "numpy"


def run_search(
    arr,
    cache,
    start,
    goals,
    l_est,
    l_prune,
    eager,
    g,
    closed,
    parent_vertex,
    parent_edge,
    heap,
    pops,
    ties,
    seq,
    drain_key=None,
):
    """Best-first search on accumulated lower bounds.

    Lazy mode (eager=False): while a successor's tentative bound still
    beats its recorded one and the edge has unapplied estimators, take one
    estimation step; previously cached work is consumed as a single free
    step, after which genuinely new estimators are invoked and charged once
    per cache lifetime. Estimation stops early once the tentative bound
    exceeds l_est. Successors are recorded only if they improve and their
    bound does not exceed l_prune; improving bounds above l_prune count as
    prunings.

    Eager mode: every examined edge is fully estimated up front and no
    estimation cutoff applies (the baseline behavior).

    arr is the graph's GraphArrays and cache its EstimationCache; the
    cache's counters and simulated estimation time are advanced in place.
    goals is a set of vertices. The caller owns the lists g (inf), closed
    (False) and the parent tree (-1), plus the heap, pops and ties lists and
    the insertion counter seq, which persist between calls. A first call
    (drain_key None) pushes the start and returns at the first goal pop. A
    later call with a drain_key resumes the same frontier and pops every
    entry whose key is at most drain_key, expanding non-goal vertices as
    usual; goals are recorded as pops but never expanded.

    Returns (status, vertex, seq): FOUND with the goal, EXHAUSTED when the
    heap runs out (or, draining, its top key passes drain_key), CORRUPT
    with the closed vertex that improved; seq is the counter to resume
    with. Every pop is appended to pops as (vertex, key), and every edge
    whose tentative bound ties its head's recorded one is appended to ties
    as (head, tail, edge): with the parent tree these are the only edges
    that can end a pass tight (see ``search._tight_route``).
    """
    indptr = memoryview(arr.indptr)
    succ_vertex = memoryview(arr.succ_vertex)
    succ_edge = memoryview(arr.succ_edge)
    est_offsets = memoryview(arr.est_offsets)
    est_lower = memoryview(arr.est_lower)
    est_upper = memoryview(arr.est_upper)
    est_time = memoryview(arr.est_time)
    next_index = memoryview(cache.next_index)
    tight_lower = memoryview(cache.tightest_lower)
    tight_upper = memoryview(cache.tightest_upper)
    invoked = memoryview(cache.invoked)
    layer_counts = memoryview(cache.layer_counts)
    counters = cache._counters
    expansions, evaluations, prunings = counters
    tw = cache._tw  # summed in charge order, as a running total
    record_pop = pops.append
    record_tie = ties.append
    drain = drain_key is not None
    if eager:
        l_est = math.inf
    if not drain:
        g[start] = 0.0
        heappush(heap, (0.0, seq, start))
        seq += 1
    status = EXHAUSTED
    found = -1
    while heap:
        if drain and heap[0][0] > drain_key:
            break
        key, _, v = heappop(heap)
        if closed[v] or key != g[v]:
            continue  # stale entry superseded by a better key
        record_pop((v, key))
        if v in goals:
            if drain:
                continue
            status = FOUND
            found = v
            break
        closed[v] = True
        expansions += 1
        for ptr in range(indptr[v], indptr[v + 1]):
            s = succ_vertex[ptr]
            eid = succ_edge[ptr]
            evaluations += 1
            base = est_offsets[eid]
            k_e = est_offsets[eid + 1] - base
            g_s = g[s]
            # eager: run the sequence to its end; lazy: stop once the
            # bound no longer beats g[s] or passes l_est
            gt = key
            pos = 0
            while pos < k_e and (eager or gt < g_s):
                layer = next_index[eid]
                if pos < layer:
                    pos = layer  # cached work, consumed as one free step
                else:
                    flat = base + layer
                    if not invoked[flat]:
                        invoked[flat] = True
                        layer_counts[layer] += 1
                        tw += est_time[flat]
                    if est_lower[flat] > tight_lower[eid]:
                        tight_lower[eid] = est_lower[flat]
                    if est_upper[flat] < tight_upper[eid]:
                        tight_upper[eid] = est_upper[flat]
                    pos = layer + 1
                    next_index[eid] = pos
                gt = key + tight_lower[eid]
                if gt > l_est:
                    break
            if gt < g_s:
                if closed[s]:
                    status = CORRUPT
                    found = s
                    break
                if gt <= l_prune:
                    g[s] = gt
                    parent_vertex[s] = v
                    parent_edge[s] = eid
                    heappush(heap, (gt, seq, s))
                    seq += 1
                else:
                    prunings += 1
            elif gt == g_s:
                record_tie((s, v, eid))
        if status == CORRUPT:
            break
    counters[:] = expansions, evaluations, prunings
    cache._tw = tw
    return status, found, seq
