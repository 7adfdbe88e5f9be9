"""Host-speed yardstick: a fixed piece of work timed between measured calls.

On a shared host the same call can take 30% longer in one process than in
the next, and the slowdown follows the host (CPU time tracks wall time),
not the program. The yardstick is a heapq Dijkstra over a fixed random
graph held in numpy arrays, read element by element -- the same mix of
interpreter, heap and numpy-scalar work as the search kernel. It belongs
to the benchmark and never changes, so a faster program still reads
faster. Each timed call is scaled by REFERENCE_S over the median
yardstick time within WINDOW_S of the call (at least the samples just
before and just after it): the result is the call's time on a host where
one yardstick run takes REFERENCE_S. A median, because a single 10 ms
yardstick run can itself catch a hiccup.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import statistics
import time

import numpy as np

REFERENCE_S = 0.010
EVERY_S = 0.5  # at most this long between two samples around timed calls
WINDOW_S = 1.0
RUNS = 2  # yardstick runs per sample
_N = 3000
_DEGREE = 4
_SEED = 12345


def _graph():
    rng = random.Random(_SEED)
    heads, weights, indptr = [], [], [0]
    for _ in range(_N):
        for _ in range(_DEGREE):
            heads.append(rng.randrange(_N))
            weights.append(float(rng.randrange(1, 20)))
        indptr.append(len(heads))
    return np.array(indptr, np.int64), np.array(heads, np.int64), np.array(weights)


def _dijkstra(indptr, heads, weights) -> int:
    dist = np.full(len(indptr) - 1, np.inf)
    dist[0] = 0.0
    heap = [(0.0, 0, 0)]
    seq = 1
    pops = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        pops += 1
        for i in range(indptr[v], indptr[v + 1]):
            h = heads[i]
            nd = d + weights[i]
            if nd < dist[h]:
                dist[h] = nd
                heapq.heappush(heap, (nd, seq, h))
                seq += 1
    return pops


class Yardstick:
    def __init__(self):
        self._graph = _graph()
        self.times: list[float] = []  # midpoint of each sample
        self.values: list[float] = []  # seconds per yardstick run
        self._pops = _dijkstra(*self._graph)

    def sample(self) -> None:
        # a collection the measured calls made due would otherwise land here
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(RUNS):
                t0 = time.perf_counter()
                pops = _dijkstra(*self._graph)
                t1 = time.perf_counter()
                if pops != self._pops:
                    raise RuntimeError("yardstick result changed")
                self.times.append((t0 + t1) / 2)
                self.values.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] > EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median yardstick time around [t0, t1]."""
        times = self.times
        before = bisect.bisect_right(times, t0) - RUNS  # the last sample before
        after = bisect.bisect_left(times, t1) + RUNS  # the first sample after
        lo = min(bisect.bisect_left(times, t0 - WINDOW_S), max(before, 0))
        hi = max(bisect.bisect_right(times, t1 + WINDOW_S), min(after, len(times)))
        return REFERENCE_S / statistics.median(self.values[lo:hi])
