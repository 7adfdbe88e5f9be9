"""Shared estimation state and run metrics.

An EstimationCache records, per edge, which prefix of the estimator
sequence has been applied and the tightest lower bound so far; the
tightest upper bound is derived from the invoked layers. Searches thread a
cache through several runs so work is never repeated: each estimator's
time_cost is charged at most once per cache lifetime, and re-encounters
consume the saved result for free. Metrics values are immutable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .graph import EstimatedDigraph, _read_only
from .io import _write_atomic

__all__ = ["Metrics", "EstimationCache", "write_metrics_csv"]

# edges per step of EstimationCache._charge_rest, whose temporaries are a
# few arrays of one entry per charged layer: charging an eager pass over a
# 150x150 grid (~134k layers) in one step raised the peak RSS by ~2.6 MB
_CHARGE_CHUNK = 4096


@dataclass(frozen=True)
class Metrics:
    """Simulated-cost accounting for a run or a cache's lifetime so far.

    layer_invocations[i] counts genuine invocations of sequence position
    i + 1, estimation_time is the sum of their time_costs, and search_time
    charges one unit per expansion. Evaluations count successor-edge
    examinations; prunings count improving successors discarded for
    exceeding the pruning threshold.
    """

    layer_invocations: tuple[int, ...]
    expansions: int
    evaluations: int
    prunings: int
    estimation_time: float

    @property
    def invocations(self) -> int:
        return sum(self.layer_invocations)

    @property
    def search_time(self) -> float:
        return float(self.expansions)

    @property
    def total_time(self) -> float:
        return self.estimation_time + self.search_time


def write_metrics_csv(path, head, tail, rows) -> None:
    """Write metrics rows as CSV, one schema for every file the package writes.

    Each row is (head values, Metrics, tail values). The columns are the
    head names, w_1..w_K (invocations per estimator layer, K the deepest
    sequence among the rows and at least 3), expansions, evaluations,
    prunings, T_w, T_v, then the tail names. The file is written
    atomically, as the graph files are: a failed write leaves path as it was.
    """
    rows = list(rows)  # read once: a generator cannot be walked twice
    k = max([3] + [len(m.layer_invocations) for _, m, _ in rows])
    layers = [f"w_{i}" for i in range(1, k + 1)]
    buf = StringIO()
    out = csv.writer(buf)
    out.writerow([*head, *layers, "expansions", "evaluations", "prunings", "T_w", "T_v", *tail])
    for lead, m, trail in rows:
        w = m.layer_invocations + (0,) * (k - len(m.layer_invocations))
        counts = (m.expansions, m.evaluations, m.prunings)
        out.writerow([*lead, *w, *counts, m.estimation_time, m.search_time, *trail])
    _write_atomic(path, (buf.getvalue(),))


class EstimationCache:
    """Mutable estimation state plus metric counters for one graph.

    Per edge it stores next_index (applied sequence positions) and
    tightest_lower; per estimator, whether it was invoked; per layer, how
    many invocations were charged. Each is kept privately and read
    through a read-only view of its name; ``tightest_upper`` is derived
    from the invoked layers on each read. Only the estimation steps write
    them: a lazy pass's steps, ``_apply`` (``apply_next``, ``apply_final``)
    and ``_charge_rest``, for an eager pass. Invariants:

    - next_index only grows and apply_final exhausts the edge it jumps, so
      no layer at or past next_index is invoked: each is charged at most
      once, without a test, and the applied layers are the invoked ones;
    - ``_tw`` is summed in charge order;
    - tightest_lower folds an edge's applied layers from +0.0, keeping a
      lower bound only when it is strictly greater, so it is never
      negative or NaN; only a lazy step and apply_next leave an edge with
      layers left, and the fold over a whole sequence
      ``GraphArrays.full_lower`` computes as one reduction.

    Not safe for concurrent mutation; give each worker its own cache.
    """

    def __init__(self, graph: EstimatedDigraph):
        arr = graph.arrays()
        self.graph = graph
        self._arr = arr
        m = len(graph.tail)
        self._next_index = np.zeros(m, np.int64)
        self._tightest_lower = np.zeros(m)
        self._invoked = np.zeros(int(arr.est_offsets[-1]), np.bool_)
        self._layer_counts = np.zeros(arr.k_max, np.int64)
        self.next_index = _read_only(self._next_index.view())
        self.tightest_lower = _read_only(self._tightest_lower.view())
        self.invoked = _read_only(self._invoked.view())
        self.layer_counts = _read_only(self._layer_counts.view())
        self._tw = 0.0  # simulated estimation time, summed in charge order
        self._counters = [0, 0, 0]  # expansions, evaluations, prunings

    # -- estimation steps ---------------------------------------------------

    def sequence_length(self, eid: int) -> int:
        return int(self._arr.est_offsets[eid + 1] - self._arr.est_offsets[eid])

    def has_remaining(self, eid: int) -> bool:
        return int(self._next_index[eid]) < self.sequence_length(eid)

    def _apply(self, eid: int, layer: int) -> float:
        """Apply sequence position layer (0-based), at or past next_index, and
        mark the edge consumed up to it; charge its time_cost. No layer at or
        past next_index was invoked, so the charge needs no test."""
        flat = int(self._arr.est_offsets[eid]) + layer
        self._invoked[flat] = True
        self._layer_counts[layer] += 1
        self._tw += float(self._arr.est_time[flat])
        low = max(float(self._tightest_lower[eid]), float(self._arr.est_lower[flat]))
        self._tightest_lower[eid] = low
        self._next_index[eid] = layer + 1
        return low

    def _charge_rest(self, edges) -> None:
        """Exhaust each edge in edges, the int64 buffer an eager pass filled
        in examination order with every edge it examined with layers left.

        Every layer from next_index on is charged, edge by edge, and T_w
        summed in that order by np.cumsum, which adds sequentially from the
        running total. Each edge takes its full_lower bound, exact by the
        class invariant. Chunks of _CHARGE_CHUNK edges keep the temporaries
        small.
        """
        arr = self._arr
        offsets, ends, est_time = arr.est_offsets, arr.est_offsets[1:], arr.est_time
        edges = np.frombuffer(edges, np.int64)
        tw = self._tw
        for at in range(0, len(edges), _CHARGE_CHUNK):
            eids = edges[at:at + _CHARGE_CHUNK]
            base, end = offsets[eids], ends[eids]
            k_e = end - base
            counts = k_e - self._next_index[eids]  # layers left
            upto = counts.cumsum()
            # the flat indices of the charged layers, edge by edge, in order
            flat = np.arange(upto[-1]) + np.repeat(end - upto, counts)
            self._invoked[flat] = True
            self._layer_counts += np.bincount(flat - np.repeat(base, counts), minlength=arr.k_max)
            times = est_time[flat]
            times[0] += tw  # so the cumsum's first sum is tw + the first charge
            tw = float(times.cumsum()[-1])
            self._next_index[eids] = k_e
            self._tightest_lower[eids] = arr.full_lower[eids]
        self._tw = tw

    def apply_next(self, eid: int) -> tuple[float, int]:
        """Apply the next unapplied estimator; return (tightest lower, layer)."""
        if not self.has_remaining(eid):
            raise ValueError(f"edge {eid}: estimator sequence exhausted")
        layer = int(self._next_index[eid])
        return self._apply(eid, layer), layer + 1

    def apply_final(self, eid: int) -> float:
        """Jump to the last estimator of the sequence; return tightest lower.

        Layers between the current position and the last are skipped: they
        are never invoked, never charged, and no longer applicable.
        """
        if not self.has_remaining(eid):
            raise ValueError(f"edge {eid}: estimator sequence exhausted")
        return self._apply(eid, self.sequence_length(eid) - 1)

    # -- state inspection ---------------------------------------------------

    @property
    def tightest_upper(self) -> np.ndarray:
        """Tightest upper bound per edge (inf before any estimator), built
        afresh on each read as the minimum of the upper bounds of the edge's
        invoked layers; writing to it changes nothing, so it is locked. It
        equals a fold in layer order under ==; only where invoked bounds of
        0.0 and -0.0 meet may it hold the other signed zero."""
        hits = np.where(self.invoked, self._arr.est_upper, math.inf)
        starts = self._arr.est_offsets[:-1]
        return _read_only(np.minimum.reduceat(hits, starts) if len(starts) else np.empty(0))

    def invocation_count(self) -> int:
        return int(self.invoked.sum())

    def final_layer_invocations(self) -> int:
        """How many edges have had their last (tightest) estimator invoked."""
        return int(self.invoked[self._arr.est_offsets[1:] - 1].sum())

    # -- metrics ------------------------------------------------------------

    def snapshot_metrics(self) -> Metrics:
        return Metrics(
            layer_invocations=tuple(self.layer_counts.tolist()),
            expansions=self._counters[0],
            evaluations=self._counters[1],
            prunings=self._counters[2],
            estimation_time=self._tw,
        )
