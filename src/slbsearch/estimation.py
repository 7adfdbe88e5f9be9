"""Shared estimation state and run metrics.

An EstimationCache records, per edge, which prefix of the estimator
sequence has been applied and the tightest lower bound so far; the
tightest upper bound is derived from the invoked layers. Searches thread a
cache through several runs so work is never repeated: each estimator's
time_cost is charged at most once per cache lifetime, and re-encounters
consume the saved result for free. Metrics values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import EstimatedDigraph, _read_only

__all__ = ["Metrics", "EstimationCache"]

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


class EstimationCache:
    """Mutable estimation state plus metric counters for one graph.

    Per edge it stores next_index (applied sequence positions) and
    tightest_lower; per estimator, whether it was invoked; per layer, how
    many invocations were charged. Each is kept privately and read
    through a read-only view of its name; ``tightest_upper`` is derived
    from the invoked layers on each read. The cache reads only the graph's
    layout. Its writers are ``_apply`` (``apply_next``, ``apply_final``)
    and the search pass in ``search.py``. Invariants:

    - next_index only grows and apply_final exhausts the edge it jumps, so
      no layer at or past next_index is invoked: each is charged at most
      once, and the applied layers are the invoked ones;
    - tightest_lower folds an edge's applied layers from +0.0, keeping a
      lower bound only when it is strictly greater, so it is never
      negative or NaN.

    Not safe for concurrent mutation; give each worker its own cache.
    """

    def __init__(self, graph: EstimatedDigraph):
        self.graph = graph
        m = len(graph.tail)
        self._next_index = np.zeros(m, np.int64)
        self._tightest_lower = np.zeros(m)
        self._invoked = np.zeros(len(graph.est_lower), np.bool_)
        self._layer_counts = np.zeros(graph.k_max, np.int64)
        self.next_index = _read_only(self._next_index.view())
        self.tightest_lower = _read_only(self._tightest_lower.view())
        self.invoked = _read_only(self._invoked.view())
        self.layer_counts = _read_only(self._layer_counts.view())
        self._tw = 0.0  # simulated estimation time, summed in charge order
        self._counters = [0, 0, 0]  # expansions, evaluations, prunings

    # -- estimation steps ---------------------------------------------------

    def sequence_length(self, eid: int) -> int:
        offsets = self.graph.est_offsets
        return int(offsets[eid + 1] - offsets[eid])

    def has_remaining(self, eid: int) -> bool:
        return int(self._next_index[eid]) < self.sequence_length(eid)

    def _apply(self, eid: int, layer: int) -> float:
        """Apply sequence position layer (0-based), at or past next_index, and
        mark the edge consumed up to it; charge its time_cost. No layer at or
        past next_index was invoked, so the charge needs no test."""
        graph = self.graph
        flat = int(graph.est_offsets[eid]) + layer
        self._invoked[flat] = True
        self._layer_counts[layer] += 1
        self._tw += float(graph.est_time[flat])
        low = max(float(self._tightest_lower[eid]), float(graph.est_lower[flat]))
        self._tightest_lower[eid] = low
        self._next_index[eid] = layer + 1
        return low

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
        hits = np.where(self.invoked, self.graph.est_upper, math.inf)
        starts = self.graph.est_offsets[:-1]
        return _read_only(np.minimum.reduceat(hits, starts) if len(starts) else np.empty(0))

    def invocation_count(self) -> int:
        return int(self.invoked.sum())

    def final_layer_invocations(self) -> int:
        """How many edges have had their last (tightest) estimator invoked."""
        return int(self.invoked[self.graph.est_offsets[1:] - 1].sum())

    # -- metrics ------------------------------------------------------------

    def snapshot_metrics(self) -> Metrics:
        return Metrics(
            layer_invocations=tuple(self.layer_counts.tolist()),
            expansions=self._counters[0],
            evaluations=self._counters[1],
            prunings=self._counters[2],
            estimation_time=self._tw,
        )
