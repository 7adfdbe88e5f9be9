"""Shared estimation state and run metrics.

An EstimationCache records, per edge, which prefix of the estimator
sequence has been applied and the tightest lower bound so far; the
tightest upper bound is derived from the invoked layers. Searches thread a
cache through several runs so work is never repeated: each estimator's
time_cost is charged at most once per cache lifetime, and re-encounters
consume the saved result for free.

Metrics snapshots are immutable; subtracting two snapshots gives the cost
of whatever ran in between.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .graph import EstimatedDigraph

__all__ = ["Metrics", "EstimationCache", "write_metrics_csv"]


@dataclass(frozen=True)
class Metrics:
    """Simulated-cost accounting for a run (or a delta between snapshots).

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

    def __sub__(self, other: "Metrics") -> "Metrics":
        k = max(len(self.layer_invocations), len(other.layer_invocations))
        mine = self.layer_invocations + (0,) * (k - len(self.layer_invocations))
        theirs = other.layer_invocations + (0,) * (k - len(other.layer_invocations))
        return Metrics(
            layer_invocations=tuple(a - b for a, b in zip(mine, theirs)),
            expansions=self.expansions - other.expansions,
            evaluations=self.evaluations - other.evaluations,
            prunings=self.prunings - other.prunings,
            estimation_time=self.estimation_time - other.estimation_time,
        )


def write_metrics_csv(path, head, tail, rows) -> None:
    """Write metrics rows as CSV, one schema for every file the package writes.

    Each row is (head values, Metrics, tail values). The columns are the
    head names, w_1..w_K (invocations per estimator layer, K the deepest
    sequence among the rows and at least 3), expansions, evaluations,
    prunings, T_w, T_v, then the tail names.
    """
    k = max([3] + [len(m.layer_invocations) for _, m, _ in rows])
    layers = [f"w_{i}" for i in range(1, k + 1)]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(
            [*head, *layers, "expansions", "evaluations", "prunings", "T_w", "T_v", *tail]
        )
        for lead, m, trail in rows:
            w = m.layer_invocations + (0,) * (k - len(m.layer_invocations))
            counts = (m.expansions, m.evaluations, m.prunings)
            out.writerow([*lead, *w, *counts, m.estimation_time, m.search_time, *trail])


class EstimationCache:
    """Mutable estimation state plus metric counters for one graph.

    Per edge it stores next_index (applied sequence positions) and
    tightest_lower; per estimator, whether it was invoked; per layer, how
    many invocations were charged. A layer is applied at most once and only
    while not yet invoked, so the applied layers are exactly the invoked
    ones, and the tightest upper bound is derived from them on each read of
    the read-only ``tightest_upper`` rather than stored.

    Not safe for concurrent mutation; give each worker its own cache.
    """

    def __init__(self, graph: EstimatedDigraph):
        arr = graph.arrays()
        self.graph = graph
        self._arr = arr
        m = len(graph.tail)
        self.next_index = np.zeros(m, np.int64)
        self.tightest_lower = np.zeros(m)
        self.invoked = np.zeros(int(arr.est_offsets[-1]), np.bool_)
        self.layer_counts = np.zeros(arr.k_max, np.int64)
        self._tw = 0.0  # simulated estimation time, summed in charge order
        self._counters = [0, 0, 0]  # expansions, evaluations, prunings

    # -- estimation steps ---------------------------------------------------

    def sequence_length(self, eid: int) -> int:
        return int(self._arr.est_offsets[eid + 1] - self._arr.est_offsets[eid])

    def applied_count(self, eid: int) -> int:
        return int(self.next_index[eid])

    def has_remaining(self, eid: int) -> bool:
        return int(self.next_index[eid]) < self.sequence_length(eid)

    def _apply(self, eid: int, layer: int) -> float:
        """Apply sequence position layer (0-based) and mark the edge consumed
        up to it; charge its time_cost once per cache lifetime."""
        flat = int(self._arr.est_offsets[eid]) + layer
        if not self.invoked[flat]:
            self.invoked[flat] = True
            self.layer_counts[layer] += 1
            self._tw += float(self._arr.est_time[flat])
        low = max(float(self.tightest_lower[eid]), float(self._arr.est_lower[flat]))
        self.tightest_lower[eid] = low
        self.next_index[eid] = layer + 1
        return low

    def apply_next(self, eid: int) -> tuple[float, int]:
        """Apply the next unapplied estimator; return (tightest lower, layer)."""
        if not self.has_remaining(eid):
            raise ValueError(f"edge {eid}: estimator sequence exhausted")
        layer = int(self.next_index[eid])
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
        afresh on each read by folding the upper bounds of the edge's invoked
        layers in layer order, keeping a bound only when it is strictly below
        the fold; writing to it changes nothing, so it is locked."""
        offsets, upper = self._arr.est_offsets, self._arr.est_upper
        out = np.full(len(self.next_index), math.inf)
        for eid in np.flatnonzero(self.next_index).tolist():
            a, b = int(offsets[eid]), int(offsets[eid + 1])
            up = math.inf
            for bound, hit in zip(upper[a:b].tolist(), self.invoked[a:b].tolist()):
                if hit and bound < up:
                    up = bound
            out[eid] = up
        out.flags.writeable = False
        return out

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
