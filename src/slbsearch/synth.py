"""Turn a plain weighted digraph into an estimated one, deterministically.

Each edge of cost c gets a three-estimator sequence picked from a fixed
table of multiplier triples (f1, f2, f3): lower bounds c*f1 < c*f2 < c*f3,
all upper bounds c*f3, simulated prices 1, 10, 100. The triple is chosen by
the hash (c + seed) mod 9, so instances are reproducible and different
seeds reshuffle which edges are cheap to tighten. The final lower bound
meets the upper bound exactly, so full estimation resolves each edge to the
scalar c*f3, which also becomes the edge's true cost.
"""

from __future__ import annotations

import numpy as np

from .generators import WeightedDigraph
from .graph import EstimatedDigraph, Problem, sum_overflow

__all__ = ["DEFAULT_MULTIPLIER_TABLE", "DEFAULT_TIME_COSTS", "synth_estimators"]

DEFAULT_MULTIPLIER_TABLE = (
    (1, 2, 3),
    (2, 3, 4),
    (3, 4, 5),
    (1, 3, 4),
    (2, 4, 5),
    (3, 5, 6),
    (1, 4, 5),
    (2, 5, 6),
    (3, 6, 7),
)

DEFAULT_TIME_COSTS = (1.0, 10.0, 100.0)


def pick_multipliers(cost: int, seed: int):
    """Column for one edge: hash h = (cost + seed) mod 9 selects column h,
    with h = 0 falling back to the first column."""
    h = (cost + seed) % 9
    return DEFAULT_MULTIPLIER_TABLE[h - 1] if h >= 1 else DEFAULT_MULTIPLIER_TABLE[0]


def _bad_edge(weighted: WeightedDigraph, e: int, what: str) -> ValueError:
    return ValueError(f"edge ({weighted.tail[e]}, {weighted.head[e]}): {what}")


def synth_estimators(weighted: WeightedDigraph, seed: int) -> Problem:
    """Estimated problem over the weighted graph's vertices, start and goals.

    The bounds are worked out once per distinct cost, with Python's exact
    integer products, and looked up per edge. Raises ValueError naming the
    first edge whose cost is below 1 or whose bounds do not fit a float, or
    where the final lower bounds' running sum passes the largest float.
    """
    m = len(weighted.cost)
    index = {c: row for row, c in enumerate(dict.fromkeys(weighted.cost))}  # in order of first use
    table = []  # the lower bounds of each distinct cost; the last is also its upper bound
    first = weighted.cost.index  # costs go in order of first use, so this is the first bad edge
    for cost in index:
        if cost < 1:
            raise _bad_edge(weighted, first(cost), "cost must be a positive integer")
        try:
            table.append([float(cost * f) for f in pick_multipliers(cost, seed)])
        except OverflowError:
            raise _bad_edge(weighted, first(cost), "cost too large for a float") from None
    k = len(DEFAULT_TIME_COSTS)
    rows = np.fromiter(map(index.get, weighted.cost), np.int64, m)
    lowers = np.array(table, np.float64).reshape(-1, k)[rows]
    top = lowers[:, -1]
    e = sum_overflow(top)
    if e is not None:
        raise _bad_edge(weighted, e, "final lower bounds sum past the largest float here")
    graph = EstimatedDigraph.from_arrays(
        weighted.vertex_count, weighted.tail, weighted.head, np.arange(0, k * m + 1, k),
        lowers.ravel(), np.repeat(top, k), np.tile(DEFAULT_TIME_COSTS, m),
        top, np.ones(m, np.bool_),
    )
    return Problem(graph, weighted.start, frozenset(weighted.goals))
