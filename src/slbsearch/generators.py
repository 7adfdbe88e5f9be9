"""Reproducible weighted-digraph instance generators.

A generator draws its edges as numpy arrays and returns them as the
columns a WeightedDigraph holds, converted once to tuples of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WeightedDigraph", "gen_random_graph", "gen_grid_graph"]


@dataclass(frozen=True)
class WeightedDigraph:
    """Plain digraph with positive integer edge costs, pre-estimation.

    Stored as the columns of its file: edge e runs from ``tail[e]`` to
    ``head[e]`` at cost ``cost[e]``. Each column is a tuple of Python ints,
    so ``==`` compares two graphs and synth's products of a cost are exact
    (a numpy int64 cost would wrap). ``edges`` builds the (tail, head, cost)
    triples from the columns on each read.
    """

    vertex_count: int
    start: int
    goals: tuple[int, ...]
    tail: tuple[int, ...]
    head: tuple[int, ...]
    cost: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.tail, self.head, self.cost))


# Draws of the n x n pair matrix drawn at a time by gen_random_graph, in whole
# rows: 2 MiB of float64 uniforms or int64 costs, or one row when it is longer.
_BLOCK_DRAWS = 2**18
_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_cost_range(cost_range) -> tuple[int, int]:
    lo, hi = int(cost_range[0]), int(cost_range[1])
    if not 1 <= lo <= hi:
        raise ValueError(f"cost range [{lo}, {hi}] must satisfy 1 <= lo <= hi")
    if hi > _INT64_MAX:
        raise ValueError(f"cost range [{lo}, {hi}] must fit int64")
    return lo, hi


def _rng(rng_seed) -> np.random.Generator:
    if not isinstance(rng_seed, (int, np.integer)) or rng_seed < 0:
        raise ValueError(f"rng_seed must be a non-negative integer, got {rng_seed!r}")
    return np.random.default_rng(rng_seed)


def gen_random_graph(n: int, edge_prob: float, cost_range, rng_seed: int) -> WeightedDigraph:
    """Random layered-order digraph: each forward pair (i, j), i < j, gets an
    edge with probability edge_prob and a uniform integer cost. Start is 0,
    the single goal is n - 1. Fully deterministic in rng_seed.

    The stream is that of one n x n matrix of uniforms (pair (i, j) is kept
    when its uniform is below edge_prob) followed by one n x n matrix of
    costs, both in row-major order. Each uniform takes exactly one 64-bit
    PCG64 output, so the i + 1 uniforms of row i's columns 0..i, which can
    never hold an edge, are skipped with bit_generator.advance (O(log k)
    per skip) rather than drawn: only the n(n - 1)/2 forward uniforms are
    generated, and the generator ends where the dense draw leaves it. The
    costs cannot be skipped that way: integers uses Lemire rejection, so
    the number of outputs one cost takes is not fixed, and all n^2 are
    drawn. Both phases go in blocks of whole rows, one block at a time: each
    block is freed before the next is drawn, so memory is one block of at
    most _BLOCK_DRAWS draws (or one row, when a row is longer) plus the kept
    edges, whatever n is.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge_prob must be in (0, 1]")
    lo, hi = _check_cost_range(cost_range)
    rng = _rng(rng_seed)
    advance = rng.bit_generator.advance
    block_rows = max(1, _BLOCK_DRAWS // n)
    starts = range(0, n, block_rows)
    forward = np.empty(block_rows * (n - 1))  # one block's forward uniforms
    kept = []  # row-major positions i * n + j of the kept pairs
    for r0 in starts:
        rows = np.arange(r0, min(r0 + block_rows, n))
        # row i's forward uniforms (columns i + 1..n - 1) fill forward up to ends[i - r0]
        ends = np.cumsum(n - 1 - rows)
        a = 0
        for i, b in zip(rows.tolist(), ends.tolist()):
            advance(i + 1)
            rng.random(out=forward[a:b])
            a = b
        idx = np.flatnonzero(forward[:a] < edge_prob)
        r = np.searchsorted(ends, idx, side="right")
        # k places before the end of row i here is k places before the end
        # of dense row i, at position (i + 1) * n
        kept.append((rows[r] + 1) * n - (ends[r] - idx))
    del forward  # free a block of uniforms before a block of costs is drawn
    flat = np.concatenate(kept)
    costs = np.empty(len(flat), dtype=np.int64)
    for r0 in starts:
        first, end = r0 * n, min(r0 + block_rows, n) * n
        block = rng.integers(lo, hi + 1, size=end - first)
        a, b = np.searchsorted(flat, (first, end))
        costs[a:b] = block[flat[a:b] - first]
        del block  # free this block before the next one is drawn
    tails, heads = np.divmod(flat, n)
    return WeightedDigraph(n, 0, (n - 1,), tuple(tails.tolist()), tuple(heads.tolist()),
                           tuple(costs.tolist()))


def gen_grid_graph(rows: int, cols: int, cost_range, rng_seed: int) -> WeightedDigraph:
    """Directed grid: vertex r * cols + c, edges to the right and downward
    neighbors. Start is the top-left corner, goal the bottom-right. Fully
    deterministic in rng_seed. Edges come cell by cell in row-major order,
    each cell's right edge before its down edge.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid must contain at least 2 cells")
    lo, hi = _check_cost_range(cost_range)
    rng = _rng(rng_seed)
    costs = rng.integers(lo, hi + 1, size=(rows, cols, 2))  # [..., 0] right, [..., 1] down
    n = rows * cols
    v = np.arange(n).reshape(rows, cols, 1)
    keep = np.ones((rows, cols, 2), np.bool_)
    keep[:, -1, 0] = False  # the last column has no right edge
    keep[-1, :, 1] = False  # the last row has no down edge
    tails = np.broadcast_to(v, keep.shape)[keep]
    heads = (v + (1, cols))[keep]
    return WeightedDigraph(n, 0, (n - 1,), tuple(tails.tolist()), tuple(heads.tolist()),
                           tuple(costs[keep].tolist()))
