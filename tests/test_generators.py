import hashlib
import tracemalloc

import numpy as np
import pytest

from slbsearch import (
    WeightedDigraph,
    a_beauty,
    gen_grid_graph,
    gen_random_graph,
    oracle_enumerate,
    oracle_lstar,
    synth_estimators,
)
from slbsearch import generators
from slbsearch.generators import _BLOCK_DRAWS


def dense_random_graph(n, edge_prob, cost_range, rng_seed):
    """gen_random_graph as first written: two dense n x n draws and a double
    loop over the forward pairs. The row-block generator must match it."""
    rng = np.random.default_rng(rng_seed)
    keep = rng.random((n, n)) < edge_prob
    costs = rng.integers(cost_range[0], cost_range[1] + 1, size=(n, n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if keep[i, j]:
                edges.append((i, j, int(costs[i, j])))
    return WeightedDigraph(n, 0, (n - 1,), *columns(edges))


def loop_grid_graph(rows, cols, cost_range, rng_seed):
    """gen_grid_graph as first written: a loop over the cells, each cell's
    right edge before its down edge. The masked generator must match it."""
    rng = np.random.default_rng(rng_seed)
    costs = rng.integers(cost_range[0], cost_range[1] + 1, size=(rows, cols, 2))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, int(costs[r, c, 0])))
            if r + 1 < rows:
                edges.append((v, v + cols, int(costs[r, c, 1])))
    n = rows * cols
    return WeightedDigraph(n, 0, (n - 1,), *columns(edges))


def columns(edges):
    """The tail, head and cost columns of a list of (tail, head, cost) triples."""
    return tuple(zip(*edges)) if edges else ((), (), ())


def assert_python_int_columns(wg):
    # a numpy int64 cost would make synth's cost * f wrap silently
    for key in ("tail", "head", "cost"):
        column = getattr(wg, key)
        assert type(column) is tuple, key
        assert all(type(x) is int for x in column), key


class TestRandomGraph:
    # block_draws: _BLOCK_DRAWS for the case, None for the default; 1024 is
    # 4 rows of n=256, 3 of n=257 and 1 of n=513, so those cases cross many
    # block edges, and 256 is shorter than a row of n=300
    @pytest.mark.parametrize(
        "n,edge_prob,cost_range,seed,block_draws",
        [(2, 0.5, (1, 9), 4, None), (600, 0.01, (1, 20), 3, None), (300, 1.0, (1, 5), 1, None),
         (300, 0.05, (1, 2**40), 2, 1024), (256, 0.05, (1, 20), 5, 1024),
         (257, 0.05, (1, 20), 6, 1024), (513, 0.02, (1, 20), 7, 1024),
         (300, 1e-12, (1, 9), 8, None), (300, 0.05, (1, 2**31 + 1), 9, 1024),
         (300, 0.05, (1, 20), 10, 256)],
        ids=["two-vertices", "partial-last-block", "complete", "cost-beyond-32-bits",
             "one-full-block", "one-row-past-a-block", "one-row-past-two-blocks",
             "no-pair-kept", "cost-with-many-rejections", "row-longer-than-a-block"],
    )
    def test_matches_dense_draws(self, monkeypatch, n, edge_prob, cost_range, seed,
                                 block_draws):
        if block_draws is not None:
            monkeypatch.setattr(generators, "_BLOCK_DRAWS", block_draws)
        wg = gen_random_graph(n, edge_prob, cost_range, seed)
        assert wg == dense_random_graph(n, edge_prob, cost_range, seed)
        assert_python_int_columns(wg)
        if edge_prob < 1e-9:  # the no-pair-kept case must really keep none
            assert wg.edges == ()

    def test_memory_is_not_quadratic_on_sparse_graphs(self):
        gen_random_graph(64, 0.5, (1, 20), 0)  # a first call's one-time allocations come first
        for n, edge_prob in ((2000, 0.002), (6000, 0.0005)):
            tracemalloc.start()
            try:
                gen_random_graph(n, edge_prob, (1, 20), 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block of 8-byte draws is at most 8 * _BLOCK_DRAWS bytes, whatever
            # n is; each block, of uniforms or of costs, must be freed before the
            # next is drawn
            assert peak < 1.5 * 8 * _BLOCK_DRAWS, n

    @pytest.mark.parametrize(
        "n,edge_prob,seed,digest",
        [
            (5000, 0.002, 0, "b2dab5e74bdf555bf2e16006dc2c875cb97735fed665587e98d95ba71f8b1b90"),
            (5000, 0.002, 1, "fbbdad2dbbacf35b6af607a9ff4844de3231cc012d8d30e82911939225f51d49"),
            (200, 0.05, 424242, "16543d5586b442f7125111c671b811a0297c4994d8a58187947a4d86cf4c15b9"),
        ],
        ids=["benchmark-seed-0", "benchmark-seed-1", "trend-suite"],
    )
    def test_pinned_digests(self, n, edge_prob, seed, digest):
        # sha256 of repr(edges), recorded with the generator that drew all
        # n^2 uniforms, for the benchmark's and the trend suite's graphs
        wg = gen_random_graph(n, edge_prob, (1, 20), seed)
        assert hashlib.sha256(repr(wg.edges).encode()).hexdigest() == digest

    def test_complete_two_vertices(self):
        wg = gen_random_graph(2, 1.0, (1, 1), rng_seed=42)
        assert wg.edges == ((0, 1, 1),)
        assert wg.start == 0 and wg.goals == (1,)

    def test_determinism(self):
        a = gen_random_graph(30, 0.2, (1, 20), rng_seed=7)
        b = gen_random_graph(30, 0.2, (1, 20), rng_seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_random_graph(30, 0.2, (1, 20), rng_seed=7)
        b = gen_random_graph(30, 0.2, (1, 20), rng_seed=8)
        assert a != b

    def test_costs_within_range(self):
        wg = gen_random_graph(25, 0.5, (3, 9), rng_seed=1)
        assert wg.edges
        assert all(3 <= c <= 9 for _, _, c in wg.edges)

    def test_edges_are_forward_only(self):
        wg = gen_random_graph(20, 0.4, (1, 5), rng_seed=3)
        assert all(t < h for t, h, _ in wg.edges)

    def test_oracles_agree_after_synthesis(self):
        wg = gen_random_graph(12, 0.3, (1, 20), rng_seed=7)
        problem = synth_estimators(wg, seed=0)
        assert oracle_lstar(problem) == oracle_enumerate(problem)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            gen_random_graph(1, 0.5, (1, 5), 0)
        with pytest.raises(ValueError):
            gen_random_graph(5, 0.0, (1, 5), 0)
        with pytest.raises(ValueError):
            gen_random_graph(5, 0.5, (0, 5), 0)
        with pytest.raises(ValueError):
            gen_random_graph(5, 0.5, (6, 5), 0)
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            gen_random_graph(5, 0.5, (1, 5), -1)
        with pytest.raises(ValueError, match="must fit int64"):
            gen_random_graph(5, 0.5, (1, 2**63), 0)


class TestGridGraph:
    @pytest.mark.parametrize(
        "rows,cols,cost_range,seed",
        [(1, 2, (1, 9), 0), (2, 1, (1, 9), 1), (3, 4, (1, 9), 5), (7, 5, (1, 2**40), 2),
         (150, 150, (1, 20), 12)],
        ids=["1x2", "2x1", "3x4", "7x5-cost-beyond-32-bits", "150x150"],
    )
    def test_matches_cell_loop(self, rows, cols, cost_range, seed):
        wg = gen_grid_graph(rows, cols, cost_range, seed)
        assert wg == loop_grid_graph(rows, cols, cost_range, seed)
        assert_python_int_columns(wg)

    def test_single_pair(self):
        wg = gen_grid_graph(1, 2, (5, 5), rng_seed=0)
        assert wg.edges == ((0, 1, 5),)

    def test_single_pair_after_synthesis(self):
        wg = gen_grid_graph(1, 2, (5, 5), rng_seed=0)
        problem = synth_estimators(wg, seed=0)
        # cost 5, seed 0: multipliers (2, 4, 5), so the one path resolves
        # to 5 * 5
        assert oracle_lstar(problem) == 25.0

    def test_determinism(self):
        a = gen_grid_graph(3, 3, (1, 9), rng_seed=0)
        b = gen_grid_graph(3, 3, (1, 9), rng_seed=0)
        assert a == b

    def test_edge_structure(self):
        rows, cols = 3, 4
        wg = gen_grid_graph(rows, cols, (1, 9), rng_seed=5)
        # right edges per row: cols-1; down edges per column: rows-1
        assert len(wg.edges) == rows * (cols - 1) + cols * (rows - 1)
        assert wg.start == 0
        assert wg.goals == (rows * cols - 1,)
        for t, h, _ in wg.edges:
            assert h == t + 1 or h == t + cols

    def test_anytime_matches_oracle(self):
        wg = gen_grid_graph(3, 3, (1, 9), rng_seed=0)
        problem = synth_estimators(wg, seed=0)
        result = a_beauty(problem)
        assert result.l_star == oracle_lstar(problem)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            gen_grid_graph(1, 1, (1, 5), 0)
        with pytest.raises(ValueError):
            gen_grid_graph(0, 3, (1, 5), 0)
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            gen_grid_graph(2, 3, (1, 5), -2)
