import pytest

from slbsearch import (
    DEFAULT_MULTIPLIER_TABLE,
    WeightedDigraph,
    synth_estimators,
    validate_graph,
    weighted_from_json,
    weighted_to_json,
)
from slbsearch.synth import pick_multipliers


def single_edge(cost):
    return WeightedDigraph(2, 0, (1,), (0,), (1,), (cost,))


class TestHashMapping:
    def test_hash_one_selects_first_column(self):
        assert pick_multipliers(1, 0) == (1, 2, 3)

    def test_hash_five_selects_fifth_column(self):
        assert pick_multipliers(2, 3) == (2, 4, 5)

    def test_hash_zero_wraps_to_first_column(self):
        assert pick_multipliers(9, 0) == (1, 2, 3)

    def test_hash_depends_on_cost_plus_seed_only(self):
        assert pick_multipliers(4, 3) == pick_multipliers(3, 4) == pick_multipliers(7, 0)

    def test_every_column_strictly_increasing(self):
        for col in DEFAULT_MULTIPLIER_TABLE:
            assert col[0] >= 1
            assert col[0] < col[1] < col[2]


class TestSynthEstimators:
    def test_lowers_scale_with_cost(self):
        problem = synth_estimators(single_edge(1), seed=0)
        specs = problem.graph.edges[0].estimators
        assert [s.lower for s in specs] == [1.0, 2.0, 3.0]
        assert [s.upper for s in specs] == [3.0, 3.0, 3.0]
        assert [s.time_cost for s in specs] == [1.0, 10.0, 100.0]
        assert problem.graph.edges[0].true_cost == 3.0

    def test_seed_shifts_the_column(self):
        problem = synth_estimators(single_edge(2), seed=3)
        specs = problem.graph.edges[0].estimators
        assert [s.lower for s in specs] == [4.0, 8.0, 10.0]
        assert problem.graph.edges[0].true_cost == 10.0

    def test_determinism(self):
        wg = WeightedDigraph(3, 0, (2,), (0, 1, 0), (1, 2, 2), (4, 7, 13))
        a = synth_estimators(wg, seed=5)
        b = synth_estimators(wg, seed=5)
        assert list(a.graph.edges) == list(b.graph.edges)

    def test_same_cost_same_sequence_across_edges(self):
        wg = WeightedDigraph(4, 0, (3,), (0, 1, 0, 2), (1, 3, 2, 3), (6, 6, 6, 6))
        problem = synth_estimators(wg, seed=2)
        seqs = {e.estimators for e in problem.graph.edges}
        assert len(seqs) == 1

    def test_output_is_always_valid(self):
        wg = WeightedDigraph(5, 0, (4,), (0, 1, 2, 3), (1, 2, 3, 4), (1, 5, 9, 20))
        for seed in range(9):
            problem = synth_estimators(wg, seed)
            assert validate_graph(problem.graph) == []

    def test_keeps_start_and_goals(self):
        wg = WeightedDigraph(4, 1, (2, 3), (1, 1), (2, 3), (5, 5))
        problem = synth_estimators(wg, seed=0)
        assert problem.start == 1
        assert problem.goals == frozenset({2, 3})

    def test_non_positive_cost_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\): cost must be a positive integer"):
            synth_estimators(single_edge(0), seed=0)

    @pytest.mark.parametrize("cost", [2**53 + 1, 2**70])
    def test_bounds_are_exact_integer_products(self, cost):
        # the weighted loader accepts these; float(cost) * f would round twice
        assert weighted_from_json(weighted_to_json(single_edge(cost))) == single_edge(cost)
        for seed in range(9):
            mults = pick_multipliers(cost, seed)
            e = synth_estimators(single_edge(cost), seed).graph.edges[0]
            assert [s.lower for s in e.estimators] == [float(cost * f) for f in mults]
            assert [s.upper for s in e.estimators] == [float(cost * mults[-1])] * 3
            assert e.true_cost == float(cost * mults[-1])

    def test_cost_beyond_float_rejected(self):
        with pytest.raises(ValueError, match="too large for a float"):
            synth_estimators(single_edge(10**400), seed=0)

    def test_first_edge_with_a_bad_cost_is_named(self):
        # 10**400 first appears on edge (1, 2), after a good cost on (0, 1)
        wg = WeightedDigraph(3, 0, (2,), (0, 1, 0), (1, 2, 2), (5, 10**400, 10**400))
        with pytest.raises(ValueError, match=r"^edge \(1, 2\): cost too large for a float$"):
            synth_estimators(wg, seed=0)

    def test_final_bounds_summing_past_float_name_the_edge(self):
        # each final bound fits a float; seed 1 picks (3, 4, 5), so the two
        # 10**308 bounds sum past the largest float at edge (1, 2)
        wg = WeightedDigraph(3, 0, (2,), (0, 1), (1, 2), (2 * 10**307,) * 2)
        with pytest.raises(ValueError, match=r"^edge \(1, 2\): final lower bounds sum past "):
            synth_estimators(wg, seed=1)
        # seed 0 picks (2, 3, 4): 1.6e308 fits, and the problem is valid
        assert validate_graph(synth_estimators(wg, seed=0).graph) == []

