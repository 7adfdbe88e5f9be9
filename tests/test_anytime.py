import csv
import math

import pytest
from conftest import (
    E01,
    E02,
    E14,
    E21,
    E23,
    E24,
    charged_layers,
    edge,
    make_closed_bracket_problem,
    make_closed_tie_problem,
    make_frontier_tie_problem,
    make_goal_tie_problem,
    make_reference_problem,
)

import slbsearch.anytime
from slbsearch import (
    EstimatedDigraph,
    EstimationCache,
    Metrics,
    Path,
    Problem,
    SearchResult,
    a_beauty,
    oracle_lstar,
    write_metrics_csv,
)


class TestAnytimeGolden:
    def test_two_iterations_to_certainty(self, kernel):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        result = a_beauty(problem, max_iterations=10, cache=cache)

        assert result.path == Path((E02, E24), 4)
        assert result.l_star == 7.0
        assert result.iterations == 2

        first, second = result.log
        assert first.path == Path((E01, E14), 4)
        assert (first.l_under, first.l_over) == (5.0, 8.0)
        assert second.path == Path((E02, E24), 4)
        assert (second.l_under, second.l_over) == (7.0, 7.0)

    def test_iteration_work_split(self, kernel):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        result = a_beauty(problem, cache=cache)
        first, second = result.log
        # pass one probes every reachable edge once and refines the found
        # path's tail edge during post-search tightening
        assert first.metrics_delta.layer_invocations == (6, 1)
        # pass two pays only for the one refinement that changes the answer
        assert second.metrics_delta.layer_invocations == (0, 1)
        assert charged_layers(cache, E02) == (1, 2)
        assert charged_layers(cache, E14) == (1, 2)
        assert charged_layers(cache, E21) == (1,)
        assert charged_layers(cache, E23) == (1,)
        assert cache.invocation_count() == 8

    def test_forced_final_iteration_certifies(self, kernel):
        problem = make_reference_problem()
        result = a_beauty(problem, max_iterations=2)
        assert result.iterations == 2
        assert result.l_star == 7.0
        assert result.log[-1].l_under == result.log[-1].l_over == 7.0

    def test_single_iteration_budget_is_exact_search(self, kernel):
        problem = make_reference_problem()
        result = a_beauty(problem, max_iterations=1)
        assert result.iterations == 1
        assert result.l_star == 7.0
        assert result.path == Path((E02, E24), 4)

    def test_forced_final_may_invoke_more_than_minimum(self, kernel):
        # a budget-2 run must certify at iteration 2 even though its
        # thresholds are looser than the converged run's
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        result = a_beauty(problem, max_iterations=2, cache=cache)
        assert result.log[-1].l_under == 7.0
        assert cache.invocation_count() >= 8


class TestBracketInvariants:
    def test_lower_bound_rises_upper_never_rises(self, kernel):
        problem = make_reference_problem()
        result = a_beauty(problem)
        unders = [rec.l_under for rec in result.log]
        overs = [rec.l_over for rec in result.log]
        assert all(a < b for a, b in zip(unders, unders[1:]))
        assert all(a >= b for a, b in zip(overs, overs[1:]))
        assert all(u <= o for u, o in zip(unders, overs))

    def test_no_estimator_paid_twice(self, kernel):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        result = a_beauty(problem, cache=cache)
        total = sum(rec.metrics_delta.invocations for rec in result.log)
        assert total == cache.invocation_count()
        for eid in range(len(problem.graph.edges)):
            layers = charged_layers(cache, eid)
            assert len(layers) <= cache.sequence_length(eid)


def _check_run(problem, result, cache):
    """Strict l_under rise, bracket around L*, and one charge per estimator."""
    lstar = oracle_lstar(problem)
    unders = [rec.l_under for rec in result.log]
    assert all(a < b for a, b in zip(unders, unders[1:]))
    for rec in result.log:
        assert rec.l_under <= lstar <= rec.l_over
    assert result.l_star == lstar
    total = sum(rec.metrics_delta.invocations for rec in result.log)
    assert total == cache.invocation_count()


class TestTiedOptimum:
    """Each shape used to end with a pass repeating l_under = L*."""

    @pytest.mark.parametrize(
        "make, route",
        [
            (make_goal_tie_problem, Path((2,), 5)),
            (make_frontier_tie_problem, Path((2, 3), 4)),
            (make_closed_tie_problem, Path((2, 4, 5), 4)),
        ],
    )
    def test_tie_certified_in_the_pass_that_pops_it(self, make, route, kernel):
        problem = make()
        cache = EstimationCache(problem.graph)
        result = a_beauty(problem, max_iterations=10, cache=cache)
        first, second = result.log
        assert first.l_under == 1.0
        assert second.path == route
        assert second.l_under == second.l_over == 4.0
        assert result.path == route
        _check_run(problem, result, cache)

    def test_closed_bracket(self, kernel):
        problem = make_closed_bracket_problem()
        cache = EstimationCache(problem.graph)
        result = a_beauty(problem, max_iterations=10, cache=cache)
        first, second = result.log
        assert first.path == Path((0, 2), 3)
        assert (first.l_under, first.l_over) == (1.0, 5.0)
        # pass 2 pops goal 4 at 5 through edge 1, which rises to 7; pass
        # 1's path is tight at 5 and certifies the pass, charging nothing
        assert second.path == Path((0, 2), 3)
        assert (second.l_under, second.l_over) == (5.0, 5.0)
        assert second.metrics_delta.invocations == 1  # edge 1's final layer
        assert result.path == Path((0, 2), 3)
        _check_run(problem, result, cache)

    def test_stops_once_bracket_closes(self, monkeypatch):
        # pass 2 reaches l_under = 9 uncertified while pass 1 already
        # attains l_over = 9: no third pass, and pass 1's path is returned
        problem = make_reference_problem()
        zero = Metrics((0,), 0, 0, 0, 0.0)
        p1, p2 = Path((E02, E24), 4), Path((E01, E14), 4)
        script = iter([
            SearchResult(p1, False, 3.0, 9.0, zero),
            SearchResult(p2, False, 9.0, 12.0, zero),
        ])
        monkeypatch.setattr(slbsearch.anytime, "beauty", lambda *a, **k: next(script))
        result = a_beauty(problem, max_iterations=10)
        assert result.iterations == 2
        assert result.path == p1
        assert result.l_star == 9.0
        assert result.log[1].path == p2
        assert (result.log[1].l_under, result.log[1].l_over) == (9.0, 9.0)


class TestEpsilonRule:
    def test_wide_epsilon_forces_early_finish(self, kernel):
        # after pass one the bracket is [5, 8]; 8/5 <= 1.7 triggers the
        # forced pass immediately, same as the converged run here
        problem = make_reference_problem()
        result = a_beauty(problem, max_iterations=10, epsilon=0.7)
        assert result.iterations == 2
        assert result.l_star == 7.0

    def test_zero_epsilon_behaves_like_plain_loop(self, kernel):
        problem = make_reference_problem()
        with_eps = a_beauty(problem, epsilon=0.0)
        without = a_beauty(problem)
        assert with_eps.l_star == without.l_star
        assert with_eps.iterations == without.iterations

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            a_beauty(make_reference_problem(), epsilon=-0.1)

    def test_nan_epsilon_rejected(self):
        # every l_over / l_under <= 1 + nan is false, so a NaN epsilon would
        # silently run as if none were given
        with pytest.raises(ValueError):
            a_beauty(make_reference_problem(), epsilon=math.nan)


class TestAnytimeEdgeCases:
    def test_unreachable_goal(self, kernel):
        g = EstimatedDigraph(3, [edge(0, 1, [(1, 2, 1.0)])])
        problem = Problem(g, 0, frozenset({2}))
        result = a_beauty(problem)
        assert result.path is None
        assert result.l_star == math.inf
        assert result.iterations == 1
        assert result.log[0].path is None

    def test_start_is_goal(self, kernel):
        problem = make_reference_problem()
        result = a_beauty(Problem(problem.graph, 0, frozenset({0})))
        assert result.path == Path((), 0)
        assert result.l_star == 0.0

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            a_beauty(make_reference_problem(), max_iterations=0)


class TestIterationCsv:
    def test_rows_carry_per_pass_deltas(self, tmp_path):
        problem = make_reference_problem()
        result = a_beauty(problem)
        out = tmp_path / "iterations.csv"
        write_metrics_csv(
            out,
            ("iteration", "l_under"),
            (),
            [((rec.iteration, rec.l_under), rec.metrics_delta, ()) for rec in result.log],
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["iteration"] == "1"
        assert (rows[0]["w_1"], rows[0]["w_2"]) == ("6", "1")
        assert (rows[1]["w_1"], rows[1]["w_2"]) == ("0", "1")
        assert rows[1]["l_under"] == "7.0"
