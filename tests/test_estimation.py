import csv
import math

import pytest
from conftest import (
    E01, E02, E14, E21, E23, E24, T1, T2, charged_layers, make_reference_problem,
)

from slbsearch import (
    EstimationCache,
    Metrics,
    ei_ucs,
    beauty,
    gen_grid_graph,
    synth_estimators,
    write_metrics_csv,
)


@pytest.fixture
def cache():
    return EstimationCache(make_reference_problem().graph)


class TestApplyNext:
    def test_first_application(self, cache):
        low, layer = cache.apply_next(E14)
        assert (low, layer) == (1.0, 1)
        assert cache.tightest_upper[E14] == 10.0

    def test_second_application_tightens(self, cache):
        cache.apply_next(E14)
        low, layer = cache.apply_next(E14)
        assert (low, layer) == (4.0, 2)
        assert cache.tightest_upper[E14] == 6.0

    def test_exhausted_sequence_rejected(self, cache):
        cache.apply_next(E01)
        with pytest.raises(ValueError):
            cache.apply_next(E01)

    def test_charges_time_once_per_layer(self, cache):
        cache.apply_next(E14)
        cache.apply_next(E14)
        assert cache.snapshot_metrics().estimation_time == T1 + T2
        assert cache.snapshot_metrics().layer_invocations == (1, 1)

    def test_folding_keeps_tightest_upper(self, cache):
        # e02 layers (2,6) then (3,5): both bounds tighten
        cache.apply_next(E02)
        assert cache.tightest_lower[E02] == 2.0
        cache.apply_next(E02)
        assert (cache.tightest_lower[E02], cache.tightest_upper[E02]) == (3.0, 5.0)


class TestApplyFinal:
    def test_jump_skips_intermediate_layers(self, cache):
        low = cache.apply_final(E14)
        assert low == 4.0
        assert not cache.has_remaining(E14)
        # only the last layer was genuinely invoked or charged
        assert charged_layers(cache, E14) == (2,)
        assert cache.snapshot_metrics().estimation_time == T2
        assert cache.snapshot_metrics().layer_invocations == (0, 1)

    def test_jump_after_partial_application(self, cache):
        cache.apply_next(E23)
        low = cache.apply_final(E23)
        assert low == 7.0
        assert charged_layers(cache, E23) == (1, 2)
        assert cache.snapshot_metrics().estimation_time == T1 + T2

    def test_single_layer_edge(self, cache):
        assert cache.apply_final(E01) == 4.0
        assert charged_layers(cache, E01) == (1,)

    def test_exhausted_sequence_rejected(self, cache):
        cache.apply_final(E24)
        with pytest.raises(ValueError):
            cache.apply_final(E24)


class TestInvocationAccounting:
    def test_fresh_cache_is_zero(self, cache):
        m = cache.snapshot_metrics()
        assert m.invocations == 0
        assert m.expansions == m.evaluations == m.prunings == 0
        assert m.estimation_time == 0.0

    def test_baseline_run_invokes_everything_reachable(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        ei_ucs(problem, cache)
        assert cache.invocation_count() == 10
        assert cache.snapshot_metrics().layer_invocations == (6, 4)

    def test_lazy_run_skips_one_refinement(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        beauty(problem, cache)
        assert cache.invocation_count() == 9
        assert charged_layers(cache, E21) == (1,)

    def test_estimation_time_sums_charged_layers(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        ei_ucs(problem, cache)
        # six first layers, four second layers
        assert cache.snapshot_metrics().estimation_time == 6 * T1 + 4 * T2

    def test_final_layer_invocations(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        beauty(problem, cache)
        # every edge's tightest layer except e21's
        assert cache.final_layer_invocations() == 5


class TestReadOnlyState:
    def test_outside_writes_fail_and_reads_are_live(self):
        problem = make_reference_problem()
        cache = EstimationCache(problem.graph)
        arrays = problem.graph.arrays()
        locked = (cache.next_index, cache.tightest_lower, cache.invoked, cache.layer_counts,
                  arrays.full_lower)
        for array in locked:
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                array[0] = 1
        # the views taken before the search show what it wrote
        next_index, tightest_lower, invoked, layer_counts = locked[:4]
        ei_ucs(problem, cache)
        assert next_index.tolist() == [1, 2, 2, 2, 2, 1]
        assert tightest_lower.tolist() == arrays.full_lower.tolist()
        assert invoked.sum() == layer_counts.sum() == 10


class TestLayering:
    def test_the_cache_reads_only_the_graph_layout(self):
        # building, stepping and inspecting a cache builds none of the
        # search's indexes; the search builds them, with the same answer
        def stepped():
            problem = synth_estimators(gen_grid_graph(4, 4, (1, 9), 2), 5)
            cache = EstimationCache(problem.graph)
            cache.apply_next(0)
            cache.apply_final(1)
            return problem, cache

        problem, cache = stepped()
        graph = problem.graph
        assert cache.tightest_upper[1] < math.inf
        assert cache.final_layer_invocations() >= 1
        assert cache.snapshot_metrics().invocations == 2
        assert graph.indptr is None
        assert not {"pred_indptr", "pred_edge", "full_lower"} & set(vars(graph))
        result = ei_ucs(problem, cache)
        assert graph.indptr is not None and "full_lower" in vars(graph)
        fresh_problem, fresh = stepped()
        assert ei_ucs(fresh_problem, fresh) == result
        for name in ("next_index", "tightest_lower", "invoked", "layer_counts"):
            assert getattr(cache, name).tolist() == getattr(fresh, name).tolist()
        assert cache.snapshot_metrics() == fresh.snapshot_metrics()


class TestMetrics:
    def test_search_time_scales_with_tau(self):
        m = Metrics((1, 2), expansions=5, evaluations=9, prunings=1,
                    estimation_time=12.0)
        assert m.search_time == m.expansions == 5
        assert m.total_time == 17.0
        assert m.invocations == 3

    def test_csv_row_shape(self, tmp_path):
        m = Metrics((5, 3), 7, 11, 2, 40.0)
        out = tmp_path / "m.csv"
        write_metrics_csv(out, ("instance_id",), ("optimal_flag",), [(("inst",), m, (1,))])
        header, row = out.read_text().splitlines()
        assert header == (
            "instance_id,w_1,w_2,w_3,expansions,evaluations,prunings,T_w,T_v,optimal_flag"
        )
        assert row == "inst,5,3,0,7,11,2,40.0,7.0,1"

    def test_csv_row_with_three_layers(self, tmp_path):
        m = Metrics((5, 3, 2), 7, 11, 2, 40.0)
        out = tmp_path / "m.csv"
        write_metrics_csv(out, ("algorithm",), ("iterations",), [(("eiucs",), m, (3,))])
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["w_3"] == "2" and "w_4" not in row
        assert row["iterations"] == "3"

    def test_csv_columns_follow_the_deepest_sequence(self, tmp_path):
        rows = [
            (("a",), Metrics((1,), 1, 1, 0, 1.0), ()),
            (("b",), Metrics((4, 3, 2, 1, 9), 1, 1, 0, 1.0), ()),
        ]
        out = tmp_path / "m.csv"
        write_metrics_csv(out, ("id",), (), rows)
        with open(out, newline="") as fh:
            a, b = csv.DictReader(fh)
        assert [a[f"w_{i}"] for i in range(1, 6)] == ["1", "0", "0", "0", "0"]
        assert [b[f"w_{i}"] for i in range(1, 6)] == ["4", "3", "2", "1", "9"]

    def test_csv_rows_from_a_generator(self, tmp_path):
        rows = [
            ((f"r{i}",), Metrics((i + 1,) * (i + 2), i, 2 * i, 0, float(i)), ())
            for i in range(3)
        ]
        listed, generated = tmp_path / "list.csv", tmp_path / "gen.csv"
        write_metrics_csv(listed, ("id",), (), rows)
        write_metrics_csv(generated, ("id",), (), (row for row in rows))
        with open(generated, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert [r["id"] for r in read] == ["r0", "r1", "r2"]
        assert read[2]["w_4"] == "3"  # the deepest sequence, seen in the last row
        assert generated.read_bytes() == listed.read_bytes()

    def test_failed_csv_write_keeps_an_existing_file(self, tmp_path):
        class Unwritable:
            def __str__(self):
                raise ValueError("cannot be written")

        m = Metrics((1,), 1, 1, 0, 1.0)
        out = tmp_path / "m.csv"
        write_metrics_csv(out, ("id",), (), [(("a",), m, ())])
        before = out.read_bytes()
        assert before.endswith(b"\r\n") and b"\r\r" not in before
        # the second row fails after the header and the first row
        with pytest.raises(ValueError, match="cannot be written"):
            write_metrics_csv(out, ("id",), (), [(("b",), m, ()), ((Unwritable(),), m, ())])
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
