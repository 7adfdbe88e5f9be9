import csv
import json
import math

import pytest
from conftest import ITERATIONS_CSV_HEADER, RUNS_CSV_HEADER, make_reference_problem

from slbsearch import (
    run_suite,
    dump_problem,
    dump_weighted,
    gen_random_graph,
    oracle_lstar,
    synth_estimators,
)


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "ref.json"
    dump_problem(make_reference_problem(), path)
    return str(path)


def ref_suite(reference_file, algorithms):
    return {
        "instances": [{"id": "ref", "model": "problem_file", "path": reference_file}],
        "seeds": [0, 1, 2],
        "algorithms": algorithms,
    }


class TestReferenceSuite:
    def test_problem_file_forms_one_cell_and_baseline_always_runs(self, reference_file):
        report = run_suite(ref_suite(reference_file, ["beauty"]))
        # pre-estimated instances ignore synthesis seeds
        assert [r.algorithm for r in report.records] == ["eiucs", "beauty"]
        assert all(r.cell_id == "ref" for r in report.records)
        assert report.excluded == []
        assert report.aggregates["cells"] == 1

    def test_lazy_search_saves_final_layer_work_but_not_expansions(self, reference_file):
        report = run_suite(ref_suite(reference_file, ["beauty"]))
        agg = report.aggregates["algorithms"]["beauty"]
        assert agg["r_exp"]["mean"] == 1.0
        # 5 of the baseline's 6 refining invocations suffice here
        assert agg["r_L3"]["mean"] == pytest.approx(5 / 6)
        assert report.aggregates["algorithms"]["eiucs"]["r_L3"]["mean"] == 1.0

    def test_anytime_histogram_and_first_pass_pruning(self, reference_file):
        report = run_suite(ref_suite(reference_file, ["abeauty-10"]))
        agg = report.aggregates["algorithms"]["abeauty-10"]
        assert agg["final_iteration_histogram"] == {"2": 1}
        assert agg["pruned_per_evaluated_by_iteration"]["1"]["mean"] == 0.0
        conv = agg["l_under_over_lstar_by_iteration"]
        assert conv["1"]["mean"] <= conv["2"]["mean"] == 1.0

    def test_default_anytime_alias(self, reference_file):
        report = run_suite(ref_suite(reference_file, ["abeauty"]))
        rec = next(r for r in report.records if r.algorithm == "abeauty")
        assert rec.iterations == 2


class TestGeneratedSuites:
    def test_random_model_grid_of_cells(self):
        config = {
            "instances": [
                {
                    "id": "rnd",
                    "model": "random",
                    "n": 12,
                    "edge_prob": 0.3,
                    "cost_min": 1,
                    "cost_max": 20,
                    "rng_seed": 5,
                }
            ],
            "seeds": [0, 1],
            "algorithms": ["eiucs", "beauty", "abeauty-2"],
        }
        report = run_suite(config)
        assert len(report.records) == 2 * 3
        cells = {r.cell_id for r in report.records}
        assert cells == {"rnd@s0", "rnd@s1"}
        for rec in report.records:
            assert rec.l_star == next(
                r.l_star for r in report.records if r.cell_id == rec.cell_id
            )
            if math.isfinite(rec.l_star):
                assert rec.l_under <= rec.l_star <= rec.l_over
            if rec.algorithm == "abeauty-2":
                assert rec.iterations <= 2
                assert rec.l_under == rec.l_star
        assert report.aggregates["algorithms"]["beauty"]["r_exp"]["mean"] == 1.0

    def test_grid_model_runs(self):
        config = {
            "instances": [
                {
                    "id": "g",
                    "model": "grid",
                    "rows": 3,
                    "cols": 3,
                    "cost_min": 1,
                    "cost_max": 9,
                    "rng_seed": 2,
                }
            ],
            "seeds": [4],
            "algorithms": ["beauty"],
        }
        report = run_suite(config)
        assert len(report.records) == 2
        assert all(math.isfinite(r.l_star) for r in report.records)

    def test_weighted_file_model_matches_direct_synthesis(self, tmp_path):
        wg = gen_random_graph(10, 0.4, (1, 15), 7)
        path = tmp_path / "wg.json"
        dump_weighted(wg, path)
        config = {
            "instances": [{"id": "w", "model": "weighted_file", "path": str(path)}],
            "seeds": [3],
            "algorithms": ["beauty"],
        }
        report = run_suite(config)
        expected = oracle_lstar(synth_estimators(wg, 3))
        assert all(r.l_star == expected for r in report.records)

    def test_empty_suite(self):
        report = run_suite({"instances": [], "algorithms": ["beauty"]})
        assert report.records == []
        assert report.aggregates["cells"] == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_suite({"instances": [], "algorithms": ["dfs"]})
        with pytest.raises(ValueError):
            run_suite({"instances": [], "algorithms": ["abeauty-0"]})

    def test_bad_instance_specs_rejected(self, reference_file):
        with pytest.raises(ValueError):
            run_suite({"instances": [{"id": "x"}], "algorithms": []})
        with pytest.raises(ValueError):
            run_suite(
                {"instances": [{"id": "x", "model": "mesh"}], "algorithms": []}
            )


class TestTimeoutsAndOutputs:
    def test_zero_budget_excludes_every_cell(self, reference_file):
        config = ref_suite(reference_file, ["beauty"])
        config["timeout_seconds"] = 0
        report = run_suite(config)
        # runs still happen and are recorded; aggregation skips them
        assert [r.algorithm for r in report.records] == ["eiucs", "beauty"]
        assert report.excluded == ["ref"]
        assert report.aggregates["cells"] == 0
        assert report.aggregates["algorithms"]["beauty"] == {}

    def test_output_files(self, reference_file, tmp_path):
        out = tmp_path / "out"
        run_suite(ref_suite(reference_file, ["beauty", "abeauty-10"]), out_dir=out)
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RUNS_CSV_HEADER
        assert len(rows) == 1 + 3  # header + eiucs/beauty/abeauty-10
        with open(out / "iterations.csv", newline="") as fh:
            irows = list(csv.reader(fh))
        assert irows[0] == ITERATIONS_CSV_HEADER
        assert len(irows) == 1 + 2  # the anytime run logged two passes
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["cells"] == 1
        assert set(summary["algorithms"]) == {"eiucs", "beauty", "abeauty-10"}
        assert summary["excluded"] == []
