import csv
import json
import subprocess
import sys

import pytest
from conftest import RUNS_CSV_HEADER, edge, make_reference_problem

from slbsearch import (
    EstimatedDigraph,
    Problem,
    dump_problem,
    load_problem,
    load_weighted,
    oracle_lstar,
    problem_from_json,
    weighted_from_json,
)
from slbsearch.cli import main


@pytest.fixture
def ref_path(tmp_path):
    path = tmp_path / "ref.json"
    dump_problem(make_reference_problem(), path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_random_model(self, tmp_path, capsys):
        out = tmp_path / "wg.json"
        code = run_cli(
            "gen", "--model", "random", "--n", "15", "--edge-prob", "0.3",
            "--cost-min", "1", "--cost-max", "20", "--rng-seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        wg = load_weighted(out)
        assert wg.vertex_count == 15

    def test_grid_model(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = run_cli(
            "gen", "--model", "grid", "--rows", "3", "--cols", "4",
            "--cost-min", "1", "--cost-max", "5", "--rng-seed", "0",
            "--out", str(out),
        )
        assert code == 0
        assert load_weighted(out).vertex_count == 12

    def test_random_model_requires_its_shape_flags(self, tmp_path, capsys):
        code = run_cli(
            "gen", "--model", "random", "--cost-min", "1", "--cost-max", "5",
            "--rng-seed", "0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestSynth:
    def test_synth_attaches_estimators(self, tmp_path, capsys):
        wg_path = tmp_path / "wg.json"
        run_cli(
            "gen", "--model", "random", "--n", "10", "--edge-prob", "0.4",
            "--cost-min", "1", "--cost-max", "9", "--rng-seed", "3",
            "--out", str(wg_path),
        )
        out = tmp_path / "prob.json"
        code = run_cli(
            "synth", "--weighted-graph", str(wg_path), "--seed", "5",
            "--out", str(out),
        )
        assert code == 0
        problem = load_problem(out)
        assert all(len(e.estimators) == 3 for e in problem.graph.edges)

    def test_missing_weighted_file(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--weighted-graph", str(tmp_path / "absent.json"),
            "--seed", "0", "--out", str(tmp_path / "o.json"),
        )
        assert code == 3


class TestSolve:
    def test_beauty_on_reference_problem(self, ref_path, capsys):
        code = run_cli("solve", "--graph", ref_path, "--alg", "beauty")
        out = capsys.readouterr().out
        assert code == 0
        assert "path 0->2->4" in out
        assert "opt true" in out
        assert "l_under 7" in out
        assert "l_over 7" in out

    def test_eiucs_agrees(self, ref_path, capsys):
        code = run_cli("solve", "--graph", ref_path, "--alg", "eiucs")
        assert code == 0
        assert "l_under 7" in capsys.readouterr().out

    def test_thresholded_beauty(self, ref_path, capsys):
        code = run_cli(
            "solve", "--graph", ref_path, "--alg", "beauty",
            "--l-est", "0", "--l-prune", "inf",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "opt false" in out
        assert "l_under 5" in out

    def test_anytime_prints_iteration_lines(self, ref_path, capsys):
        code = run_cli("solve", "--graph", ref_path, "--alg", "abeauty")
        out = capsys.readouterr().out
        assert code == 0
        assert "iteration 1:" in out
        assert "iteration 2:" in out
        assert "l_under 7" in out

    def test_metrics_out_schema(self, ref_path, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        code = run_cli(
            "solve", "--graph", ref_path, "--alg", "beauty",
            "--metrics-out", str(metrics),
        )
        assert code == 0
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RUNS_CSV_HEADER
        assert len(rows) == 2
        record = dict(zip(rows[0], rows[1]))
        assert record["algorithm"] == "beauty"
        assert record["optimal_flag"] == "1"

    @pytest.mark.parametrize("flag", ["--l-est", "--l-prune"])
    def test_nan_threshold_exits_3(self, ref_path, capsys, flag):
        code = run_cli("solve", "--graph", ref_path, "--alg", "beauty", flag, "nan")
        captured = capsys.readouterr()
        assert code == 3
        assert "no path" not in captured.out
        assert captured.err == "error: l_est and l_prune must not be NaN\n"

    def test_deep_sequences_keep_every_layer_column(self, tmp_path, capsys):
        graph = EstimatedDigraph(
            3,
            [
                edge(0, 1, [(1, 9, 1.0), (2, 8, 2.0), (3, 7, 3.0), (4, 6, 4.0)], 5),
                edge(1, 2, [(1, 1, 1.0)], 1),
                edge(0, 2, [(9, 9, 1.0)], 9),
            ],
        )
        problem_path = tmp_path / "deep.json"
        dump_problem(Problem(graph, 0, frozenset({2})), problem_path)
        metrics = tmp_path / "m.csv"
        code = run_cli(
            "solve", "--graph", str(problem_path), "--alg", "eiucs",
            "--metrics-out", str(metrics),
        )
        assert code == 0
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "instances": [{"id": "deep", "model": "problem_file", "path": str(problem_path)}],
            "algorithms": ["abeauty-10"],
        }))
        out_dir = tmp_path / "o"
        assert run_cli("bench", "--suite", str(suite), "--out-dir", str(out_dir)) == 0

        def rows(name):
            with open(name, newline="") as fh:
                return list(csv.DictReader(fh))

        solved, runs = rows(metrics), rows(out_dir / "runs.csv")
        passes = rows(out_dir / "iterations.csv")
        assert all("w_4" in r[0] and "w_5" not in r[0] for r in (solved, runs, passes))
        # the fourth layer of edge 0->1 is charged once by every algorithm
        assert [row["w_4"] for row in solved + runs] == ["1", "1", "1"]
        assert sum(int(row["w_4"]) for row in passes) == 1

    def test_unreachable_goal_exits_2(self, tmp_path, capsys):
        graph = EstimatedDigraph(2, [edge(1, 0, [(1, 1, 1.0)], 1)])
        path = tmp_path / "unreach.json"
        dump_problem(Problem(graph, 0, frozenset({1})), path)
        code = run_cli("solve", "--graph", str(path), "--alg", "beauty")
        assert code == 2
        assert "no path" in capsys.readouterr().out

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = run_cli("solve", "--graph", str(path), "--alg", "beauty")
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_graph_violations_exit_3(self, tmp_path, capsys):
        # inverted interval: constructible, but rejected before searching
        graph = EstimatedDigraph(2, [edge(0, 1, [(5, 4, 1.0)])])
        path = tmp_path / "bad.json"
        dump_problem(Problem(graph, 0, frozenset({1})), path)
        code = run_cli("solve", "--graph", str(path), "--alg", "beauty")
        assert code == 3
        assert "invalid graph" in capsys.readouterr().err

    def test_usage_errors_exit_3(self, ref_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--graph", ref_path, "--alg", "bfs")
        assert exc.value.code == 3
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--alg", "beauty")
        assert exc.value.code == 3


_GRID = {"id": "g", "model": "grid", "rows": 2, "cols": 2, "cost_min": 1, "cost_max": 5,
         "rng_seed": 0}


class TestBench:
    def suite_file(self, tmp_path, ref_path, timeout=None):
        config = {
            "instances": [{"id": "ref", "model": "problem_file", "path": ref_path}],
            "seeds": [0],
            "algorithms": ["beauty", "abeauty-10"],
        }
        if timeout is not None:
            config["timeout_seconds"] = timeout
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_bench_end_to_end(self, tmp_path, ref_path, capsys):
        out_dir = tmp_path / "results"
        code = run_cli(
            "bench", "--suite", self.suite_file(tmp_path, ref_path),
            "--out-dir", str(out_dir),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cells 1 excluded 0" in out
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "iterations.csv").exists()
        assert json.loads((out_dir / "summary.json").read_text())["cells"] == 1

    def test_bench_timeout_exits_4(self, tmp_path, ref_path, capsys):
        out_dir = tmp_path / "results"
        code = run_cli(
            "bench", "--suite", self.suite_file(tmp_path, ref_path, timeout=0),
            "--out-dir", str(out_dir),
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "timed out: ref" in err

    def test_bad_suite_config_exits_3(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"instances": [], "algorithms": ["dfs"]}))
        code = run_cli("bench", "--suite", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 3

    @pytest.mark.parametrize(
        "suite,named",
        [
            (
                {"instances": [{"id": "r", "model": "random", "edge_prob": 0.5,
                                "cost_min": 1, "cost_max": 5, "rng_seed": 0}]},
                "instance 'r': model 'random' needs key 'n'",
            ),
            ({"instances": 5}, "suite key 'instances'"),
            (
                {"instances": [{"id": "g", "model": "grid", "rows": 2, "cols": 2,
                                "cost_min": 1, "cost_max": 5, "rng_seed": 0}],
                 "seeds": ["a"]},
                "suite key 'seeds'",
            ),
            (
                {"instances": [{"id": "w", "model": "weighted_file"}]},
                "instance 'w': model 'weighted_file' needs key 'path'",
            ),
            # json reads NaN, and no run time exceeds a NaN budget
            ({"instances": [], "timeout_seconds": float("nan")}, "'timeout_seconds'"),
            # every run exceeds a negative budget, so every cell would time out
            (
                {"instances": [_GRID], "timeout_seconds": -1},
                "suite key 'timeout_seconds' must be a non-negative number",
            ),
            # two cells under one id would share one entry of summary.json
            (
                {"instances": [{"id": "a", "model": "grid", "rows": 2, "cols": 2,
                                "cost_min": 1, "cost_max": 5, "rng_seed": s}
                               for s in (0, 1)]},
                "instance id 'a' is used twice",
            ),
            ({"instances": [], "algorithms": ["beauty", "beauty"]}, "lists 'beauty' twice"),
            ({"instances": [], "seeds": [0, 0]}, "suite key 'seeds' lists 0 twice"),
            # one anytime budget under two names, or a name with a leading zero
            (
                {"instances": [], "algorithms": ["abeauty", "abeauty-10"]},
                "suite key 'algorithms' lists 'abeauty-10' twice",
            ),
            ({"instances": [], "algorithms": ["abeauty-1", "abeauty-01"]}, "'abeauty-01'"),
            # a size past any float used to overflow the NaN check itself
            (
                {"instances": [{"id": "g", "model": "grid", "rows": 10**400, "cols": 2,
                                "cost_min": 1, "cost_max": 5, "rng_seed": 0}]},
                "instance 'g': ",
            ),
            # misspelled keys used to be ignored, running the defaults instead
            ({"instances": [_GRID], "seed": [1, 2, 3]}, "unknown suite key 'seed'"),
            (
                {"instances": [_GRID], "algorithm": ["beauty", "abeauty-3"]},
                "unknown suite key 'algorithm'",
            ),
            (
                {"instances": [{**_GRID, "n": 7}]},
                "instance 'g': model 'grid' takes no key 'n'",
            ),
        ],
        ids=[
            "random-without-n", "instances-not-a-list", "string-seed", "file-without-path",
            "nan-timeout", "negative-timeout", "duplicate-id", "duplicate-algorithm", "duplicate-seed",
            "aliased-algorithm", "zero-padded-budget", "huge-rows",
            "misspelled-seeds", "misspelled-algorithms", "stray-instance-key",
        ],
    )
    def test_malformed_suite_exits_3(self, tmp_path, capsys, suite, named):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"algorithms": ["beauty"], **suite}))
        code = run_cli("bench", "--suite", str(path), "--out-dir", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "specs",
        [[(-3, 4, 1.0)], [(2, 6, 1.0), (1, 9, 2.0)]],
        ids=["negative", "non-nested"],
    )
    def test_bench_rejects_invalid_problem_file(self, tmp_path, capsys, specs):
        graph = EstimatedDigraph(
            3,
            [edge(0, 1, specs, 2), edge(1, 2, [(1, 1, 1.0)], 1), edge(0, 2, [(5, 5, 1.0)], 5)],
        )
        problem_path = tmp_path / "bad.json"
        dump_problem(Problem(graph, 0, frozenset({2})), problem_path)
        code = run_cli(
            "bench", "--suite", self.suite_file(tmp_path, str(problem_path)),
            "--out-dir", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: instance 'ref': invalid graph")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bench_rejects_weighted_file_with_stray_endpoint(self, tmp_path, capsys):
        path = tmp_path / "wg.json"
        path.write_text(json.dumps({
            "vertex_count": 2, "start": 0, "goals": [1],
            "edges": [{"from": 0, "to": 1, "cost": 3}, {"from": 1, "to": 7, "cost": 2}],
        }))
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "instances": [{"id": "w", "model": "weighted_file", "path": str(path)}],
            "algorithms": ["beauty"],
        }))
        code = run_cli("bench", "--suite", str(suite), "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert "endpoint" in capsys.readouterr().err

    def test_runtime_error_exits_3_with_one_line(self, tmp_path, ref_path, capsys, monkeypatch):
        def corrupt(*args, **kwargs):
            raise RuntimeError("closed vertex 3 improved during search")

        monkeypatch.setattr("slbsearch.cli.run_suite", corrupt)
        code = run_cli(
            "bench", "--suite", self.suite_file(tmp_path, ref_path),
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 3
        assert capsys.readouterr().err == "error: closed vertex 3 improved during search\n"



def _weighted_doc(cost=3, head=1):
    return {"vertex_count": 2, "start": 0, "goals": [1],
            "edges": [{"from": 0, "to": head, "cost": cost}]}


def _problem_doc(bound=4.0, vertices=2):
    return {"vertex_count": vertices, "start": 0, "goals": [1],
            "edges": [{"from": 0, "to": 1, "estimators": [[1.0, bound, 1.0]]}]}


def _problem_doc_with_bool_after_equal_triple():
    # true == 1.0, so it must be refused before estimators are shared by value
    doc = _problem_doc()
    doc["vertex_count"] = 3
    doc["goals"] = [2]
    doc["edges"].append({"from": 1, "to": 2, "estimators": [[True, 4.0, 1.0]]})
    return doc


def _column_problem_doc(**columns):
    # edge 0 has two layers and a true cost, edge 1 one layer and none
    doc = {"vertex_count": 2, "start": 0, "goals": [1], "tail": [0, 0], "head": [1, 1],
           "est_offsets": [0, 2, 3], "est_lower": [1.0, 2.0, 1.0], "est_upper": [4.0, 3.0, 4.0],
           "est_time": [1.0, 2.0, 1.0], "true_cost": [2.5, None]}
    return {**doc, **columns}


def _column_weighted_doc(**columns):
    return {"vertex_count": 2, "start": 0, "goals": [1], "tail": [0], "head": [1], "cost": [3],
            **columns}


def _solve_columns(named, **columns):
    return ({"p.json": _column_problem_doc(**columns)},
            ["solve", "--graph", "p.json", "--alg", "beauty"], named)


def _synth_columns(named, **columns):
    return ({"wg.json": _column_weighted_doc(**columns)},
            ["synth", "--weighted-graph", "wg.json", "--seed", "0", "--out", "out.json"], named)


# column files the loaders refuse: id -> (files, argv, the message)
_COLUMN_CASES = {
    "columns-bool-tail": _solve_columns("edge 0: endpoint 'from' must be an integer",
                                        tail=[True, 0]),
    "columns-float-head": _solve_columns("edge 1: endpoint 'to' must be an integer",
                                         head=[1, 1.0]),
    "columns-float-offset": _solve_columns("est_offsets entry 1 must be an integer",
                                           est_offsets=[0, 2.0, 3]),
    "columns-bool-cost": _synth_columns("edge 0: cost must be a positive integer", cost=[True]),
    "columns-float-cost": _synth_columns("edge 0: cost must be a positive integer", cost=[3.0]),
    "columns-bool-lower": _solve_columns("edge 0 estimator 1 lower must be a number",
                                         est_lower=[1.0, True, 1.0]),
    "columns-string-upper": _solve_columns("edge 1 estimator 0 upper must be a number",
                                           est_upper=[4.0, 3.0, "4.0"]),
    "columns-null-time": _solve_columns("edge 0 estimator 1 time_cost must be a number",
                                        est_time=[1.0, None, 1.0]),
    "columns-bool-true-cost": _solve_columns("edge 0 true_cost must be a number",
                                             true_cost=[True, None]),
    "columns-lower-beyond-float": _solve_columns("edge 1 estimator 0 lower does not fit a float",
                                                 est_lower=[1.0, 2.0, 10**400]),
    "columns-true-cost-beyond-float": _solve_columns("edge 0 true_cost does not fit a float",
                                                     true_cost=[10**400, None]),
    "columns-offsets-not-from-0": _solve_columns("est_offsets must start at 0",
                                                 est_offsets=[1, 2, 3]),
    "columns-offsets-repeat": _solve_columns(
        "edge 0 has no estimators: est_offsets must strictly increase", est_offsets=[0, 0, 3]),
    "columns-offsets-beyond-int64": _solve_columns(
        "edge 1 has no estimators: est_offsets must strictly increase",
        est_offsets=[0, 10**30, 3]),
    "columns-offsets-short-of-layers": _solve_columns(
        "est_offsets must end at 3, the length of est_lower", est_offsets=[0, 1, 2]),
    "columns-short-head": _solve_columns("head: expected 2 entries, got 1", head=[1]),
    "columns-short-offsets": _solve_columns("est_offsets: expected 3 entries, got 2",
                                            est_offsets=[0, 3]),
    "columns-short-upper": _solve_columns("est_upper: expected 3 entries, got 2",
                                          est_upper=[4.0, 3.0]),
    "columns-long-true-cost": _solve_columns("true_cost: expected 2 entries, got 3",
                                             true_cost=[2.5, None, None]),
    "columns-long-cost": _synth_columns("cost: expected 1 entries, got 2", cost=[3, 4]),
    "columns-tail-not-a-list": _solve_columns("tail must be a list", tail="0"),
    "columns-endpoint-out-of-range": _solve_columns(
        "edge 1: endpoint 'to' 2 out of range for 2 vertices", head=[1, 2]),
    "columns-synth-stray-endpoint": _synth_columns("edge 0: endpoint 'to' 7 out of range",
                                                   head=[7]),
    "columns-synth-huge-cost": _synth_columns("edge (0, 1): cost too large for a float",
                                              cost=[10**400]),
}

_GEN_ARGV = ["gen", "--model", "random", "--n", "5", "--edge-prob", "0.5", "--out", "out.json",
             "--cost-min", "1"]


@pytest.mark.parametrize(
    "files,argv,named",
    [
        ({"wg.json": _weighted_doc(head=7)}, ["synth", "--weighted-graph", "wg.json",
         "--seed", "0", "--out", "out.json"], "edge 0: endpoint 'to' 7 out of range"),
        ({"p.json": _problem_doc(bound=10**400)}, ["solve", "--graph", "p.json",
         "--alg", "beauty"], "upper does not fit a float"),
        ({"p.json": _problem_doc(bound=0.5)}, ["solve", "--graph", "p.json",
         "--alg", "beauty"], "invalid graph, 1 violations (first: edge 0: bounds:"),
        ({"wg.json": _weighted_doc(cost=10**400)}, ["synth", "--weighted-graph", "wg.json",
         "--seed", "0", "--out", "out.json"], "edge (0, 1): cost too large for a float"),
        (
            {"wg.json": _weighted_doc(cost=10**400),
             "suite.json": {"instances": [{"id": "w", "model": "weighted_file",
                                           "path": "wg.json"}], "algorithms": ["beauty"]}},
            ["bench", "--suite", "suite.json", "--out-dir", "out.json"],
            "instance 'w': edge (0, 1): cost too large for a float",
        ),
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "abeauty",
         "--epsilon", "nan"], "epsilon"),
        ({"p.json": "[" * 100000 + "]" * 100000}, ["solve", "--graph", "p.json",
         "--alg", "beauty"], "bad input file: not valid JSON"),
        ({"p.json": _problem_doc_with_bool_after_equal_triple()}, ["solve", "--graph", "p.json",
         "--alg", "beauty"], "bad input file: edge 1 estimator 0 lower must be a number"),
        ({}, _GEN_ARGV + ["--cost-max", "9", "--rng-seed", "-1"],
         "rng_seed must be a non-negative integer"),
        ({}, _GEN_ARGV + ["--cost-max", "99999999999999999999", "--rng-seed", "0"],
         "cost range [1, 99999999999999999999] must fit int64"),
        # sizes of 10**15 elements and more cannot be allocated under any
        # overcommit setting, so these fail at once
        ({"p.json": _problem_doc(vertices=10**15)}, ["solve", "--graph", "p.json",
         "--alg", "beauty"], "Unable to allocate"),
        (
            {"p.json": _problem_doc(vertices=10**15),
             "suite.json": {"instances": [{"id": "p", "model": "problem_file",
                                           "path": "p.json"}], "algorithms": ["beauty"]}},
            ["bench", "--suite", "suite.json", "--out-dir", "o"],
            "Unable to allocate",
        ),
        # a shape flag of the other model is rejected, not ignored
        ({}, _GEN_ARGV + ["--cost-max", "9", "--rng-seed", "0", "--rows", "3"],
         "model random takes no --rows"),
        ({}, ["gen", "--model", "grid", "--rows", "3", "--cols", "3", "--n", "9",
              "--cost-min", "1", "--cost-max", "9", "--rng-seed", "0", "--out", "out.json"],
         "model grid takes no --n"),
        ({}, ["gen", "--model", "grid", "--rows", "100000000", "--cols", "100000000",
              "--cost-min", "1", "--cost-max", "9", "--rng-seed", "0", "--out", "out.json"],
         "Unable to allocate"),
        # a bad value is rejected even by an algorithm that would ignore it
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "abeauty",
         "--l-est", "nan"], "l_est and l_prune must not be NaN"),
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "abeauty",
         "--l-prune", "nan"], "l_est and l_prune must not be NaN"),
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "eiucs",
         "--epsilon", "nan"], "epsilon must be non-negative"),
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "beauty",
         "--epsilon", "-1"], "epsilon must be non-negative"),
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "eiucs",
         "--max-iters", "0"], "max_iterations must be at least 1"),
        ({"p.json": _problem_doc()}, ["solve", "--graph", "p.json", "--alg", "beauty",
         "--max-iters", "-5"], "max_iterations must be at least 1"),
        *_COLUMN_CASES.values(),
    ],
    ids=["synth-stray-endpoint", "solve-huge-bound", "solve-invalid-graph", "synth-huge-cost",
         "bench-huge-cost", "solve-nan-epsilon", "solve-deep-nesting", "solve-bool-bound",
         "gen-negative-seed", "gen-cost-beyond-int64", "solve-too-large", "bench-too-large",
         "gen-random-with-rows", "gen-grid-with-n", "gen-grid-too-large", "abeauty-nan-l-est", "abeauty-nan-l-prune", "eiucs-nan-epsilon",
         "beauty-negative-epsilon", "eiucs-zero-max-iters", "beauty-negative-max-iters",
         *_COLUMN_CASES],
)
def test_malformed_file_exits_3_with_one_line(tmp_path, monkeypatch, capsys, files, argv, named):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_column_docs_of_the_malformed_cases_load():
    # each column case above changes one column of these valid documents
    problem = problem_from_json(json.dumps(_column_problem_doc()))
    assert problem.graph.true_known.tolist() == [True, False]
    assert weighted_from_json(json.dumps(_column_weighted_doc())).edges == ((0, 1, 3),)


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "slbsearch.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "solve" in out.stdout and "bench" in out.stdout
