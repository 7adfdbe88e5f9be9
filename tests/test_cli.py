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
        ],
        ids=[
            "random-without-n", "instances-not-a-list", "string-seed", "file-without-path",
            "nan-timeout",
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


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "slbsearch.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "solve" in out.stdout and "bench" in out.stdout
