"""Exact outputs of `solve` and `bench` on one fixed synthesized problem.

The existing CLI tests check substrings; these pin the exit code, the whole
stdout and stderr, and every byte `solve --metrics-out` and `bench` write,
so a change to how runs are dispatched or reduced to rows cannot shift any
of them unnoticed.
"""

import hashlib
import json

import pytest

from slbsearch import dump_problem, gen_random_graph, synth_estimators
from slbsearch.cli import main

HEADER = (
    "instance_id,algorithm,w_1,w_2,w_3,expansions,evaluations,prunings,T_w,T_v,"
    "l_under,l_over,optimal_flag,iterations"
)
OPTIMUM = "path 0->4->10->21->29\nedges 0 20 43 71\nopt true\nl_under 58\nl_over 58\n"
PASSES = (
    "iteration 1: path 0->4->10->21->29 l_under 20 l_over 58\n"
    "iteration 2: path 0->4->21->29 l_under 56 l_over 58\n"
)

# argv after `solve --graph p.json` -> (exit code, stdout, metrics row)
SOLVE_CASES = {
    "eiucs": (
        ["--alg", "eiucs"], 0, OPTIMUM,
        "p.json,eiucs,28,28,28,12,28,0,3108.0,12.0,58.0,58.0,1,1",
    ),
    "beauty": (
        ["--alg", "beauty"], 0, OPTIMUM,
        "p.json,beauty,24,22,21,12,28,0,2344.0,12.0,58.0,58.0,1,1",
    ),
    "beauty-l-est-0": (
        ["--alg", "beauty", "--l-est", "0"], 0,
        "path 0->4->10->21->29\nedges 0 20 43 71\nopt false\nl_under 20\nl_over 58\n",
        "p.json,beauty,26,0,4,12,28,0,426.0,12.0,20.0,58.0,0,1",
    ),
    "beauty-l-prune-1": (
        ["--alg", "beauty", "--l-prune", "1"], 2, "no path to any goal\n",
        "p.json,beauty,7,7,7,1,7,7,777.0,1.0,inf,inf,0,1",
    ),
    "abeauty": (
        ["--alg", "abeauty"], 0,
        PASSES
        + "iteration 3: path 0->29 l_under 57 l_over 58\n"
        + "iteration 4: path 0->4->10->21->29 l_under 58 l_over 58\n"
        + OPTIMUM,
        "p.json,abeauty,28,15,16,52,114,14,1778.0,52.0,58.0,58.0,1,4",
    ),
    "abeauty-epsilon": (
        ["--alg", "abeauty", "--epsilon", "0.1"], 0,
        PASSES + "iteration 3: path 0->4->10->21->29 l_under 58 l_over 58\n" + OPTIMUM,
        "p.json,abeauty,28,16,15,40,86,8,1688.0,40.0,58.0,58.0,1,3",
    ),
    "abeauty-max-iters-3": (
        ["--alg", "abeauty", "--max-iters", "3"], 0,
        PASSES + "iteration 3: path 0->4->10->21->29 l_under 58 l_over 58\n" + OPTIMUM,
        "p.json,abeauty,28,16,15,40,86,8,1688.0,40.0,58.0,58.0,1,3",
    ),
}

SUITE = {
    "instances": [
        {"id": "rand", "model": "random", "n": 30, "edge_prob": 0.15,
         "cost_min": 1, "cost_max": 20, "rng_seed": 35},
        {"id": "file", "model": "problem_file", "path": "p.json"},
    ],
    "seeds": [0, 1],
    "algorithms": ["beauty", "abeauty-2", "abeauty"],
}
BENCH_STDOUT = (
    "cells 3 excluded 0\n"
    "eiucs: r_L3 mean 1.0000 r_exp mean 1.0000\n"
    "beauty: r_L3 mean 0.7143 r_exp mean 1.0000\n"
    "abeauty-2: r_L3 mean 0.5714 r_exp mean 1.9141\n"
    "abeauty: r_L3 mean 0.5000 r_exp mean 3.8030\n"
    "wrote o/runs.csv, iterations.csv, summary.json\n"
)
BENCH_SHA256 = {
    "runs.csv": "77ee56240e5d03c5cd949a48d54527efda65388ad2a98f8aa7468f4aafe6042c",
    "iterations.csv": "22e3345c470ac912bf28ca91b0f7dc59b7d275722434dbb5cbab7acd15b8cde9",
    "summary.json": "ac727a9af86f580b5b13c255d51a7fb99f3cfe448f5616197569a170db2f6d6a",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # relative names keep tmp_path out of the instance_id column
    monkeypatch.chdir(tmp_path)
    dump_problem(synth_estimators(gen_random_graph(30, 0.15, (1, 20), 35), 2), "p.json")
    return tmp_path


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_solve_output_and_metrics_row(workdir, capsys, case):
    argv, code, stdout, row = SOLVE_CASES[case]
    assert main(["solve", "--graph", "p.json", *argv, "--metrics-out", "m.csv"]) == code
    assert capsys.readouterr() == (stdout, "")
    # csv rows end in CRLF, the csv module's default
    assert (workdir / "m.csv").read_bytes() == f"{HEADER}\r\n{row}\r\n".encode()


def test_bench_output_files(workdir, capsys):
    (workdir / "suite.json").write_text(json.dumps(SUITE))
    assert main(["bench", "--suite", "suite.json", "--out-dir", "o"]) == 0
    assert capsys.readouterr() == (BENCH_STDOUT, "")
    digests = {
        name: hashlib.sha256((workdir / "o" / name).read_bytes()).hexdigest()
        for name in BENCH_SHA256
    }
    assert digests == BENCH_SHA256
