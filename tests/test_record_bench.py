"""tools/record_bench.py on fake result files: no benchmark is run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAMP = {"backend": "numpy", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
         "commit": "0" * 40, "code": "c" * 64}


def fake_run(exit_at=None, failed_at=None, recoded_at=None):
    """A stand-in for one perfbench/run.py process: it writes a result file
    to --out, or exits 1 (writing nothing) for the (workload, seed) exit_at,
    reports two failed checks for failed_at and stamps another code hash
    for recoded_at. The argvs are kept."""
    calls = []

    def run(argv):
        calls.append(argv)
        flags = argv[len(SPEC["command"]):]
        opt = dict(zip(flags[::2], flags[1::2]))
        at = (opt["--workload"], int(opt["--seed"]))
        if at == exit_at:
            return subprocess.CompletedProcess(argv, 1, "", "2 of 9 checks failed")
        metrics = {m["name"]: {"value": 1.0 + at[1] / 100, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        stamp = {**STAMP, "code": "d" * 64} if at == recoded_at else STAMP
        record = {"workload": at[0], "seed": at[1], "trace": 0, "stamp": stamp,
                  "failed": 2 if at == failed_at else 0, "metrics": metrics}
        Path(opt["--out"]).write_text(json.dumps(record))
        return subprocess.CompletedProcess(argv, 0, "", "")

    run.calls = calls
    return run


def test_points_are_numbered_and_each_is_diffed_against_the_last(tmp_path):
    run = fake_run()
    first = record_bench.record("first", tmp_path, run)
    assert first == tmp_path / "BENCH_1.json"
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert len(run.calls) == 10 * len(workloads)  # seeds 1-10 per workload
    assert run.calls[0] == [*SPEC["command"], "--workload", workloads[0], "--seed", "1",
                            "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
                            "--out", run.calls[0][-1]]
    point = json.loads(first.read_text())
    assert sorted(point) == ["diff", "label", "stamp", "workloads"]
    assert point["label"] == "first" and sorted(point["workloads"]) == sorted(workloads)
    assert point["stamp"] == STAMP  # names the code the runs measured
    assert point["workloads"][workloads[0]]["e2e_s"]["n"] == 10
    assert point["diff"] and all(line.startswith(tuple(workloads)) for line in point["diff"])
    # a second point is diffed against the first: every median is unchanged
    second = record_bench.record("second", tmp_path, fake_run())
    assert second == tmp_path / "BENCH_2.json"
    assert all("+0.00%" in line for line in json.loads(second.read_text())["diff"])
    # the highest number counts, not the last name, and names that are not
    # BENCH_<n>.json do not
    for name in ("BENCH_9.json", "BENCH_10.json", "BENCH_12a.json", "BENCH_x.json"):
        (tmp_path / name).write_text(first.read_text())
    assert record_bench.latest(tmp_path) == (10, str(tmp_path / "BENCH_10.json"))
    # compare.py reads a written file as a point
    for base in ("trajectory", str(first)):
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"), "diff",
                               base, str(second)], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == len(point["diff"])


@pytest.mark.parametrize("fault", ["exit_at", "failed_at", "recoded_at"])
def test_a_failed_run_writes_nothing(tmp_path, fault):
    workload = SPEC["workloads"][-1]["name"]
    run = fake_run(**{fault: (workload, 4)})
    with pytest.raises(record_bench.Refused, match=f"{workload} seed 4"):
        record_bench.record("refused", tmp_path, run)
    assert list(tmp_path.iterdir()) == []
    assert run.calls[-1][run.calls[-1].index("--seed") + 1] == "4"  # stopped at it
