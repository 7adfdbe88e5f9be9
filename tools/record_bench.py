"""Record one benchmark point as BENCH_<n>.json at the repository root.

    python3 tools/record_bench.py --label TEXT

Runs the benchmark command of BENCHMARK.json (perfbench/run.py) for
``run_seconds`` with ``--trace 0`` for each of its workloads and seeds
1-10, one process at a time, each run checking its answers against the
oracles before it reports a time. If any run exits non-zero or reports
``failed > 0``, or the runs stamp different code hashes, nothing is
written and the exit code is 1. Otherwise the runs are summarized into a
point by ``perfbench/compare.py summarize``, and that point is compared by
``compare.py diff`` with the highest-numbered BENCH_<n>.json, or with the
last point of perfbench/trajectory.json when there is none. The point's
``label``, ``stamp`` and ``workloads``, plus the ``diff`` lines, are
written to BENCH_<n+1>.json, itself a point that ``compare.py diff`` reads.
The stamp's ``code`` is the runs' hash of the measured sources (``src/``
and ``perfbench/``); its ``commit`` is the commit checked out, which an
uncommitted change being measured extends.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
COMPARE = ROOT / "perfbench" / "compare.py"
SEEDS = range(1, 11)


class Refused(Exception):
    pass


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)


def latest(root: Path) -> tuple[int, str]:
    """(n, what to diff against): the highest-numbered BENCH_<n>.json in
    root, or (0, "trajectory") when there is none."""
    numbers = [int(m[1]) for p in root.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    if not numbers:
        return 0, "trajectory"
    n = max(numbers)
    return n, str(root / f"BENCH_{n}.json")


def run_all(spec: dict, out_dir: Path, run=_run) -> str:
    """One benchmark run per workload and seed, each writing its result
    into out_dir; raise Refused at the first run that fails, or if the runs
    stamp different code hashes. The runs' code hash."""
    codes = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            out = out_dir / f"{workload}-s{seed}.json"
            done = run([*spec["command"], "--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", "0",
                        "--out", str(out)])
            what = f"{workload} seed {seed}"
            if done.returncode != 0:
                raise Refused(f"{what}: exit {done.returncode}\n{done.stderr[-2000:]}")
            result = json.loads(out.read_text())
            if result["failed"] > 0:
                raise Refused(f"{what}: {result['failed']} checks failed")
            codes.add(result["stamp"]["code"])
            if len(codes) > 1:
                raise Refused(f"{what}: the code changed during the runs")
            print(f"{what}: ok", flush=True)
    return codes.pop()


def _compare(*argv: str) -> str:
    done = _run([sys.executable, str(COMPARE), *argv])
    if done.returncode != 0:
        raise Refused(f"compare.py {argv[0]}: exit {done.returncode}\n{done.stderr}")
    return done.stdout


def record(label: str, root: Path = ROOT, run=_run) -> Path:
    """Run the benchmark and write the next BENCH_<n>.json in root; its path."""
    spec = json.loads(SPEC.read_text())
    n, prev = latest(root)
    with tempfile.TemporaryDirectory() as tmp:
        results, point_file = Path(tmp) / "results", Path(tmp) / "point.json"
        results.mkdir()
        code = run_all(spec, results, run)
        point_file.write_text(_compare("summarize", str(results), "--label", label))
        lines = _compare("diff", prev, str(point_file)).splitlines()
        point = json.loads(point_file.read_text())
    bench = {key: point[key] for key in ("label", "stamp", "workloads")}
    bench["stamp"]["code"] = code
    bench["diff"] = lines
    path = root / f"BENCH_{n + 1}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    try:
        path = record(args.label)
    except Refused as exc:
        print(f"refused, nothing written: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path.name}")
    print("\n".join(json.loads(path.read_text())["diff"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
