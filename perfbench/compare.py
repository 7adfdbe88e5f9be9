"""Summarize benchmark results and compare two sets of them.

    python3 perfbench/compare.py summarize DIR [--label TEXT]
    python3 perfbench/compare.py diff BASE NEW

DIR holds result files written by ``run.py --out``. ``summarize`` prints a
trajectory point: per workload and end-to-end metric, the median and
quartiles over the runs, with the runs' stamp. ``diff`` compares two sets;
BASE and NEW are each a results directory, a point file, or ``trajectory``
(the last point of perfbench/trajectory.json). A metric is ``worse`` when
NEW's median is worse than BASE's by more than the bound in BENCHMARK.json,
and ``unresolved`` when BASE's own quartile spread is wider than the bound.

Results from different kernel backends measure different programs, so
``summarize`` refuses to mix them and ``diff`` refuses to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
TRAJECTORY = HERE / "trajectory.json"
STAMP_KEYS = ("backend", "python", "numpy", "nproc", "commit")
EXIT_REFUSED = 3


class Refused(Exception):
    pass


def load_results(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return [r for r in records if r.get("trace") == 0]


def summarize(records: list[dict], label: str) -> dict:
    if not records:
        raise Refused("no untraced results to summarize")
    stamps = {json.dumps({k: r["stamp"][k] for k in STAMP_KEYS}, sort_keys=True) for r in records}
    backends = {r["stamp"]["backend"] for r in records}
    if len(backends) > 1:
        raise Refused(f"results mix kernel backends {sorted(backends)}")
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for r in records:
        for name, m in r["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    workloads = {}
    for wl, metrics in sorted(values.items()):
        workloads[wl] = {}
        for name, vs in metrics.items():
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            workloads[wl][name] = {
                "median": statistics.median(vs), "q1": q[0], "q3": q[2],
                "n": len(vs), "unit": units[name],
            }
    stamp = json.loads(stamps.pop()) if len(stamps) == 1 else {"backend": backends.pop(), "mixed": True}
    return {"label": label, "stamp": stamp, "workloads": workloads}


def load_point(arg: str) -> dict:
    if arg == "trajectory":
        return json.loads(TRAJECTORY.read_text())["points"][-1]
    path = Path(arg)
    if path.is_dir():
        return summarize(load_results(path), str(path))
    return json.loads(path.read_text())


def diff(base: dict, new: dict) -> list[str]:
    if base["stamp"]["backend"] != new["stamp"]["backend"]:
        raise Refused(
            f"backend {base['stamp']['backend']} vs {new['stamp']['backend']}: not comparable"
        )
    spec = json.loads(SPEC.read_text())
    lines = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for wl in sorted(base["workloads"].keys() & new["workloads"].keys()):
            b = base["workloads"][wl].get(name)
            n = new["workloads"][wl].get(name)
            if b is None or n is None:
                continue
            change = (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            spread = (b["q3"] - b["q1"]) / b["median"] if b["median"] else 0.0
            if spread > bound:
                verdict = "unresolved"
            elif sign * change > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            lines.append(
                f"{wl:15s} {name:24s} {b['median']:12.6g} -> {n['median']:12.6g} "
                f"{change:+8.2%} (bound {bound:.0%}, base spread {spread:.1%}) {verdict}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summarize")
    p.add_argument("directory", type=Path)
    p.add_argument("--label", default="")
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    try:
        if args.command == "summarize":
            print(json.dumps(summarize(load_results(args.directory), args.label), indent=1))
        else:
            print("\n".join(diff(load_point(args.base), load_point(args.new))))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    return 0


if __name__ == "__main__":
    sys.exit(main())
