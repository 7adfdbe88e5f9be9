"""Command-line front end.

Exit codes: 0 success, 2 no path to any goal, 3 invalid input (or too large
to allocate), 4 benchmark budget exhausted (some cell timed out).
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import _materialize, run_algorithm, run_suite, write_runs_csv
from .io import dump_problem, dump_weighted, load_problem, load_suite, load_weighted
from .synth import synth_estimators

EXIT_OK = 0
EXIT_NO_PATH = 2
EXIT_BAD_INPUT = 3
EXIT_TIMEOUT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; reserve 2 for "no path" and treat
    # bad invocations as bad input
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="slbsearch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="run one algorithm on a problem file")
    p.add_argument("--graph", required=True)
    p.add_argument("--alg", required=True, choices=["eiucs", "beauty", "abeauty"])
    p.add_argument("--l-est", type=float, default=math.inf)
    p.add_argument("--l-prune", type=float, default=math.inf)
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--metrics-out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("synth", help="attach estimator sequences to a weighted digraph")
    p.add_argument("--weighted-graph", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gen", help="generate a weighted digraph")
    p.add_argument("--model", required=True, choices=["random", "grid"])
    p.add_argument("--n", type=int)
    p.add_argument("--edge-prob", type=float)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--cost-min", type=int, required=True)
    p.add_argument("--cost-max", type=int, required=True)
    p.add_argument("--rng-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a benchmark suite config")
    p.add_argument("--suite", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def _fmt_path(problem, path) -> str:
    return "->".join(str(v) for v in path.vertices(problem.graph))


def _cmd_solve(args) -> int:
    problem = load_problem(args.graph)
    run = run_algorithm(
        problem, args.alg, max_iters=args.max_iters, l_est=args.l_est,
        l_prune=args.l_prune, epsilon=args.epsilon,
    )
    for rec in run.log or ():
        shown = _fmt_path(problem, rec.path) if rec.path else "-"
        print(
            f"iteration {rec.iteration}: path {shown} "
            f"l_under {rec.l_under:g} l_over {rec.l_over:g}"
        )
    if args.metrics_out:
        write_runs_csv(args.metrics_out, [(args.graph, args.alg, run)])

    if run.path is None:
        print("no path to any goal")
        return EXIT_NO_PATH

    print(f"path {_fmt_path(problem, run.path)}")
    print(f"edges {' '.join(str(e) for e in run.path.edges)}")
    print(f"opt {str(run.optimal).lower()}")
    print(f"l_under {run.l_under:g}")
    print(f"l_over {run.l_over:g}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    weighted = load_weighted(args.weighted_graph)
    problem = synth_estimators(weighted, args.seed)
    dump_problem(problem, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


_GEN_SHAPE_FLAGS = {"random": ("n", "edge_prob"), "grid": ("rows", "cols")}


def _cmd_gen(args) -> int:
    for model, names in _GEN_SHAPE_FLAGS.items():
        for name in names:
            if model != args.model and getattr(args, name) is not None:
                raise ValueError(f"model {args.model} takes no --{name.replace('_', '-')}")
    names = _GEN_SHAPE_FLAGS[args.model]
    if any(getattr(args, name) is None for name in names):
        flags = " and ".join(f"--{name.replace('_', '-')}" for name in names)
        raise ValueError(f"model {args.model} needs {flags}")
    wg = _materialize(vars(args))
    dump_weighted(wg, args.out)
    print(f"wrote {args.out} ({wg.vertex_count} vertices, {len(wg.tail)} edges)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = load_suite(args.suite)
    report = run_suite(config, out_dir=args.out_dir)
    print(f"cells {report.aggregates['cells']} excluded {len(report.excluded)}")
    for name, agg in report.aggregates["algorithms"].items():
        if "r_L3" in agg:
            print(
                f"{name}: r_L3 mean {agg['r_L3']['mean']:.4f} "
                f"r_exp mean {agg['r_exp']['mean']:.4f}"
            )
    print(f"wrote {args.out_dir}/runs.csv, iterations.csv, summary.json")
    for cell in report.excluded:
        print(f"timed out: {cell}", file=sys.stderr)
    return EXIT_TIMEOUT if report.excluded else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # the package raises no RuntimeError; catching it keeps any that
        # escapes a dependency on exit code 3 rather than a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
