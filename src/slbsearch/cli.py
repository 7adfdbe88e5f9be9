"""Command-line front end.

Exit codes: 0 success, 2 no path to any goal, 3 invalid input, 4 benchmark
budget exhausted (some cell timed out).
"""

from __future__ import annotations

import argparse
import math
import sys

from .anytime import a_beauty
from .bench import RUN_HEAD, RUN_TAIL, run_suite
from .estimation import EstimationCache, write_metrics_csv
from .generators import gen_grid_graph, gen_random_graph
from .graph import validate_graph
from .io import (
    dump_problem,
    dump_weighted,
    load_problem,
    load_suite,
    load_weighted,
)
from .search import beauty, ei_ucs
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
    violations = validate_graph(problem.graph)
    if violations:
        for v in violations:
            print(f"invalid graph: edge {v.edge}: {v.kind}: {v.detail}", file=sys.stderr)
        return EXIT_BAD_INPUT

    cache = EstimationCache(problem.graph)
    instance_id = args.graph

    if args.alg == "abeauty":
        result = a_beauty(
            problem, max_iterations=args.max_iters, epsilon=args.epsilon, cache=cache
        )
        for rec in result.log:
            shown = _fmt_path(problem, rec.path) if rec.path else "-"
            print(
                f"iteration {rec.iteration}: path {shown} "
                f"l_under {rec.l_under:g} l_over {rec.l_over:g}"
            )
        found = result.found
        l_under = result.log[-1].l_under
        l_over = result.l_star
        optimal = found
        iterations = result.iterations
        path = result.path
    else:
        fn = ei_ucs if args.alg == "eiucs" else beauty
        if args.alg == "beauty":
            res = fn(problem, cache, l_est=args.l_est, l_prune=args.l_prune)
        else:
            res = fn(problem, cache)
        found = res.found
        l_under, l_over, optimal = res.l_under, res.l_over, res.opt
        iterations = 1
        path = res.path

    if args.metrics_out:
        write_metrics_csv(
            args.metrics_out,
            RUN_HEAD,
            RUN_TAIL,
            [(
                (instance_id, args.alg),
                cache.snapshot_metrics(),
                (l_under, l_over, int(optimal), iterations),
            )],
        )

    if not found:
        print("no path to any goal")
        return EXIT_NO_PATH

    print(f"path {_fmt_path(problem, path)}")
    print(f"edges {' '.join(str(e) for e in path.edges)}")
    print(f"opt {str(optimal).lower()}")
    print(f"l_under {l_under:g}")
    print(f"l_over {l_over:g}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    weighted = load_weighted(args.weighted_graph)
    problem = synth_estimators(weighted, args.seed)
    dump_problem(problem, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.model == "random":
        if args.n is None or args.edge_prob is None:
            raise ValueError("model random needs --n and --edge-prob")
        wg = gen_random_graph(
            args.n, args.edge_prob, (args.cost_min, args.cost_max), args.rng_seed
        )
    else:
        if args.rows is None or args.cols is None:
            raise ValueError("model grid needs --rows and --cols")
        wg = gen_grid_graph(
            args.rows, args.cols, (args.cost_min, args.cost_max), args.rng_seed
        )
    dump_weighted(wg, args.out)
    print(f"wrote {args.out} ({wg.vertex_count} vertices, {len(wg.edges)} edges)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = load_suite(args.suite)
    report = run_suite(config, out_dir=args.out_dir)
    cells = report.aggregates.get("cells", 0)
    print(f"cells {cells} excluded {len(report.excluded)}")
    for name, agg in report.aggregates.get("algorithms", {}).items():
        if "r_L3" in agg:
            print(
                f"{name}: r_L3 mean {agg['r_L3']['mean']:.4f} "
                f"r_exp mean {agg['r_exp']['mean']:.4f}"
            )
    print(f"wrote {args.out_dir}/runs.csv, iterations.csv, summary.json")
    if report.excluded:
        for cell in report.excluded:
            print(f"timed out: {cell}", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # RuntimeError: the search found bounds no valid estimator yields
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
