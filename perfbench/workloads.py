"""The three workloads. Each stresses a different layer of slbsearch.

A workload builds its inputs in ``setup`` (called several times; each call
is one timed set-up) and then runs timed passes until the run's time is
up. Every timed call goes through ``Context.timed`` and every answer
through the gate, outside the timed region. Calls go through module
attributes (``pkg.search.beauty``), never through names bound at import,
so the tracer's rebinding sees them.

grid-anytime    few large solves: the search kernel dominates
random-queries  many small solves: per-call fixed costs dominate
cli-pipeline    the command line end to end: generators, JSON I/O, synth
                and bench dominate, the search is ~100 expansions
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io as _io
import json
import math
import random
import shutil
import time
from pathlib import Path

from speed import EVERY_S, Yardstick


def counts_of(metrics, passes: int = 1, edges: int = 0) -> dict:
    """Exact-count fingerprint of a Metrics value; every layer is kept."""
    return {
        "expansions": metrics.expansions,
        "evaluations": metrics.evaluations,
        "prunings": metrics.prunings,
        "w": list(metrics.layer_invocations),
        "T_w": metrics.estimation_time,
        "T_v": metrics.search_time,
        "passes": passes,
        "edges": edges,
    }


def add_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key == "w":
            w = total.setdefault("w", [])
            w.extend([0] * (len(value) - len(w)))
            for i, x in enumerate(value):
                w[i] += x
        else:
            total[key] = total.get(key, 0) + value


class Context:
    """Per-run state shared by the runner and a workload."""

    def __init__(self, pkg, seed: int, gate, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.gate = gate
        self.workdir = workdir  # files the run writes; removed when it ends
        self.tracer = None  # set while a traced pass or set-up runs
        self.yardstick = Yardstick()
        self.calls: list[tuple[str, float, float]] = []  # (label, start, end)
        self.paper: dict[str, list[float]] = {}  # per-unit paper-cost ratios
        self.extra: dict[str, float] = {}  # workload-specific report lines
        self.reuse_ratio = 0.0
        self.passes_run = 0  # warm-up pass of a traced run included
        self.io_bytes = 0  # written through slbsearch.io per set-up and pass

    def timed(self, label: str, fn, *args, **kwargs):
        """Run fn as one timed call and return its result.

        The host-speed yardstick is sampled before the call when the last
        sample is stale and after any call long enough to outlast it.
        Traced, the call is a harness span and its layers are children.
        """
        if self.yardstick.due():
            self.yardstick.sample()
        if self.tracer is not None:
            root = "harness.setup" if label == "setup" else "harness.call"
            out, t0, t1 = self.tracer.root(root, fn, *args, **kwargs)
        else:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
        self.calls.append((label, t0, t1))
        if t1 - t0 > EVERY_S:
            self.yardstick.sample()
        return out

    def ratio(self, name: str, num: float, den: float) -> None:
        if den > 0:
            self.paper.setdefault(name, []).append(num / den)


def _via_file(ctx, wg):
    """Hand the weighted graph over through its JSON file, as the CLI does."""
    path = ctx.workdir / "weighted.json"
    ctx.pkg.io.dump_weighted(wg, path)
    ctx.io_bytes = path.stat().st_size
    return ctx.pkg.io.load_weighted(path)


def _paper_costs(ctx, ei_cache, beauty_cache, ab_cache) -> None:
    """r_L3, r_exp and (T_w + T_v) ratios against ei_ucs, as bench defines them."""
    base_final = ei_cache.final_layer_invocations()
    base = ei_cache.snapshot_metrics()
    ab = ab_cache.snapshot_metrics()
    ctx.ratio("r_L3.beauty", beauty_cache.final_layer_invocations(), base_final)
    ctx.ratio("r_L3.abeauty-10", ab_cache.final_layer_invocations(), base_final)
    ctx.ratio("r_exp.abeauty-10", ab.expansions, base.expansions)
    ctx.ratio("t_sim_ratio.abeauty-10", ab.total_time, base.total_time)


def _solve_three(ctx, problem, l_star: float, what: str, first: bool) -> dict:
    """ei_ucs, beauty and a_beauty(10), each on a fresh cache; gate each."""
    pkg = ctx.pkg
    graph = problem.graph
    edges = len(graph.edges)
    gate = ctx.gate
    counts: dict = {}

    def fresh(fn, **kwargs):
        cache = pkg.estimation.EstimationCache(graph)
        return fn(problem, cache=cache, **kwargs), cache

    res, ei_cache = ctx.timed("eiucs", fresh, pkg.search.ei_ucs)
    gate.search(res, l_star, f"{what} ei_ucs")
    gate.charged_once(ei_cache, f"{what} ei_ucs")
    counts["eiucs"] = counts_of(res.metrics, 1, edges)

    res, be_cache = ctx.timed("beauty", fresh, pkg.search.beauty)
    gate.search(res, l_star, f"{what} beauty")
    gate.charged_once(be_cache, f"{what} beauty")
    counts["beauty"] = counts_of(res.metrics, 1, edges)

    ares, ab_cache = ctx.timed("abeauty", fresh, pkg.anytime.a_beauty, max_iterations=10)
    gate.anytime(ares, l_star, f"{what} a_beauty")
    gate.charged_once(ab_cache, f"{what} a_beauty")
    counts["abeauty-10"] = counts_of(ab_cache.snapshot_metrics(), ares.iterations, edges)

    if first:
        _paper_costs(ctx, ei_cache, be_cache, ab_cache)
    return counts


class GridAnytime:
    """150x150 directed grid, costs 1-9: each solve expands ~22.5k vertices.

    The grid's costs and the estimator seeds come from the workload seed.
    a_beauty needs 7 or 8 passes depending on the instance, which is most
    of abeauty_ms's spread between seeds.
    """

    name = "grid-anytime"
    side = 150
    costs = (1, 9)
    instances = 4
    setups = instances

    def __init__(self, ctx: Context):
        # synth reads its seed modulo 9: distinct residues, distinct instances
        self.est_seeds = random.Random(ctx.seed).sample(range(9), self.instances)
        self.problems: list = []
        self.l_star: dict[int, float] = {}

    def _build(self, ctx, est_seed):
        pkg = ctx.pkg
        wg = pkg.generators.gen_grid_graph(self.side, self.side, self.costs, ctx.seed)
        wg = _via_file(ctx, wg)
        problem = pkg.synth.synth_estimators(wg, est_seed)
        violations = pkg.graph.validate_graph(problem.graph)
        problem.graph.arrays()
        return problem, violations

    def setup(self, ctx: Context, i: int) -> None:
        est_seed = self.est_seeds[i]
        problem, violations = ctx.timed("setup", self._build, ctx, est_seed)
        ctx.gate.check(not violations, f"grid s{est_seed}: {len(violations)} graph violations")
        self.problems.append(problem)

    def probe_problem(self):
        return self.problems[0]

    def run_pass(self, ctx: Context, unit: int) -> dict:
        k = unit % self.instances
        problem = self.problems[k]
        first = k not in self.l_star
        if first:
            self.l_star[k] = ctx.pkg.oracle.oracle_lstar(problem)
        what = f"grid est-seed {self.est_seeds[k]}"
        counts = _solve_three(ctx, problem, self.l_star[k], what, first)
        return {"unit": f"est-seed-{self.est_seeds[k]}", "counts": counts}


class RandomQueries:
    """One random graph (n=5000, p=0.002, m~25k) and a few hundred queries.

    The graph, its estimators and the query starts are the same for every
    workload seed; the seed sets the order in which the queries arrive, and
    so what the shared cache already holds when each one does. Drawing
    them per seed instead would measure the draw: which vertices reach the
    goal is decided by the few edges into it, so the no-path share swings
    between ~0.6 and ~0.8 across graph seeds, and the median query moves
    by ~20% across start sets on one graph.
    """

    name = "random-queries"
    n = 5000
    edge_prob = 0.002
    costs = (1, 20)
    graph_seed = 0
    est_seed = 0
    queries = 200
    setups = 3

    def __init__(self, ctx: Context):
        # one start in each of `queries` equal slices of the vertex range
        fixed = random.Random(self.graph_seed)
        width = (self.n - 1) / self.queries
        self.starts = [int((q + fixed.random()) * width) for q in range(self.queries)]
        random.Random(ctx.seed).shuffle(self.starts)
        self.problem = None
        self.l_star: dict[int, float] = {}
        self.rounds = 0

    def _build(self, ctx):
        pkg = ctx.pkg
        wg = pkg.generators.gen_random_graph(self.n, self.edge_prob, self.costs, self.graph_seed)
        wg = _via_file(ctx, wg)
        problem = pkg.synth.synth_estimators(wg, self.est_seed)
        violations = pkg.graph.validate_graph(problem.graph)
        problem.graph.arrays()
        return problem, violations

    def setup(self, ctx: Context, i: int) -> None:
        self.problem = None  # each set-up starts from nothing
        self.problem, violations = ctx.timed("setup", self._build, ctx)
        ctx.gate.check(not violations, f"random graph: {len(violations)} graph violations")

    def probe_problem(self):
        return self.problem

    def run_pass(self, ctx: Context, unit: int) -> dict:
        pkg = ctx.pkg
        gate = ctx.gate
        graph = self.problem.graph
        goal = self.n - 1
        first = self.rounds == 0
        self.rounds += 1
        shared = ctx.timed("shared_cache", pkg.estimation.EstimationCache, graph)
        counts: dict = {}
        fresh_invocations = 0
        for q, start in enumerate(self.starts):
            problem = pkg.graph.Problem(graph, start, frozenset((goal,)))
            if start not in self.l_star:
                self.l_star[start] = pkg.oracle.oracle_lstar(problem)
            l_star = self.l_star[start]
            per_alg = _solve_three(ctx, problem, l_star, f"query {q} from {start}", first)
            fresh_invocations += sum(per_alg["beauty"]["w"])
            res = ctx.timed("beauty_shared", pkg.search.beauty, problem, shared)
            gate.search(res, l_star, f"query {q} from {start} shared beauty")
            per_alg["beauty-shared"] = counts_of(res.metrics, 1, len(graph.edges))
            for alg, c in per_alg.items():
                add_counts(counts.setdefault(alg, {}), c)
        gate.charged_once(shared, "shared cache")
        shared_invocations = shared.invocation_count()
        if fresh_invocations:
            ctx.reuse_ratio = shared_invocations / fresh_invocations
        no_path = sum(1 for s in self.starts if math.isinf(self.l_star[s]))
        ctx.extra["no_path_share"] = no_path / len(self.starts)
        return {"unit": "round", "counts": counts}


TREND_SUITE = {
    "instances": [
        {"id": "trend", "model": "random", "n": 200, "edge_prob": 0.05,
         "cost_min": 1, "cost_max": 20, "rng_seed": 424242}
    ],
    "seeds": list(range(9)),
    "algorithms": ["beauty", "abeauty-2", "abeauty-10"],
}

WARMUP_SUITE = {
    "instances": [
        {"id": "warm", "model": "random", "n": 60, "edge_prob": 0.1,
         "cost_min": 1, "cost_max": 20, "rng_seed": 1}
    ],
    "seeds": [0],
    "algorithms": ["beauty", "abeauty-2"],
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliPipeline:
    """gen -> synth -> solve (eiucs, beauty, abeauty) -> bench, in-process."""

    name = "cli-pipeline"
    n = 5000
    edge_prob = 0.002
    costs = (1, 20)
    setups = 7

    def __init__(self, ctx: Context):
        rng = random.Random(ctx.seed)
        self.est_seed = rng.randrange(9)
        self.dir = ctx.workdir
        self.suite = self.dir / "trend-suite.json"
        self.suite.write_text(json.dumps(TREND_SUITE))
        self.warm_suite = self.dir / "warm-suite.json"
        self.warm_suite.write_text(json.dumps(WARMUP_SUITE))
        self.problem = None
        self.l_star = math.nan
        self.trend_lstar: dict[str, float] = {}

    def _cli(self, ctx, argv):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.pkg.cli.main(argv)
        return code, out.getvalue()

    def _pipeline(self, ctx, tag: str, n: int, edge_prob: float, suite: Path, timed: bool):
        """Run the six CLI calls; return ([(name, exit, stdout)], directory)."""
        d = self.dir / tag
        d.mkdir(exist_ok=True)
        wg, prob = d / "wg.json", d / "problem.json"
        calls = [
            ("gen", ["gen", "--model", "random", "--n", str(n), "--edge-prob", str(edge_prob),
                     "--cost-min", str(self.costs[0]), "--cost-max", str(self.costs[1]),
                     "--rng-seed", str(ctx.seed), "--out", str(wg)]),
            ("synth", ["synth", "--weighted-graph", str(wg), "--seed", str(self.est_seed),
                       "--out", str(prob)]),
        ]
        for alg in ("eiucs", "beauty", "abeauty"):
            calls.append((alg, ["solve", "--graph", str(prob), "--alg", alg,
                                "--metrics-out", str(d / f"{alg}.csv")]))
        calls.append(("bench", ["bench", "--suite", str(suite), "--out-dir", str(d / "bench")]))
        results = []
        for name, argv in calls:
            if timed:
                # each command starts from a collected heap, as it would in a
                # process of its own; otherwise the collections the previous
                # command made due land in whichever command comes next
                gc.collect()
                code, out = ctx.timed(name, self._cli, ctx, argv)
            else:
                code, out = self._cli(ctx, argv)
            results.append((name, code, out))
        return results, d

    def setup(self, ctx: Context, i: int) -> None:
        # set-up is one small end-to-end pipeline, so lazy first-call work
        # (argument parsing, first file writes) is paid before timing
        results, _ = ctx.timed(
            "setup", self._pipeline, ctx, f"warm{i}", 300, 0.02, self.warm_suite, False
        )
        for name, code, _ in results:
            ctx.gate.check(code in (0, 2), f"warm-up {name}: exit {code}")

    def probe_problem(self):
        return self.problem

    def _reference(self, ctx, d: Path) -> None:
        """Answers the gate compares against, computed once per run."""
        pkg = ctx.pkg
        self.problem = pkg.io.load_problem(d / "problem.json")
        self.l_star = pkg.oracle.oracle_lstar(self.problem)
        spec = TREND_SUITE["instances"][0]
        wg = pkg.generators.gen_random_graph(
            spec["n"], spec["edge_prob"], (spec["cost_min"], spec["cost_max"]), spec["rng_seed"]
        )
        for s in TREND_SUITE["seeds"]:
            problem = pkg.synth.synth_estimators(wg, s)
            self.trend_lstar[f"{spec['id']}@s{s}"] = pkg.oracle.oracle_lstar(problem)

    def run_pass(self, ctx: Context, unit: int) -> dict:
        gate = ctx.gate
        results, d = self._pipeline(ctx, "pass", self.n, self.edge_prob, self.suite, timed=True)
        codes = {name: (code, out) for name, code, out in results}
        for name in ("gen", "synth", "bench"):
            gate.check(codes[name][0] == 0, f"cli {name}: exit {codes[name][0]}")
        first = self.problem is None
        if first:
            self._reference(ctx, d)
        for alg in ("eiucs", "beauty", "abeauty"):
            code, out = codes[alg]
            gate.cli_answer(code, out, self.l_star, f"cli solve --alg {alg}")

        with open(d / "bench" / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            l_star = self.trend_lstar.get(row["instance_id"], math.nan)
            gate.check(
                float(row["l_over"]) == l_star,
                f"trend {row['instance_id']} {row['algorithm']}: l_over {row['l_over']} != L* {l_star}",
            )
        with open(d / "bench" / "iterations.csv", newline="") as fh:
            logs: dict = {}
            for row in csv.DictReader(fh):
                logs.setdefault((row["instance_id"], row["algorithm"]), []).append(row)
        for (cell, alg), log in logs.items():
            for row in log:
                gate.bracket(float(row["l_under"]), self.trend_lstar.get(cell, math.nan),
                             float(row["l_over"]), f"trend {cell} {alg} pass {row['iteration']}")
            gate.repeats([float(row["l_under"]) for row in log])
        gate.repeats([
            float(line.split(" l_under ")[1].split()[0])
            for line in codes["abeauty"][1].splitlines() if line.startswith("iteration ")
        ])
        counts: dict = {}
        for alg in ("eiucs", "beauty", "abeauty"):
            with open(d / f"{alg}.csv", newline="") as fh:
                add_counts(counts.setdefault(f"solve-{alg}", {}), _csv_counts(next(csv.DictReader(fh))))
        for row in rows:
            add_counts(counts.setdefault(f"bench-{row['algorithm']}", {}), _csv_counts(row))
        stdout = "\n".join(out for _, _, out in results).replace(str(self.dir), "<dir>")
        counts["outputs"] = {
            name: _sha(d / name) for name in ("wg.json", "problem.json", "bench/runs.csv")
        }
        counts["outputs"]["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        ctx.io_bytes = (d / "wg.json").stat().st_size + (d / "problem.json").stat().st_size
        if first:
            self._trend_costs(ctx, d, rows)
        shutil.rmtree(d)
        return {"unit": "pipeline", "counts": counts}

    def _trend_costs(self, ctx, d: Path, rows) -> None:
        """Paper costs of the trend suite, from the files bench wrote."""
        summary = json.loads((d / "bench" / "summary.json").read_text())
        algs = summary["algorithms"]
        ctx.paper["r_L3.beauty"] = [algs["beauty"]["r_L3"]["mean"]]
        ctx.paper["r_L3.abeauty-10"] = [algs["abeauty-10"]["r_L3"]["mean"]]
        ctx.paper["r_exp.abeauty-10"] = [algs["abeauty-10"]["r_exp"]["mean"]]
        sim = {(r["instance_id"], r["algorithm"]): float(r["T_w"]) + float(r["T_v"]) for r in rows}
        for cell in sorted({r["instance_id"] for r in rows}):
            ctx.ratio("t_sim_ratio.abeauty-10", sim[(cell, "abeauty-10")], sim[(cell, "eiucs")])


def _csv_counts(row: dict) -> dict:
    """Counts from a metrics CSV row (the CSV schema carries w_1..w_3 only)."""
    return {
        "expansions": int(row["expansions"]),
        "evaluations": int(row["evaluations"]),
        "prunings": int(row["prunings"]),
        "w": [int(row[f"w_{i}"]) for i in (1, 2, 3)],
        "T_w": float(row["T_w"]),
        "T_v": float(row["T_v"]),
        "passes": int(row["iterations"]),
        "edges": 0,
    }


WORKLOADS = {w.name: w for w in (GridAnytime, RandomQueries, CliPipeline)}

