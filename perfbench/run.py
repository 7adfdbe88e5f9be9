"""slbsearch benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload grid-anytime --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, times passes for --seconds,
checks every answer against oracle_lstar (gate.py) and prints, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, times
scaled to a reference host speed (speed.py; the unscaled ones are printed
too); with --trace 1 passes alternate untraced and traced (spans.py) and
the metrics are per layer, plus the tracing overhead. When any check fails
the run prints the failures to stderr and exits 1 without reporting a
time.

Every result is stamped with the kernel backend, Python and numpy versions,
nproc, the commit and a hash of the code; --out writes the result as JSON
for compare.py, which refuses to compare results across backends. The
exact counts of each unit of work are written under .perfbench/ and must
repeat exactly in a later run of the same code and seed.
"""

import os

# one thread: keep numpy's BLAS pools (if any) from starting workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from gate import Gate  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

EXIT_FAILED_CHECKS = 1
EXIT_NO_PROGRAM = 2

# direct probes in a traced run: a query whose start is its goal (the
# per-call fixed cost) and oracle_lstar on the workload's own graph
FIXED_COST_REPEATS = 21
ORACLE_REPEATS = 3


def load_package():
    src = ROOT / "src"
    if not (src / "slbsearch" / "__init__.py").is_file():
        print(f"error: slbsearch sources not found under {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(src))
    import slbsearch
    import slbsearch.cli  # noqa: F401  (not imported by the package itself)

    return slbsearch


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slbsearch").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(pkg) -> dict:
    import numpy

    return {
        "backend": pkg.default_backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "code": code_hash(),
    }


class Pass:
    """One timed pass: the index range of its calls in Context.calls."""

    __slots__ = ("lo", "hi", "traced", "unit", "counts")

    def __init__(self, lo, hi, traced, info):
        self.lo = lo
        self.hi = hi
        self.traced = traced
        self.unit = info["unit"]
        self.counts = info["counts"]


def measure(ctx, wl, seconds: float, tracer) -> list[Pass]:
    """Set up, then run passes until the time is up."""
    pkg = ctx.pkg
    if tracer is not None:
        tracer.install(pkg)
        ctx.tracer = tracer
    try:
        for i in range(wl.setups):
            wl.setup(ctx, i)
    finally:
        if tracer is not None:
            tracer.uninstall()
            ctx.tracer = None

    passes: list[Pass] = []
    first_seen: dict[str, dict] = {}

    def fingerprint(unit, counts) -> None:
        if unit in first_seen:
            ctx.gate.same(first_seen[unit], counts, f"{wl.name} {unit}")
        else:
            first_seen[unit] = counts

    # a traced run times each unit twice, untraced then traced, after one
    # warm-up pass so that the first untraced pass is not the slowest
    min_passes = 1
    if tracer is not None:
        min_passes = 2
        info = wl.run_pass(ctx, 0)
        fingerprint(info["unit"], info["counts"])
        ctx.passes_run += 1
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        unit = i // 2 if tracer is not None else i
        if traced:
            tracer.install(pkg)
            ctx.tracer = tracer
        lo = len(ctx.calls)
        try:
            info = wl.run_pass(ctx, unit)
        finally:
            if traced:
                tracer.uninstall()
                ctx.tracer = None
        fingerprint(info["unit"], info["counts"])
        passes.append(Pass(lo, len(ctx.calls), traced, info))
        ctx.passes_run += 1
        i += 1
    ctx.yardstick.sample()  # brackets the last timed call
    ctx.fingerprint = first_seen
    return passes


class Timings:
    """Each timed call's seconds, raw and scaled to the reference host speed."""

    def __init__(self, ctx):
        scale = ctx.yardstick.scale
        self.labels = [label for label, _, _ in ctx.calls]
        self.raw = [t1 - t0 for _, t0, t1 in ctx.calls]
        self.scaled = [(t1 - t0) * scale(t0, t1) for _, t0, t1 in ctx.calls]

    def of(self, label: str, raw: bool = False) -> list[float]:
        values = self.raw if raw else self.scaled
        return [v for v, lab in zip(values, self.labels) if lab == label]

    def passes(self, passes, raw: bool = False) -> list[float]:
        values = self.raw if raw else self.scaled
        return [sum(values[p.lo:p.hi]) for p in passes]


def check_fingerprint(ctx, name: str, seed: int, code: str) -> None:
    """Exact counts must repeat between runs of the same code and seed."""
    path = SCRATCH / "fingerprints" / f"{name}-s{seed}-{code[:16]}.json"
    # round-trip through JSON so both sides compare as parsed values
    now = json.loads(json.dumps(ctx.fingerprint))
    before = json.loads(path.read_text()) if path.is_file() else {}
    for unit in sorted(now.keys() & before.keys()):
        ctx.gate.same(before[unit], now[unit], f"{name} seed {seed} {unit} vs an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**before, **now}, sort_keys=True))


LATENCIES = ("beauty", "abeauty", "eiucs")
PAPER_COSTS = ("r_L3.beauty", "r_L3.abeauty-10", "r_exp.abeauty-10", "t_sim_ratio.abeauty-10")


def end_to_end(ctx, timings: Timings, passes, raw: bool = False) -> dict:
    out = {
        "setup_s": (statistics.median(timings.of("setup", raw)), "s"),
        "e2e_s": (statistics.median(timings.passes(passes, raw)), "s"),
    }
    for name in LATENCIES:
        out[f"{name}_ms.p50"] = (statistics.median(timings.of(name, raw)) * 1e3, "ms")
    if raw:
        return out
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for name in PAPER_COSTS:
        out[name] = (statistics.fmean(ctx.paper[name]), "ratio")
    return out


def extras(ctx, timings: Timings, passes, raw_metrics: dict) -> list[str]:
    """Report lines: sample counts, raw times, host speed, workload extras."""
    counts = {}
    for label in timings.labels:
        counts[label] = counts.get(label, 0) + 1
    ys = ctx.yardstick.values
    lines = [
        f"samples: {len(passes)} passes; calls " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())),
        f"host speed: yardstick {statistics.median(ys) * 1e3:.3f} ms median, "
        f"{min(ys) * 1e3:.3f}-{max(ys) * 1e3:.3f} ms over {len(ys)} samples "
        f"(reference {REFERENCE_S * 1e3:.3f} ms)",
        "unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw_metrics.items()),
    ]
    for label in sorted(counts):
        values = timings.of(label)
        # a p95 only where at least ten samples lie above it
        if len(values) >= 200:
            p95 = statistics.quantiles(values, n=20)[18]
            lines.append(f"{label}_ms.p95 {p95 * 1e3:.4f} ms (n={len(values)})")
    if "beauty_shared" in counts:
        lines.append(f"beauty_shared_ms.p50 {statistics.median(timings.of('beauty_shared')) * 1e3:.4f} ms")
    for key, value in sorted(ctx.extra.items()):
        lines.append(f"{key} {value:.4f}")
    return lines


def _counts_per_pass(passes) -> dict:
    """Mean per pass of the exact counts summed over algorithms."""
    keys = ("expansions", "evaluations", "prunings", "T_w", "T_v")
    tot = dict.fromkeys(keys, 0.0)
    w = [0.0, 0.0, 0.0]
    for p in passes:
        for c in p.counts.values():
            if "w" not in c:  # output hashes, not counts
                continue
            for k in keys:
                tot[k] += c[k]
            for i, x in enumerate(c["w"]):
                if i >= len(w):
                    w.append(0.0)
                w[i] += x
    n = len(passes)
    out = {k: v / n for k, v in tot.items()}
    out["w"] = [x / n for x in w]
    return out


def _probe(fn, repeats: int) -> float:
    """Median seconds of a direct call, outside any pass."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(ctx, wl, tracer, timings: Timings, passes) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    setups = len(timings.of("setup"))
    pass_self = tracer.self_times(tracer.roots_named("harness.call"))
    setup_self = tracer.self_times(tracer.roots_named("harness.setup"))

    def in_pass(prefix):
        return sum(v for k, v in pass_self.items() if k.startswith(prefix)) / n

    def setup_and_pass(prefix):
        """One set-up plus one pass: the layers that build inputs run in either."""
        in_setup = sum(v for k, v in setup_self.items() if k.startswith(prefix))
        return in_setup / setups + in_pass(prefix)

    def durations(name):
        return [s[3] - s[2] for s in tracer.spans if s[0] == name]

    counts = _counts_per_pass(traced)
    traced_e2e = statistics.fmean(timings.passes(traced, raw=True))
    search_s = in_pass("search.")
    synth_spans = [s for s in tracer.spans if s[0] == "synth.synth_estimators"]
    synth_edges = sum(s[4][0] for s in synth_spans)
    anytime_passes = [s[4][0] for s in tracer.spans if s[0] == "anytime.a_beauty"]
    probe = wl.probe_problem()
    arr = probe.graph.arrays()
    goal = min(probe.goals)
    trivial = ctx.pkg.graph.Problem(probe.graph, goal, frozenset((goal,)))
    pkg = ctx.pkg
    fixed = _probe(
        lambda: pkg.search.beauty(trivial, pkg.estimation.EstimationCache(probe.graph)),
        FIXED_COST_REPEATS,
    )
    oracle = _probe(lambda: pkg.oracle.oracle_lstar(probe), ORACLE_REPEATS)

    out = {
        "search.self_s": (search_s, "s"),
        "search.us_per_expansion": (search_s / counts["expansions"] * 1e6 if counts["expansions"] else 0.0, "us"),
        "search.expansions": (counts["expansions"], "count"),
        "search.evaluations": (counts["evaluations"], "count"),
        "search.prunings": (counts["prunings"], "count"),
        "search.beauty_ps_s": (in_pass("search.beauty_ps"), "s"),
        "search.fixed_ms": (fixed * 1e3, "ms"),
        "estimation.self_s": (in_pass("estimation."), "s"),
        "estimation.cache_init_s": (in_pass("estimation.EstimationCache.__init__"), "s"),
        "estimation.T_w": (counts["T_w"], "count"),
        "estimation.reuse_ratio": (ctx.reuse_ratio, "ratio"),
        "estimation.double_charges": (ctx.gate.double_charges, "count"),
        "anytime.self_s": (in_pass("anytime."), "s"),
        "anytime.passes": (statistics.fmean(anytime_passes) if anytime_passes else 0.0, "count"),
        "anytime.repeat_passes": (ctx.gate.repeat_passes / ctx.passes_run, "count"),
        "generators.s": (setup_and_pass("generators."), "s"),
        "synth.s": (setup_and_pass("synth."), "s"),
        "synth.us_per_edge": (
            sum(durations("synth.synth_estimators")) / synth_edges * 1e6 if synth_edges else 0.0, "us"),
        "graph.arrays_s": (setup_and_pass("graph.EstimatedDigraph.arrays"), "s"),
        "graph.validate_s": (setup_and_pass("graph.validate_graph"), "s"),
        "graph.array_bytes": (sum(getattr(arr, f).nbytes for f in (
            "indptr", "succ_vertex", "succ_edge", "est_offsets", "est_lower", "est_upper", "est_time")),
            "bytes"),
        "io.dump_s": (setup_and_pass("io.dump_"), "s"),
        "io.load_s": (setup_and_pass("io.load_"), "s"),
        "io.bytes": (ctx.io_bytes, "bytes"),
        "oracle.lstar_s": (oracle, "s"),
        "harness.self_s": (in_pass("harness."), "s"),
        "trace.e2e_s": (traced_e2e, "s"),
        # scaled to host speed: the two sides of the difference ran at different times
        "trace.overhead_s": (
            statistics.fmean(timings.passes(traced)) - statistics.fmean(timings.passes(untraced)), "s"),
    }
    for i, w in enumerate(counts["w"], 1):
        out[f"estimation.w_{i}"] = (w, "count")
    by_layer: dict[str, float] = {}
    for name, sec in pass_self.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + sec / n
    report = [
        "self time per traced pass: "
        + ", ".join(f"{k} {v:.6f}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])),
        f"sum of self times {sum(by_layer.values()):.6f} s = traced e2e_s {traced_e2e:.6f} s",
        f"kernel share: search self time is {search_s / traced_e2e:.4f} of the timed calls",
        f"{len(tracer.spans)} spans from {setups} traced set-ups and {n} traced passes",
    ]
    return out, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the result as JSON here")
    args = parser.parse_args(argv)

    pkg = load_package()
    run_stamp = stamp(pkg)
    gate = Gate()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    ctx = Context(pkg, args.seed, gate, workdir)
    tracer = Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}") if args.trace else None
    try:
        wl = WORKLOADS[args.workload](ctx)
        passes = measure(ctx, wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_fingerprint(ctx, args.workload, args.seed, run_stamp["code"])

    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    if gate.failed:
        for what in gate.failures[:50]:
            print(f"FAILED {what}", file=sys.stderr)
        print(f"{gate.failed} of {gate.attempted} checks failed; no timings reported",
              file=sys.stderr)
        return EXIT_FAILED_CHECKS

    timings = Timings(ctx)
    raw = end_to_end(ctx, timings, passes, raw=True)
    if tracer is None:
        metrics = end_to_end(ctx, timings, passes)
        report = extras(ctx, timings, passes, raw)
    else:
        metrics, report = per_layer(ctx, wl, tracer, timings, passes)
        trace_path = SCRATCH / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_path)
        report.append(f"spans written to {trace_path.relative_to(ROOT)}")

    fp = hashlib.sha256(json.dumps(ctx.fingerprint, sort_keys=True).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed} fingerprint {fp[:16]}")
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      stamp=run_stamp, fingerprint=ctx.fingerprint,
                      unscaled={k: v for k, (v, _) in raw.items()})
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
