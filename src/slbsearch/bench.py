"""Benchmark suites: run algorithm grids over instance sets and aggregate.

A suite config is a dict (usually loaded from JSON) with only these keys:

  instances        list of instance specs, each {"id": ..., "model": ...}
                   plus only the keys of its model, one of
                     "random"        n, edge_prob, cost_min, cost_max, rng_seed
                     "grid"          rows, cols, cost_min, cost_max, rng_seed
                     "weighted_file" path to a weighted digraph JSON
                     "problem_file"  path to an already-estimated problem JSON
  seeds            estimator-synthesis seeds ([0] when absent); each (instance,
                   seed) pair is one cell (problem_file instances skip
                   synthesis and form a single cell)
  algorithms       any of "eiucs", "beauty", "abeauty-<k>" (k without leading
                   zeros; "abeauty" means "abeauty-10"), each at most once
  timeout_seconds  optional non-negative wall-clock budget per run; a cell
                   with any run over budget is excluded from aggregates and
                   listed separately (runs are not preempted, only disqualified)

The estimation-indifferent baseline is always run per cell, whether or not
it is listed, because the headline ratios are relative to it:
r_L3 = final-layer invocations over the baseline's, r_exp = expansions over
the baseline's.
"""

from __future__ import annotations

import json
import math
import re
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .anytime import a_beauty, check_epsilon, check_max_iterations
from .estimation import EstimationCache, Metrics, write_metrics_csv
from .generators import gen_grid_graph, gen_random_graph
from .graph import Path, Problem
from .io import load_problem, load_weighted
from .oracle import oracle_lstar
from .search import beauty, check_thresholds, ei_ucs
from .synth import synth_estimators

__all__ = ["RunRecord", "SuiteReport", "run_suite"]


@dataclass(frozen=True)
class Run:
    """One algorithm on one problem and a fresh cache. log is the anytime
    loop's per-pass log (None for one pass); final_layer_invocations counts
    the edges whose last (tightest) estimator was invoked."""

    path: Path | None
    l_under: float
    l_over: float
    optimal: bool
    iterations: int
    metrics: Metrics
    log: tuple | None
    wall_time: float
    final_layer_invocations: int


@dataclass(frozen=True)
class RunRecord(Run):
    """One algorithm run on one cell."""

    instance_id: str
    seed: int | None
    algorithm: str
    l_star: float

    @property
    def cell_id(self) -> str:
        return self.instance_id if self.seed is None else f"{self.instance_id}@s{self.seed}"


@dataclass
class SuiteReport:
    records: list[RunRecord] = field(default_factory=list)
    excluded: list[str] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


def _parse_algorithm(name: str):
    """Suite algorithm name -> (run_algorithm's algorithm, anytime pass budget)."""
    kind, _, k = name.partition("-")
    if name in ("eiucs", "beauty", "abeauty") or re.fullmatch("abeauty-[1-9][0-9]*", name):
        return kind, int(k or 10)
    raise ValueError(f"unknown algorithm {name!r}")


_SUITE_KEYS = ("instances", "seeds", "algorithms", "timeout_seconds")

# instance model -> required key -> the kind of value it takes
_MODEL_KEYS = {
    "random": {
        "n": "an integer", "edge_prob": "a number", "cost_min": "an integer",
        "cost_max": "an integer", "rng_seed": "an integer",
    },
    "grid": {
        "rows": "an integer", "cols": "an integer", "cost_min": "an integer",
        "cost_max": "an integer", "rng_seed": "an integer",
    },
    "weighted_file": {"path": "a string"},
    "problem_file": {"path": "a string"},
}


def _is(kind: str, value) -> bool:
    if kind == "a string":
        return isinstance(value, str)
    number = (int,) if kind == "an integer" else (int, float)
    # NaN is the one number unequal to itself; math.isnan overflows on big ints
    return isinstance(value, number) and not isinstance(value, bool) and value == value


def _repeats(values, keys=None) -> list:
    """The values whose key (by default the value itself) an earlier one has."""
    keys = values if keys is None else keys
    return [v for i, (v, key) in enumerate(zip(values, keys)) if key in keys[:i]]


def _check_suite(config: dict) -> None:
    """Reject a malformed suite document, naming the instance and the key."""
    unknown = [key for key in config if key not in _SUITE_KEYS]
    if unknown:
        raise ValueError(f"unknown suite key {unknown[0]!r}")
    instances = config.get("instances", [])
    if not isinstance(instances, (list, tuple)) or not all(
        isinstance(spec, dict) for spec in instances
    ):
        raise ValueError("suite key 'instances' must be a list of objects")
    for i, spec in enumerate(instances):
        if "id" not in spec or "model" not in spec:
            raise ValueError(f"instance {i}: instance spec needs 'id' and 'model'")
        where = f"instance {spec['id']!r}"
        model = spec["model"]
        if not isinstance(model, str) or model not in _MODEL_KEYS:
            raise ValueError(f"{where}: unknown instance model {model!r}")
        unknown = [key for key in spec if key not in ("id", "model", *_MODEL_KEYS[model])]
        if unknown:
            raise ValueError(f"{where}: model {model!r} takes no key {unknown[0]!r}")
        for key, kind in _MODEL_KEYS[model].items():
            if key not in spec:
                raise ValueError(f"{where}: model {model!r} needs key {key!r}")
            if not _is(kind, spec[key]):
                raise ValueError(f"{where}: key {key!r} must be {kind}")
    dups = _repeats([spec["id"] for spec in instances])
    if dups:
        raise ValueError(f"instance id {dups[0]!r} is used twice")
    for key, kind in (("seeds", "an integer"), ("algorithms", "a string")):
        values = config.get(key, [])
        if not isinstance(values, (list, tuple)) or not all(_is(kind, v) for v in values):
            raise ValueError(f"suite key {key!r} must be a list, each item {kind}")
        # "abeauty" and "abeauty-10" are one algorithm under two names
        keys = [_parse_algorithm(v) for v in values] if key == "algorithms" else values
        dups = _repeats(values, keys)
        if dups:
            raise ValueError(f"suite key {key!r} lists {dups[0]!r} twice")
    timeout = config.get("timeout_seconds", 0)
    if not (_is("a number", timeout) and timeout >= 0):
        raise ValueError("suite key 'timeout_seconds' must be a non-negative number")


def _materialize(spec: dict):
    """Instance spec -> weighted digraph or pre-built problem."""
    model = spec["model"]
    if model in ("weighted_file", "problem_file"):
        return (load_weighted if model == "weighted_file" else load_problem)(spec["path"])
    costs = (spec["cost_min"], spec["cost_max"])
    if model == "random":
        return gen_random_graph(spec["n"], spec["edge_prob"], costs, spec["rng_seed"])
    return gen_grid_graph(spec["rows"], spec["cols"], costs, spec["rng_seed"])


def _built(inst_id, build, *args):
    """build(*args), naming the instance in any ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"instance {inst_id!r}: {exc}") from None


def run_algorithm(
    problem: Problem,
    algorithm: str,
    max_iters: int = 10,
    l_est: float = math.inf,
    l_prune: float = math.inf,
    epsilon: float | None = None,
) -> Run:
    """Run "eiucs", "beauty" or "abeauty" on a fresh estimation cache.

    l_est and l_prune go to beauty alone, max_iters and epsilon to the
    anytime loop alone, whose bracket is its last pass's and which counts
    as optimal whenever it found a path (its final pass certifies). Every
    value is checked whichever algorithm runs, so a bad one is rejected
    even where it would be ignored.
    """
    if algorithm not in ("eiucs", "beauty", "abeauty"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    check_thresholds(l_est, l_prune)
    check_max_iterations(max_iters)
    check_epsilon(epsilon)
    cache = EstimationCache(problem.graph)
    t0 = time.perf_counter()
    if algorithm == "abeauty":
        res = a_beauty(problem, max_iterations=max_iters, epsilon=epsilon, cache=cache)
        log, last, optimal = res.log, res.log[-1], res.found
    else:
        if algorithm == "beauty":
            res = beauty(problem, cache, l_est=l_est, l_prune=l_prune)
        else:
            res = ei_ucs(problem, cache)
        log, last, optimal = None, res, res.opt
    wall = time.perf_counter() - t0
    return Run(
        path=res.path, l_under=last.l_under, l_over=last.l_over, optimal=optimal,
        iterations=1 if log is None else len(log), metrics=cache.snapshot_metrics(),
        log=log, wall_time=wall, final_layer_invocations=cache.final_layer_invocations(),
    )


def write_runs_csv(path, runs) -> None:
    """Write (instance_id, algorithm, Run) triples as runs.csv rows: the
    schema of both bench's runs.csv and solve --metrics-out."""
    write_metrics_csv(
        path,
        ("instance_id", "algorithm"),
        ("l_under", "l_over", "optimal_flag", "iterations"),
        [
            ((instance_id, algorithm), run.metrics,
             (run.l_under, run.l_over, int(run.optimal), run.iterations))
            for instance_id, algorithm, run in runs
        ],
    )


def _stats(values, extended=False) -> dict:
    arr = np.asarray(values, dtype=float)
    out = {"mean": float(arr.mean()), "stddev": float(arr.std()), "count": int(arr.size)}
    if extended:
        out.update(
            median=float(np.median(arr)), min=float(arr.min()), max=float(arr.max())
        )
    return out


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def run_suite(config: dict, out_dir=None) -> SuiteReport:
    """Run a suite and aggregate; optionally write runs.csv, iterations.csv
    and summary.json under out_dir. A malformed suite raises ValueError
    before anything runs."""
    _check_suite(config)
    timeout = float(config.get("timeout_seconds", math.inf))
    # the baseline runs first in every cell, whether or not it is listed
    names = ["eiucs"] + [name for name in config.get("algorithms", []) if name != "eiucs"]
    runs = [(name,) + _parse_algorithm(name) for name in names]

    report = SuiteReport()
    by_cell: dict[str, dict[str, RunRecord]] = {}

    for spec in config.get("instances", []):
        inst_id = spec["id"]
        payload = _built(inst_id, _materialize, spec)
        cell_seeds = [None] if isinstance(payload, Problem) else config.get("seeds", [0])
        for seed in cell_seeds:
            problem = payload if seed is None else _built(inst_id, synth_estimators, payload, seed)
            l_star = oracle_lstar(problem)
            cell = {
                name: RunRecord(
                    instance_id=inst_id, seed=seed, algorithm=name, l_star=l_star,
                    **vars(run_algorithm(problem, kind, max_iters)),
                )
                for name, kind, max_iters in runs
            }
            report.records.extend(cell.values())
            if any(rec.wall_time > timeout for rec in cell.values()):
                report.excluded.append(cell["eiucs"].cell_id)
            else:
                by_cell[cell["eiucs"].cell_id] = cell

    report.aggregates = _aggregate(by_cell, names)
    if out_dir is not None:
        _write_outputs(report, FsPath(out_dir))
    return report


def _aggregate(by_cell, names) -> dict:
    per_alg: dict[str, dict] = {}
    for name in names:
        r_l3 = []
        r_exp = []
        final_iters: Counter[int] = Counter()
        conv: defaultdict[int, list[float]] = defaultdict(list)
        prune_frac: defaultdict[int, list[float]] = defaultdict(list)
        for cell in by_cell.values():
            rec = cell[name]
            base = cell["eiucs"]
            if base.final_layer_invocations > 0:
                r_l3.append(rec.final_layer_invocations / base.final_layer_invocations)
            if base.metrics.expansions > 0:
                r_exp.append(rec.metrics.expansions / base.metrics.expansions)
            if rec.log is not None:
                final_iters[rec.iterations] += 1
                for entry in rec.log:
                    if math.isfinite(rec.l_star) and rec.l_star > 0:
                        conv[entry.iteration].append(entry.l_under / rec.l_star)
                    ev = entry.metrics_delta.evaluations
                    frac = entry.metrics_delta.prunings / ev if ev > 0 else 0.0
                    prune_frac[entry.iteration].append(frac)
        agg: dict = {}
        if r_l3:
            agg["r_L3"] = _stats(r_l3, extended=True)
        if r_exp:
            agg["r_exp"] = _stats(r_exp)
        if final_iters:
            agg["final_iteration_histogram"] = {
                str(k): v for k, v in sorted(final_iters.items())
            }
            agg["l_under_over_lstar_by_iteration"] = {
                str(k): _stats(v) for k, v in sorted(conv.items())
            }
            agg["pruned_per_evaluated_by_iteration"] = {
                str(k): _stats(v) for k, v in sorted(prune_frac.items())
            }
        per_alg[name] = agg
    return {"cells": len(by_cell), "algorithms": per_alg}


def _write_outputs(report: SuiteReport, out_dir: FsPath) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_runs_csv(
        out_dir / "runs.csv", [(rec.cell_id, rec.algorithm, rec) for rec in report.records]
    )
    write_metrics_csv(
        out_dir / "iterations.csv",
        ("instance_id", "algorithm", "iteration", "l_under", "l_over"),
        (),
        [
            (
                (rec.cell_id, rec.algorithm, entry.iteration, entry.l_under, entry.l_over),
                entry.metrics_delta,
                (),
            )
            for rec in report.records
            for entry in rec.log or ()
        ],
    )
    summary = {
        "cells": report.aggregates.get("cells", 0),
        "excluded": report.excluded,
        "algorithms": report.aggregates.get("algorithms", {}),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_sanitize(summary), fh, indent=2)
        fh.write("\n")
