"""Benchmark suites: run algorithm grids over instance sets and aggregate.

A suite config is a dict (usually loaded from JSON) with keys:

  instances        list of instance specs, each {"id": ..., "model": ...}
                   where model is one of
                     "random"        n, edge_prob, cost_min, cost_max, rng_seed
                     "grid"          rows, cols, cost_min, cost_max, rng_seed
                     "weighted_file" path to a weighted digraph JSON
                     "problem_file"  path to an already-estimated problem JSON
  seeds            estimator-synthesis seeds; each (instance, seed) pair is
                   one cell (problem_file instances skip synthesis and form
                   a single cell)
  algorithms       any of "eiucs", "beauty", "abeauty-<k>" ("abeauty" means
                   "abeauty-10")
  timeout_seconds  optional wall-clock budget per run; a cell with any run
                   over budget is excluded from aggregates and listed
                   separately (runs are not preempted, only disqualified)

The estimation-indifferent baseline is always run per cell, whether or not
it is listed, because the headline ratios are relative to it:
r_L3 = final-layer invocations over the baseline's, r_exp = expansions over
the baseline's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .anytime import a_beauty
from .estimation import EstimationCache, Metrics, write_metrics_csv
from .generators import WeightedDigraph, gen_grid_graph, gen_random_graph
from .graph import Problem, validate_graph
from .oracle import oracle_lstar
from .search import beauty, ei_ucs
from .synth import synth_estimators

__all__ = ["RunRecord", "SuiteReport", "run_suite"]

# the columns of runs.csv (and solve --metrics-out) around the metrics
RUN_HEAD = ("instance_id", "algorithm")
RUN_TAIL = ("l_under", "l_over", "optimal_flag", "iterations")


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one cell."""

    instance_id: str
    seed: int | None
    algorithm: str
    l_under: float
    l_over: float
    optimal: bool
    iterations: int
    metrics: Metrics
    final_layer_invocations: int
    wall_time: float
    l_star: float
    log: tuple | None = None

    @property
    def cell_id(self) -> str:
        return self.instance_id if self.seed is None else f"{self.instance_id}@s{self.seed}"


@dataclass
class SuiteReport:
    records: list[RunRecord] = field(default_factory=list)
    excluded: list[str] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


def _parse_algorithm(name: str):
    if name == "eiucs" or name == "beauty":
        return name, None
    if name == "abeauty":
        return "abeauty", 10
    if name.startswith("abeauty-"):
        k = name[len("abeauty-"):]
        if k.isdigit() and int(k) >= 1:
            return "abeauty", int(k)
    raise ValueError(f"unknown algorithm {name!r}")


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
    return isinstance(value, number) and not isinstance(value, bool) and not math.isnan(value)


def _check_suite(config: dict) -> None:
    """Reject a malformed suite document, naming the instance and the key."""
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
        for key, kind in _MODEL_KEYS[model].items():
            if key not in spec:
                raise ValueError(f"{where}: model {model!r} needs key {key!r}")
            if not _is(kind, spec[key]):
                raise ValueError(f"{where}: key {key!r} must be {kind}")
    for key, kind in (("seeds", "an integer"), ("algorithms", "a string")):
        values = config.get(key, [])
        if not isinstance(values, (list, tuple)) or not all(_is(kind, v) for v in values):
            raise ValueError(f"suite key {key!r} must be a list, each item {kind}")
    if not _is("a number", config.get("timeout_seconds", 0)):
        raise ValueError("suite key 'timeout_seconds' must be a number")


def _materialize(spec: dict):
    """Instance spec -> (id, weighted digraph or pre-built problem)."""
    from .io import load_problem, load_weighted

    model = spec["model"]
    if model == "random":
        wg = gen_random_graph(
            spec["n"],
            spec["edge_prob"],
            (spec["cost_min"], spec["cost_max"]),
            spec["rng_seed"],
        )
        return spec["id"], wg
    if model == "grid":
        wg = gen_grid_graph(
            spec["rows"],
            spec["cols"],
            (spec["cost_min"], spec["cost_max"]),
            spec["rng_seed"],
        )
        return spec["id"], wg
    if model == "weighted_file":
        return spec["id"], load_weighted(spec["path"])
    return spec["id"], load_problem(spec["path"])


def _check_graph(inst_id: str, problem: Problem) -> None:
    """Reject a graph read from a file that validate_graph finds defective."""
    violations = validate_graph(problem.graph)
    if violations:
        v = violations[0]
        raise ValueError(
            f"instance {inst_id!r}: invalid graph, {len(violations)} violations "
            f"(first: edge {v.edge}: {v.kind}: {v.detail})"
        )


def _run_one(kind: str, max_iters, problem: Problem) -> dict:
    cache = EstimationCache(problem.graph)
    t0 = time.perf_counter()
    if kind == "abeauty":
        ares = a_beauty(problem, max_iterations=max_iters, cache=cache)
        wall = time.perf_counter() - t0
        last = ares.log[-1]
        out = dict(
            l_under=last.l_under, l_over=last.l_over, optimal=ares.found,
            iterations=ares.iterations, metrics=cache.snapshot_metrics(),
            log=ares.log,
        )
    else:
        res = (ei_ucs if kind == "eiucs" else beauty)(problem, cache)
        wall = time.perf_counter() - t0
        out = dict(
            l_under=res.l_under, l_over=res.l_over, optimal=res.opt,
            iterations=1, metrics=res.metrics, log=None,
        )
    out["wall_time"] = wall
    out["final_layer_invocations"] = cache.final_layer_invocations()
    return out


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
    instances = config.get("instances", [])
    seeds = config.get("seeds", [0])
    algorithms = config.get("algorithms", [])
    timeout = float(config.get("timeout_seconds", math.inf))
    if not seeds:
        seeds = [0]
    parsed = [(name,) + _parse_algorithm(name) for name in algorithms]

    report = SuiteReport()
    by_cell: dict[str, dict[str, RunRecord]] = {}

    for spec in instances:
        inst_id, payload = _materialize(spec)
        cell_seeds = [None] if isinstance(payload, Problem) else list(seeds)
        for seed in cell_seeds:
            if isinstance(payload, Problem):
                problem = payload
            else:
                problem = synth_estimators(payload, seed)
            if spec["model"] in ("problem_file", "weighted_file"):
                _check_graph(inst_id, problem)
            l_star = oracle_lstar(problem)
            cell: dict[str, RunRecord] = {}
            timed_out = False

            def run(name, kind, max_iters):
                nonlocal timed_out
                fields = _run_one(kind, max_iters, problem)
                rec = RunRecord(
                    instance_id=inst_id, seed=seed, algorithm=name,
                    l_star=l_star, **fields,
                )
                if rec.wall_time > timeout:
                    timed_out = True
                cell[name] = rec
                return rec

            baseline = run("eiucs", "eiucs", None)
            for name, kind, max_iters in parsed:
                if name == "eiucs":
                    continue
                run(name, kind, max_iters)

            cell_id = baseline.cell_id
            ordered = [cell["eiucs"]] + [
                cell[name] for name, _, _ in parsed if name != "eiucs"
            ]
            report.records.extend(ordered)
            if timed_out:
                report.excluded.append(cell_id)
            else:
                by_cell[cell_id] = cell

    report.aggregates = _aggregate(by_cell, parsed)
    if out_dir is not None:
        _write_outputs(report, FsPath(out_dir))
    return report


def _aggregate(by_cell, parsed) -> dict:
    names = ["eiucs"] + [name for name, _, _ in parsed if name != "eiucs"]
    per_alg: dict[str, dict] = {}
    for name in names:
        r_l3 = []
        r_exp = []
        final_iters: dict[int, int] = {}
        conv: dict[int, list[float]] = {}
        prune_frac: dict[int, list[float]] = {}
        for cell in by_cell.values():
            if name not in cell:
                continue
            rec = cell[name]
            base = cell["eiucs"]
            if base.final_layer_invocations > 0:
                r_l3.append(rec.final_layer_invocations / base.final_layer_invocations)
            if base.metrics.expansions > 0:
                r_exp.append(rec.metrics.expansions / base.metrics.expansions)
            if rec.log is not None:
                final_iters[rec.iterations] = final_iters.get(rec.iterations, 0) + 1
                for entry in rec.log:
                    if math.isfinite(rec.l_star) and rec.l_star > 0:
                        conv.setdefault(entry.iteration, []).append(
                            entry.l_under / rec.l_star
                        )
                    ev = entry.metrics_delta.evaluations
                    frac = entry.metrics_delta.prunings / ev if ev > 0 else 0.0
                    prune_frac.setdefault(entry.iteration, []).append(frac)
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
    import json

    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(
        out_dir / "runs.csv",
        RUN_HEAD,
        RUN_TAIL,
        [
            (
                (rec.cell_id, rec.algorithm),
                rec.metrics,
                (rec.l_under, rec.l_over, int(rec.optimal), rec.iterations),
            )
            for rec in report.records
        ],
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
