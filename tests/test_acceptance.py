"""End-to-end acceptance gate.

Each numbered test checks one acceptance criterion and prints exactly one
PASS/FAIL line (run with -s to see them on success). Criteria with golden
values use the reference instance from conftest; the randomized criteria
pin their generator seeds so reruns are identical.
"""

import math
import time

import numpy as np
import pytest
from conftest import (
    E01, E02, E14, E21, E23, E24, charged_layers, make_reference_problem, random_problem,
)

from slbsearch import (
    EstimationCache,
    a_beauty,
    beauty,
    ei_ucs,
    full_estimate,
    gen_grid_graph,
    gen_random_graph,
    oracle_cstar,
    oracle_enumerate,
    oracle_lstar,
    problem_from_json,
    problem_to_json,
    run_suite,
    synth_estimators,
    validate_graph,
)

INF = math.inf


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def small_family():
    """1000 enumeration-checkable instances (n <= 12, cycles allowed)."""
    rng = np.random.default_rng(20260818)
    problems = [random_problem(rng, max_n=12) for _ in range(1000)]
    # touch the kernel once so no test below pays first-call overhead
    beauty(problems[0], EstimationCache(problems[0].graph))
    return [(p, oracle_lstar(p)) for p in problems]


@pytest.fixture(scope="module")
def large_family():
    """100 sparse synthesized instances, up to 500 vertices."""
    rng = np.random.default_rng(77)
    out = []
    for _ in range(100):
        n = int(rng.integers(50, 501))
        wg = gen_random_graph(n, min(1.0, 4.0 / n), (1, 20), int(rng.integers(0, 10**6)))
        problem = synth_estimators(wg, int(rng.integers(0, 10**6)))
        out.append((problem, oracle_lstar(problem)))
    return out


@pytest.fixture(scope="module")
def trend_report():
    config = {
        "instances": [
            {
                "id": "trend",
                "model": "random",
                "n": 200,
                "edge_prob": 0.05,
                "cost_min": 1,
                "cost_max": 20,
                "rng_seed": 424242,
            }
        ],
        "seeds": list(range(9)),
        "algorithms": ["beauty", "abeauty-2", "abeauty-10"],
    }
    return run_suite(config)


def test_criterion_01_reference_bounds_and_factor():
    problem = make_reference_problem()
    oracle_lstar(problem)  # warm path: numpy setup comes off the clock
    t0 = time.perf_counter()
    lstar = oracle_lstar(problem)
    cstar = oracle_cstar(problem)
    # the fully-estimated upper bound of the worse goal path 0-2-3 over L*
    factor = float(full_estimate(problem.graph).uppers[[E02, E23]].sum()) / lstar
    dt = time.perf_counter() - t0
    ok = (
        lstar == 7.0
        and cstar == 9.0
        and abs(factor - 13 / 7) <= 1e-12
        and dt < 1e-3
    )
    _report(1, ok, f"l_star {lstar:g} c_star {cstar:g} factor {factor:.12f} in {dt * 1e3:.3f} ms")


def test_criterion_02_lazy_golden_trace():
    problem = make_reference_problem()
    cache = EstimationCache(problem.graph)
    res = beauty(problem, cache)
    invoked = {
        (eid, layer)
        for eid in range(len(problem.graph.edges))
        for layer in charged_layers(cache, eid)
    }
    expected = {
        (E01, 1),
        (E02, 1), (E02, 2),
        (E14, 1), (E14, 2),
        (E21, 1),
        (E23, 1), (E23, 2),
        (E24, 1),
    }
    ok = (
        res.path is not None
        and res.path.edges == (E02, E24)
        and res.opt is True
        and res.l_under == 7.0
        and res.l_over == 7.0
        and invoked == expected
    )
    _report(2, ok, f"path {res.path.edges if res.path else None} opt {res.opt} "
                   f"bounds ({res.l_under:g}, {res.l_over:g}) invocations {len(invoked)}")


def test_criterion_03_anytime_golden_log():
    problem = make_reference_problem()
    out = a_beauty(problem, max_iterations=10)
    first, second = out.log[0], out.log[1] if len(out.log) > 1 else (None, None)
    log_ok = (
        len(out.log) == 2
        and first.path.edges == (E01, E14)
        and (first.l_under, first.l_over) == (5.0, 8.0)
        and first.metrics_delta.layer_invocations == (6, 1)
        and second.path.edges == (E02, E24)
        and (second.l_under, second.l_over) == (7.0, 7.0)
        and second.metrics_delta.layer_invocations == (0, 1)
        and out.path.edges == (E02, E24)
        and out.l_star == 7.0
    )
    # attribution of the lone refining invocation in pass one: replay the
    # pass on a fresh cache. Under l_est = 0 every positive probe breaks the
    # walk at its first estimator, so the second layer of the returned
    # path's edge can only have been charged after the search.
    cache = EstimationCache(problem.graph)
    replay = beauty(problem, cache, l_est=0.0, l_prune=INF)
    others = [e for e in (E01, E02, E21, E23, E24)]
    attribution_ok = (
        replay.path.edges == (E01, E14)
        and charged_layers(cache, E14) == (1, 2)
        and all(charged_layers(cache, e) == (1,) for e in others)
    )
    _report(3, log_ok and attribution_ok,
            f"log {[(r.path.edges, r.l_under, r.l_over) for r in out.log]} "
            f"returned ({out.path.edges}, {out.l_star:g}) "
            f"post-search refinement on edge {E14}: {attribution_ok}")


def test_criterion_04_oracle_equivalence(small_family, large_family):
    t0 = time.perf_counter()
    mismatches = 0
    for problem, lstar in small_family:
        res = beauty(problem, EstimationCache(problem.graph))
        values = {
            res.l_over if res.found else INF,
            a_beauty(problem, max_iterations=10).l_star,
            lstar,
            oracle_enumerate(problem),
        }
        if len(values) != 1:
            mismatches += 1
    for problem, lstar in large_family:
        res = beauty(problem, EstimationCache(problem.graph))
        values = {
            res.l_over if res.found else INF,
            a_beauty(problem, max_iterations=10).l_star,
            lstar,
        }
        if len(values) != 1:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 60.0
    _report(4, ok, f"{len(small_family)} small + {len(large_family)} large instances, "
                   f"{mismatches} mismatches, {dt:.2f} s")


def test_criterion_05_baseline_equivalence(small_family, large_family):
    violations = 0
    checked = 0
    for problem, _ in small_family + large_family:
        lazy_cache = EstimationCache(problem.graph)
        eager_cache = EstimationCache(problem.graph)
        lazy = beauty(problem, lazy_cache)
        eager = ei_ucs(problem, eager_cache)
        checked += 1
        lw, ew = lazy.metrics.layer_invocations, eager.metrics.layer_invocations
        same = (
            lazy.pops == eager.pops
            and lazy.metrics.expansions == eager.metrics.expansions
            and all(a <= b for a, b in zip(lw, ew))
        )
        if eager.metrics.expansions > 0:
            same = same and lazy.metrics.expansions / eager.metrics.expansions == 1.0
        if not same:
            violations += 1
    _report(5, violations == 0, f"{checked} instances, {violations} violations "
                                f"(pop sequences, r_exp = 1.0, layer dominance)")


def test_criterion_06_threshold_bracketing(small_family):
    rng = np.random.default_rng(6)
    checked = 0
    violations = 0
    for problem, lstar in small_family:
        if not math.isfinite(lstar):
            continue
        l_est = float(rng.integers(0, int(2 * lstar) + 2))
        l_prune = INF if rng.random() < 0.2 else lstar + float(rng.integers(0, 10))
        res = beauty(problem, EstimationCache(problem.graph), l_est=l_est, l_prune=l_prune)
        checked += 1
        ok = res.found and res.l_under <= lstar <= res.l_over
        if l_est < lstar:
            ok = ok and res.l_under > l_est
        else:
            ok = ok and res.opt and res.l_under == lstar == res.l_over
        if not ok:
            violations += 1
    ok = checked >= 500 and violations == 0
    _report(6, ok, f"{checked} thresholded runs, {violations} violations "
                   f"(bracketing, progress, certification)")


def test_criterion_07_anytime_monotonicity_and_caching(small_family):
    strict_violations = 0
    benign_repeats = 0  # final pass re-certifying the already-reached value
    over_regressions = 0
    charge_leaks = 0
    budget_failures = 0
    for problem, lstar in small_family:
        cache = EstimationCache(problem.graph)
        out = a_beauty(problem, max_iterations=10, cache=cache)
        unders = [r.l_under for r in out.log]
        overs = [r.l_over for r in out.log]
        for i, (a, b) in enumerate(zip(unders, unders[1:])):
            if not (b > a):
                strict_violations += 1
                if i + 2 == len(unders) and a == b == out.l_star:
                    benign_repeats += 1
                break
        if any(b > a for a, b in zip(overs, overs[1:])):
            over_regressions += 1
        if sum(r.metrics_delta.invocations for r in out.log) != cache.invocation_count():
            charge_leaks += 1
        two = a_beauty(problem, max_iterations=2)
        if two.iterations > 2 or two.l_star != lstar:
            budget_failures += 1
    ok = (
        strict_violations == 0
        and over_regressions == 0
        and charge_leaks == 0
        and budget_failures == 0
    )
    _report(7, ok, f"strict l_under increase violated {strict_violations}x "
                   f"({benign_repeats} of them a final pass repeating l_star exactly), "
                   f"l_over regressions {over_regressions}, double charges {charge_leaks}, "
                   f"two-pass failures {budget_failures}")


def test_criterion_08_savings_trend(trend_report):
    algs = trend_report.aggregates["algorithms"]
    beauty_r = algs["beauty"]["r_L3"]["mean"]
    anytime_r = algs["abeauty-2"]["r_L3"]["mean"]
    ok = beauty_r < 1.0 and anytime_r <= beauty_r
    _report(8, ok, f"mean final-layer ratio: lazy {beauty_r:.4f}, two-pass anytime "
                   f"{anytime_r:.4f} (context values: 0.6082 / 0.4603)")


def test_criterion_09_pruning_sanity(trend_report):
    frac = trend_report.aggregates["algorithms"]["abeauty-10"][
        "pruned_per_evaluated_by_iteration"
    ]
    later = [stats["mean"] for key, stats in frac.items() if int(key) >= 2]
    ok = (
        frac["1"]["mean"] == 0.0
        and frac["1"]["stddev"] == 0.0
        and len(later) > 0
        and all(v >= 0.0 for v in later)
    )
    _report(9, ok, f"iteration-1 pruned/evaluated {frac['1']['mean']:g}, "
                   f"later-iteration means {[round(v, 4) for v in later]}")


def test_criterion_10_round_trip_and_validation(large_family):
    problems = [make_reference_problem()]
    for seed in range(9):
        problems.append(synth_estimators(gen_random_graph(30, 0.2, (1, 20), seed), seed))
        problems.append(synth_estimators(gen_grid_graph(4, 5, (1, 9), seed), seed))
    problems.extend(p for p, _ in large_family[:10])
    bad_roundtrip = 0
    bad_validation = 0
    for problem in problems:
        text = problem_to_json(problem)
        if problem_to_json(problem_from_json(text)) != text:
            bad_roundtrip += 1
        if validate_graph(problem.graph):
            bad_validation += 1
    ok = bad_roundtrip == 0 and bad_validation == 0
    _report(10, ok, f"{len(problems)} instances, {bad_roundtrip} round-trip diffs, "
                    f"{bad_validation} validation rejections")
