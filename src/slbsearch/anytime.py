"""Anytime wrapper: repeat the lazy search with self-supplied thresholds.

Each pass runs ``beauty`` with l_est set to the best certified lower bound
so far and l_prune to the best fully-estimated path bound so far, sharing
one estimation cache throughout so no estimator is ever paid for twice.
The bracket [l_under, l_over] tightens monotonically until a pass certifies
its path or the bracket closes (l_under >= l_over: an earlier pass's path
already attains the optimum); the final pass forces certification by
setting both thresholds to l_over. Where path sums are exact, a pass that
pops a goal at the optimum certifies it, so l_under rises strictly from
pass to pass. The returned path is the one attaining the folded l_over,
which may come from an earlier pass than the last. After each logged
pass, the path attaining that record's l_over is a valid answer within
l_over / l_under of the optimum. Nothing interrupts a running loop:
``max_iterations`` and ``epsilon`` are the only ways to stop it early,
and the last allowed pass is forced to certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimation import EstimationCache, Metrics
from .graph import Path, Problem
from .search import beauty

__all__ = ["IterationRecord", "AnytimeResult", "a_beauty"]


@dataclass(frozen=True)
class IterationRecord:
    """One pass of the anytime loop.

    path is this pass's own path. l_under and l_over are the bracket after
    the pass: l_under is this pass's, l_over is folded across all passes so
    far and so may belong to an earlier pass's path. metrics_delta is the
    cost of this pass alone.
    """

    iteration: int
    path: Path | None
    l_under: float
    l_over: float
    metrics_delta: Metrics


@dataclass(frozen=True)
class AnytimeResult:
    path: Path | None
    l_star: float
    log: tuple[IterationRecord, ...]

    @property
    def found(self) -> bool:
        return self.path is not None

    @property
    def iterations(self) -> int:
        return len(self.log)


def check_max_iterations(max_iterations: int) -> None:
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")


def check_epsilon(epsilon: float | None) -> None:
    if epsilon is not None and not epsilon >= 0:
        raise ValueError("epsilon must be non-negative (not NaN)")


def a_beauty(
    problem: Problem,
    max_iterations: int = 10,
    epsilon: float | None = None,
    cache: EstimationCache | None = None,
) -> AnytimeResult:
    """Iterate the lazy search to a certified tightest bound.

    Runs at most max_iterations passes; the last allowed pass (or the pass
    after the bracket ratio l_over/l_under drops to 1 + epsilon, when
    epsilon is given) is forced to certify by setting l_est = l_prune =
    l_over. The loop also stops, without another pass, once the bracket
    closes (l_under >= l_over). Returns the path attaining the folded
    l_over (the latest pass's path when several attain it), that bound,
    and the per-pass log. An unreachable goal yields (None, inf) after a
    single exhausting pass.
    """
    check_max_iterations(max_iterations)
    check_epsilon(epsilon)
    if cache is None:
        cache = EstimationCache(problem.graph)
    l_under = 0.0
    l_over = math.inf
    log: list[IterationRecord] = []
    path: Path | None = None
    for it in range(1, max_iterations + 1):
        close_enough = (
            epsilon is not None
            and l_under > 0.0
            and math.isfinite(l_over)
            and l_over / l_under <= 1.0 + epsilon
        )
        force = it == max_iterations or close_enough
        l_est = l_over if force else l_under
        res = beauty(problem, cache, l_est=l_est, l_prune=l_over)
        if not res.found:
            log.append(IterationRecord(it, None, math.inf, math.inf, res.metrics))
            return AnytimeResult(None, math.inf, tuple(log))
        if res.l_over <= l_over:
            path = res.path
            l_over = res.l_over
        l_under = res.l_under
        log.append(IterationRecord(it, res.path, l_under, l_over, res.metrics))
        if res.opt or force or l_under >= l_over:
            break
    return AnytimeResult(path, l_over, tuple(log))

