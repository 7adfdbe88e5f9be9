"""Correctness gate: every answer the benchmark times is checked here.

Checks are counted, never raised, so one run reports how many it made and
how many failed; the runner prints no timing when any failed. ``L*`` always
comes from ``oracle_lstar``, which shares no code with the search kernels.
"""

from __future__ import annotations

import math

import numpy as np


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.double_charges = 0
        # criterion-7 ties: the final anytime pass repeats the previous
        # pass's l_under. Counted for the trace, not a failure.
        self.repeat_passes = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def bracket(self, l_under: float, l_star: float, l_over: float, what: str) -> None:
        """l_under <= L* <= l_over (inf <= inf when no goal is reachable)."""
        self.check(l_under <= l_star <= l_over, f"{what}: bracket {l_under} <= {l_star} <= {l_over}")

    def search(self, res, l_star: float, what: str) -> None:
        """One search result at default (infinite) thresholds."""
        self.bracket(res.l_under, l_star, res.l_over, what)
        if res.opt:
            self.check(res.l_over == l_star, f"{what}: certified l_over {res.l_over} != L* {l_star}")
        self.check(
            res.found == math.isfinite(l_star) and (res.opt or not res.found),
            f"{what}: found={res.found} opt={res.opt} with L*={l_star}",
        )

    def anytime(self, res, l_star: float, what: str) -> None:
        for rec in res.log:
            self.bracket(rec.l_under, l_star, rec.l_over, f"{what} pass {rec.iteration}")
        self.check(res.l_star == l_star, f"{what}: final l_star {res.l_star} != L* {l_star}")
        self.repeats([rec.l_under for rec in res.log])

    def repeats(self, l_unders: list[float]) -> None:
        if len(l_unders) >= 2 and l_unders[-1] == l_unders[-2]:
            self.repeat_passes += 1

    def charged_once(self, cache, what: str) -> None:
        """Each estimator is charged at most once per cache."""
        invoked = cache.invoked
        tw = cache.snapshot_metrics().estimation_time
        est_time = cache.graph.arrays().est_time
        once = self.check(
            int(invoked.sum()) == int(cache.layer_counts.sum()),
            f"{what}: {int(invoked.sum())} estimators invoked but "
            f"{int(cache.layer_counts.sum())} charged",
        )
        once &= self.check(
            math.isclose(tw, float(np.sum(est_time[invoked])), rel_tol=1e-12, abs_tol=1e-9),
            f"{what}: T_w {tw} != summed est_time of invoked layers",
        )
        self.double_charges += not once

    def cli_answer(self, code: int, out: str, l_star: float, what: str) -> None:
        """Exit code and printed l_over of one `slbsearch solve` call."""
        if not math.isfinite(l_star):
            self.check(code == 2 and "no path to any goal" in out, f"{what}: exit {code} without a path")
            return
        if not self.check(code == 0, f"{what}: exit {code}, expected 0"):
            return
        fields = dict(
            line.split(" ", 1) for line in out.splitlines() if line.startswith(("l_over ", "opt "))
        )
        self.check(fields.get("opt") == "true", f"{what}: printed opt {fields.get('opt')}")
        # the CLI prints bounds with %g, six significant digits
        printed = float(fields.get("l_over", "nan"))
        self.check(
            math.isclose(printed, l_star, rel_tol=1e-6),
            f"{what}: printed l_over {printed} != L* {l_star}",
        )

    def same(self, first, again, what: str) -> None:
        """Exact-count fingerprints must repeat exactly."""
        self.check(first == again, f"{what}: fingerprint changed between repeats")
