"""Outside-in layer tracing for the benchmark.

Spans are recorded without touching the package source: ``Tracer.install``
rebinds public functions and methods of ``slbsearch`` to timing wrappers,
in every module namespace that holds them (``bench`` and ``cli`` import
names directly, so rebinding only the defining module would miss their
calls), and ``uninstall`` puts the originals back. Each span records its
name, start, end and parent; the run id is stamped once for the whole
trace. Spans stay in memory and are written out when the run ends.

The benchmark opens a root span (``harness.*``) around every call it times,
so per-layer self times within those roots add up to the timed total:
self time = span duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name; a dotted attribute names a method.
TRACED = (
    ("cli", "main"),
    ("bench", "run_suite"),
    ("anytime", "a_beauty"),
    ("search", "beauty"),
    ("search", "ei_ucs"),
    ("search", "beauty_ps"),
    ("estimation", "EstimationCache.__init__"),
    ("estimation", "EstimationCache.apply_next"),
    ("estimation", "EstimationCache.apply_final"),
    ("oracle", "oracle_lstar"),
    ("generators", "gen_random_graph"),
    ("generators", "gen_grid_graph"),
    ("synth", "synth_estimators"),
    ("graph", "EstimatedDigraph.arrays"),
    ("graph", "validate_graph"),
    ("io", "dump_weighted"),
    ("io", "load_weighted"),
    ("io", "dump_problem"),
    ("io", "load_problem"),
    ("io", "load_suite"),
)

SEARCH_SPANS = ("search.beauty", "search.ei_ucs")


def _counts(name, args, out):
    """Work counts recorded at a span's boundary, where the work happens."""
    if name in SEARCH_SPANS:
        m = out.metrics
        return (m.expansions, m.evaluations, m.prunings)
    if name == "anytime.a_beauty":
        return (out.iterations,)
    if name == "synth.synth_estimators":
        return (len(args[0].edges),)
    return None


class Tracer:
    """Span recorder. Not thread-safe; the benchmark runs one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [name, parent index or -1, start, end, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def root(self, name, fn, *args, **kwargs):
        """Run fn inside a harness span; return (result, start, end)."""
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx)
        rec = self.spans[idx]
        return out, rec[2], rec[3]

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][4] = _counts(name, args, out)
            return out

        return wrapper

    def install(self, package) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for modname, attr in TRACED:
            owner = getattr(package, modname)
            layer = modname
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self, roots: set[int]) -> dict[str, float]:
        """Self seconds per span name over the subtrees of the given roots."""
        child_time = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inside = self._descendants(roots)
        out = defaultdict(float)
        for idx in inside:
            name, _, start, end, _ = self.spans[idx]
            out[name] += (end - start) - child_time[idx]
        return dict(out)

    def _descendants(self, roots: set[int]) -> list[int]:
        # parents always precede children in self.spans
        keep = set(roots)
        for idx, span in enumerate(self.spans):
            if span[1] in keep:
                keep.add(idx)
        return sorted(keep)

    def roots_named(self, prefix: str) -> set[int]:
        return {
            i for i, s in enumerate(self.spans) if s[1] == -1 and s[0].startswith(prefix)
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, parent, start, end, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": idx, "parent": parent, "name": name,
                    "start": start, "end": end, "counts": counts,
                }) + "\n")
