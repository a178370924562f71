"""Span recorder for the traced run.

The program is not edited: ``install`` replaces the public functions of each
singlab module (and ``RingWithPotential.monomials_of``) with wrappers, in
every module that holds a reference to them, so calls through
``from .abgroup import reduce_element`` are seen too.

Each wrapped call is a span (name, start, end, parent span, job).  Spans stay
in memory and are written out by ``write_spans`` when the run ends; counts,
inclusive time and self time (duration minus the time of child spans) are
aggregated as the spans close.  Inclusive time of a name counts only its
outermost active call, so recursion and nesting are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("abgroup", "weightcalc", "decompose", "quiverlab", "mfengine",
           "linalg", "cli")
# Spans kept for the span file; aggregates cover every call regardless.
SPAN_CAP = 100_000


def _matrix_counts(tracer, args, kwargs):
    A = args[0] if args else kwargs.get("A")
    if A and A[0]:
        tracer.counters["linalg.rank.entries"] += len(A) * len(A[0])
        tracer.counters["linalg.rank.nnz"] += sum(1 for row in A for x in row if x)


def _monomial_cache_hit(tracer, args, kwargs):
    ring, target = args[0], args[1] if len(args) > 1 else kwargs["target"]
    cache = getattr(ring, "_monomial_cache", None)
    if cache is not None and target.canonical in cache:
        tracer.counters["mfengine.monomials_of.hits"] += 1


def _coxeter_size(tracer, args, kwargs):
    C = args[0] if args else kwargs["C"]
    key = "quiverlab.coxeter_polynomial.max_vertices"
    tracer.counters[key] = max(tracer.counters[key], C.rows)


def _search_stats(tracer, result):
    stats = getattr(result, "search_stats", None) or {}
    tracer.counters["decompose.nodes"] += stats.get("nodes", 0)
    tracer.counters["decompose.pruned"] += stats.get("pruned", 0)


def _emitted_bytes(tracer, result):
    tracer.counters["cli.emit.bytes"] += len(result.encode("utf-8"))


BEFORE = {
    "linalg.rank": _matrix_counts,
    "mfengine.monomials_of": _monomial_cache_hit,
    "quiverlab.coxeter_polynomial": _coxeter_size,
}
AFTER = {
    "decompose.min_partition": _search_stats,
    "cli.emit": _emitted_bytes,
}


def _groups(module: str, name: str) -> tuple:
    """Extra names a call is counted under besides its own."""
    if module == "weightcalc":
        return ("weightcalc",)
    if module == "cli" and name.endswith("_report") and name != "build_report":
        return ("cli.report",)
    return ()


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._depth = defaultdict(int)
        self._outer_start: dict = {}
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def _enter(self, name: str, keys: tuple):
        now = time.perf_counter()
        parent = self.stack[-1][3] if self.stack else -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        for key in keys:
            self.calls[key] += 1
            if self._depth[key] == 0:
                self._outer_start[key] = now
            self._depth[key] += 1
        frame = [name, keys, 0.0, index, parent, now]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        now = time.perf_counter()
        self.stack.pop()
        name, keys, child, index, parent, start = frame
        duration = now - start
        self.self_time[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        for key in keys:
            self._depth[key] -= 1
            if self._depth[key] == 0:
                self.inclusive[key] += now - self._outer_start[key]
        if index >= 0:
            self.spans[index] = (name, start, now, parent, self.job)

    @contextlib.contextmanager
    def job_span(self, job: int):
        """One job: the root span all its layer spans hang from."""
        self.job = job
        self.active = True
        frame = self._enter("job", ("job",))
        try:
            yield
        finally:
            self._exit(frame)
            self.active = False

    # -- installation -----------------------------------------------------

    def wrap(self, name: str, fn, keys: tuple):
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            frame = tracer._enter(name, keys)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def install(self, package: str = "singlab"):
        """Wrap the public functions of the package's layer modules."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (short == "cli" and name == "main")):
                    continue
                label = f"{short}.{name}"
                replaced[obj] = self.wrap(label, obj,
                                          (label,) + _groups(short, name))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, replaced[obj])
        ring = modules[MODULES.index("mfengine")].RingWithPotential
        original = ring.__dict__["monomials_of"]
        self._restore.append((ring, "monomials_of", original))
        ring.monomials_of = self.wrap("mfengine.monomials_of", original,
                                      ("mfengine.monomials_of",))

    def uninstall(self):
        """Put every original function back."""
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path, job_keys):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"jobs": job_keys, "dropped": self.dropped,
                                 "fields": ["name", "start", "end", "parent",
                                            "job"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
