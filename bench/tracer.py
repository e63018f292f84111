"""Identity-based span tracer for the modeloco benchmark.

The tracer wraps public functions of the program from outside: it resolves
each target once, then replaces every binding of that same function object
across the loaded ``modeloco`` modules (``policy`` and ``planner`` import
``step``, ``observe`` and ``act`` by name, so patching ``sim.step`` alone would
miss their calls). Spans are kept in memory with a parent id and written out
when the benchmark ends. A target that no longer exists is reported as absent
instead of failing, so the benchmark keeps running against later versions of
the program.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "modeloco"


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict | None = None


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module`` plus a dotted attribute path.

    ``post(args, kwargs, result)`` may return a dict of attributes (counts
    taken from the call) that is stored on the span after it closes.
    """

    name: str
    module: str
    attr: str
    post: Callable[[tuple, dict, Any], dict] | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, post=None):
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()
        if post is not None:
            span.attrs = post(args, kwargs, result)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the benchmark's own."""
        return self.call(name, fn, args, kwargs)


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per line: id, parent, name, start, end, attributes."""
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps([s.id, s.parent, s.name, s.t0, s.t1, s.attrs]) + "\n")


def _resolve(target: Target):
    """(owner, attribute name, function) for a target, or None when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # A class attribute is read from __dict__ so a function stays unbound.
    fn = vars(owner).get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if not callable(fn):
        return None
    return owner, leaf, fn


def install(targets: list[Target], make_wrapper: Callable[[Target, Callable], Callable]):
    """Wrap every binding of each target; returns (restore, absent names).

    ``make_wrapper(target, fn)`` builds the replacement for the original
    function ``fn``. ``restore()`` puts every original binding back.
    """
    patched: list[tuple[Any, str, Any]] = []
    absent: list[str] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for target in targets:
        found = _resolve(target)
        if found is None:
            absent.append(target.name)
            continue
        owner, leaf, fn = found
        wrapper = make_wrapper(target, fn)
        sites = [(owner, leaf)] if isinstance(owner, type) else []
        for mod in modules:
            sites += [(mod, k) for k, v in list(vars(mod).items()) if v is fn]
        for obj, key in sites:
            patched.append((obj, key, fn))
            setattr(obj, key, wrapper)

    def restore() -> None:
        for obj, key, fn in reversed(patched):
            setattr(obj, key, fn)

    return restore, absent


def trace(tracer: Tracer, targets: list[Target]):
    """Install span wrappers for targets into ``tracer``; see install()."""

    def make_wrapper(target: Target, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return tracer.call(target.name, fn, args, kwargs, target.post)

        traced.__wrapped__ = fn
        return traced

    return install(targets, make_wrapper)


def count_calls(targets: list[Target]):
    """Install plain call counters; returns (counts dict, restore, absent)."""
    counts = {t.name: 0 for t in targets}

    def make_wrapper(target: Target, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            counts[target.name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    restore, absent = install(targets, make_wrapper)
    return counts, restore, absent


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are in start order, so each parent's children arrive sorted by
    start time and their union can be merged in one pass.
    """
    covered = [0.0] * len(spans)
    reach: dict[int, float] = {}
    for s in spans:
        if s.parent < 0:
            continue
        p = spans[s.parent]
        lo = max(s.t0, p.t0, reach.get(s.parent, p.t0))
        hi = min(s.t1, p.t1)
        if hi > lo:
            covered[s.parent] += hi - lo
            reach[s.parent] = hi
    return [(s.t1 - s.t0) - c for s, c in zip(spans, covered)]


def ancestor_named(spans: list[Span], span: Span, name: str) -> Span | None:
    """The nearest enclosing span called ``name``, if any."""
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return spans[p]
        p = spans[p].parent
    return None
