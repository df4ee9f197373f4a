"""In-memory spans for the traced benchmark run.

The tracer wraps library functions at function granularity, never per cell.
Library modules bind names with ``from .x import f``, so a wrapper is
installed in every ``skinlink`` module namespace that holds the original
function object: that is where the caller looks the name up. Nothing is
installed unless ``install`` is called, so an untraced run executes the
library unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: perf_counter interval, causing span and sizes."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cells: int = 0
    points: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the calling thread and from worker threads.

    A span opened on a thread with no open span of its own gets as parent
    the innermost open span named in ``adopters`` (the sweep span that
    started the worker pool), so worker-thread work is attributed to it.
    """

    def __init__(self, adopters=("analysis.sweep",), clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters = frozenset(adopters)
        self._adopting: list[int] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            with self._lock:
                parent = self._adopting[-1] if self._adopting else None
        span = Span(id=next(self._ids), name=name, start=self._clock(), end=0.0,
                    parent=parent, thread=threading.get_ident())
        stack.append(span)
        if name in self._adopters:
            with self._lock:
                self._adopting.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.name in self._adopters:
            with self._lock:
                self._adopting.remove(span.id)
        self.spans.append(span)

    def wrap(self, name: str, fn, sizes=None):
        """Wrap fn in a span; sizes(args, kwargs, result) -> (cells, points)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if sizes is not None:
                span.cells, span.points = sizes(args, kwargs, result)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each (name, module, attribute, sizes) target everywhere it is bound.

        Every loaded module of the package whose namespace holds the original
        function object gets the wrapper under that same attribute name.
        """
        if self._installed:
            raise RuntimeError("tracer is already installed")
        resolved = [(name, importlib.import_module(module), attr, sizes)
                    for name, module, attr, sizes in targets]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module, attr, sizes in resolved:
            original = getattr(module, attr)
            traced = self.wrap(name, original, sizes)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end)
            for s in spans}


@dataclass
class LayerStats:
    """Totals of all spans sharing one name."""

    calls: int = 0
    self_s: float = 0.0
    cells: int = 0
    points: int = 0
    cell_points: int = 0
    durations: list | None = None


def summarize(spans) -> dict[str, LayerStats]:
    """Aggregate spans by name: call count, self time, sizes, durations."""
    own = self_times(spans)
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats(durations=[]))
        st.calls += 1
        st.self_s += own[s.id]
        st.cells += s.cells
        st.points += s.points
        st.cell_points += s.cells * s.points
        st.durations.append(s.duration)
    return out


def children_of(spans, name: str, child: str) -> list[Span]:
    """Spans called child whose direct parent is a span called name."""
    ids = {s.id for s in spans if s.name == name}
    return [s for s in spans if s.name == child and s.parent in ids]


def median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
