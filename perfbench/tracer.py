"""Spans recorded from outside the package, around calls into each layer.

The package modules import many functions by name (``from .nn import
forward``), so wrapping ``sonarprep.nn.forward`` alone misses every call
made through ``trainer.forward``. :meth:`Tracer.install` therefore
replaces each target function in *every* module namespace that holds it,
and :meth:`Tracer.uninstall` puts the originals back.

Each thread keeps its own span stack, so a span's self time subtracts
only the children that ran on its own thread; spans recorded by worker
threads (``featurize --jobs N``) are roots of their own thread.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    depth: int
    parent: str | None  # enclosing span on the same thread
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Open:
    name: str
    start: float
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)


@dataclass
class SpanStats:
    """All spans of one name, aggregated."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)  # numeric attrs summed over calls


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it. Every reported percentile is a measured value."""
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


class Tracer:
    """In-memory span recorder; spans are aggregated after the run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Open:
        opened = _Open(name, self.clock())
        self._stack().append(opened)
        return opened

    def end(self, opened: _Open) -> None:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not opened:
            raise RuntimeError(f"span {opened.name!r} closed out of order")
        stack.pop()
        duration = end - opened.start
        if stack:
            stack[-1].child_s += duration
        span = Span(opened.name, threading.get_ident(), opened.start, end,
                    duration - opened.child_s, len(stack),
                    stack[-1].name if stack else None, opened.attrs)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    def wrap(self, fn, name: str, attrs_fn=None):
        """Wrap ``fn`` in a span; ``attrs_fn(args, kwargs, result)`` may
        return a dict of per-call attributes (counts, bytes, keys). It runs
        after the span closes, so its cost is not timed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as opened:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                opened.attrs.update(attrs_fn(args, kwargs, result))
            return result

        return traced

    def install(self, modules, targets: dict) -> None:
        """Replace every reference to a target function in ``modules``.

        ``targets`` maps a function object to ``(span_name, attrs_fn)``.
        """
        wrappers = {id(fn): (fn, self.wrap(fn, name, attrs_fn))
                    for fn, (name, attrs_fn) in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is not None and value is fn:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, SpanStats]:
        out: dict[str, SpanStats] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            stats = out.setdefault(span.name, SpanStats())
            stats.calls += 1
            stats.total_s += span.duration
            stats.self_s += span.self_s
            for key, value in span.attrs.items():
                if isinstance(value, (int, float)):
                    stats.attrs[key] = stats.attrs.get(key, 0) + value
        return out

    def attr_values(self, name: str, key: str) -> list:
        """Every recorded value of one attribute on spans named ``name``."""
        with self._lock:
            return [s.attrs[key] for s in self.spans
                    if s.name == name and key in s.attrs]

    def durations(self, name: str, outside: str | None = None) -> list[float]:
        """Call times of spans named ``name``, leaving out those whose
        enclosing span is named ``outside``."""
        with self._lock:
            return [s.duration for s in self.spans
                    if s.name == name and (outside is None or s.parent != outside)]

    def worker_busy_s(self, within: str, main_thread: int) -> float:
        """Root-span time on threads other than ``main_thread`` that falls
        inside spans named ``within`` (e.g. the featurize stage)."""
        with self._lock:
            spans = list(self.spans)
        windows = [(s.start, s.end) for s in spans if s.name == within]
        busy = 0.0
        for s in spans:
            if s.thread == main_thread or s.depth != 0:
                continue
            if any(lo <= s.start and s.end <= hi for lo, hi in windows):
                busy += s.duration
        return busy


def useful_ratio(keys) -> float:
    """Distinct keys over calls; 1.0 when there were no calls (nothing wasted).

    For resampling a key is (recording, source rate, target rate), one per
    call that changed the rate, so repeated conversions lower the ratio.
    """
    keys = list(keys)
    if not keys:
        return 1.0
    return len(set(keys)) / len(keys)
