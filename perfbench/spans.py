"""Span recorder for the traced benchmark pass.

A span is one call of a wrapped function: its name, start and end on the
``perf_counter`` clock, the span that was open when it started (its
parent) and the benchmark op it belongs to.  Counters from boundary
wrappers (numpy FFTs, generator construction) are credited to the
innermost open span.  Spans stay in memory until the run ends.

Only the standard library is imported here, so the child process can
time ``import capspec`` before numpy is loaded.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    op: object
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``measure(args, kwargs, result)`` may return counts to add to the
        span after the call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(
                name, next(self._ids), stack[-1].id if stack else None, self.op
            )
            self.spans.append(span)
            stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    span.counts[key] = span.counts.get(key, 0) + value
            return result

        return traced

    def count(self, key: str, value=1) -> None:
        """Credit ``value`` to the innermost open span; dropped if none."""
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0) + value

    def counter(self, fn, counts):
        """Wrap ``fn`` so each call credits ``counts(result)`` to the open span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, value in counts(result).items():
                self.count(key, value)
            return result

        return counted


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
