"""Spans recorded around the benchmark's calls into gloss, and the small
statistics the benchmark reports.

A span is (name, start_ns, end_ns, parent, doc): ``parent`` is the index of
the enclosing span or -1, ``doc`` identifies the input document (or item)
the call worked on, or -1.  Spans stay in memory and are written once, when
the run ends.  Times come from ``time.monotonic_ns``, which on Linux is one
clock for every process, so spans recorded by the node process line up with
the benchmark's own.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

NAME, START, END, PARENT, DOC = range(5)


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around the ``with`` block; the form used for phases."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.monotonic_ns(), 0, parent, -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[END] = time.monotonic_ns()
            self._stack.pop()

    def add(self, name: str, start: int, end: int, doc: int = -1):
        """Record a call the caller already timed; the hot-loop form of
        ``span``, so untraced and traced loops read the clock alike."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start, end, parent, doc])

    def adopt(self, name: str, intervals, first_doc: int = 0):
        """Add spans measured elsewhere (the node process) under the
        currently open span; document ids count up from ``first_doc``."""
        for k, (start, end) in enumerate(intervals):
            self.add(name, start, end, first_doc + k)


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(s[END] - s[START] - covered)
    return out


def durations_s(spans) -> list[float]:
    return [(s[END] - s[START]) / 1e9 for s in spans]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
