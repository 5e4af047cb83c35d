"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent).  A layer's self time is its span's
duration minus the part of that interval its child spans cover; the
per-layer metrics are the self times summed by span name.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records nested spans and counters; write them out with `dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.probe_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def probe(self, name: str, fn, *args, **kwargs):
        """A call the traced pass makes on top of the user-facing work.

        It is a span like any other, and its time is kept in `probe_s` so
        that it can be left out of the tracing overhead.
        """
        idx = len(self.spans)
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self.probe_s += self.spans[idx].end - self.spans[idx].start

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class NullTracer:
    """Tracing off: calls pass straight through and nothing is kept."""

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals

