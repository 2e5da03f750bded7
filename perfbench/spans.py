"""In-memory spans and counters for the traced benchmark run.

A span records its name, the op it belongs to, its parent span and its start
and end on the ``perf_counter`` clock. Spans stay in memory while the batch
runs and are written out once at the end. A layer's self time is the span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, summed counts and running maxima for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        if name == "op":
            self._op += 1
        index = len(self.spans)
        rec = Span(name, self._op, self._stack[-1] if self._stack else None, 0.0)
        self.spans.append(rec)
        self._stack.append(index)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(value, self.maxima.get(name, value))

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec.parent is not None:
                covered[rec.parent] += rec.seconds
        out: dict[str, float] = defaultdict(float)
        for rec, child in zip(self.spans, covered):
            out[rec.name] += rec.seconds - child
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        rows = [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": rows}, fh)
