"""In-memory spans and counts recorded around calls into coveig's layers.

A span is one call: its name ("<module>.<function>"), start and end on the
perf_counter clock, the id of the span that caused it and the trial it
belongs to. Counts and per-call readings (node counts, residuals, ...) ride
on the span as attributes, so every ratio is taken where the work happened.
Nothing here is imported by coveig itself; spans wrap the calls from the
outside.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and failure counts; written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.failures: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trial: str | None = None, **attrs):
        """Time the enclosed block as a child of the innermost open span.

        The yielded dict takes readings made inside the block. An exception
        still closes the span, tagged with its class, and propagates.
        """
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        rec = Span(span_id, name, 0.0, 0.0, parent, trial, dict(attrs))
        self.spans.append(rec)
        self._stack.append(span_id)
        rec.start = time.perf_counter()
        try:
            yield rec.attrs
        except Exception as exc:
            rec.attrs["error"] = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count_failure(self, layer: str, exc: Exception) -> None:
        key = f"{layer}.failures.{type(exc).__name__}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans],
                 "failures": self.failures},
                fh,
            )


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration
        - covered_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def timing_stats(spans: list[Span]) -> dict[str, float]:
    """calls, busy_s, ms_p50 and ms_p99 over a list of same-named spans."""
    ms = np.array([s.duration for s in spans]) * 1e3
    if ms.size == 0:
        return {"calls": 0, "busy_s": 0.0, "ms_p50": 0.0, "ms_p99": 0.0}
    return {
        "calls": int(ms.size),
        "busy_s": float(ms.sum() / 1e3),
        "ms_p50": float(np.percentile(ms, 50)),
        "ms_p99": float(np.percentile(ms, 99)),
    }
