"""Timing spans around lsrkit's public functions, installed from outside.

The tracer patches each target at the name its caller resolves at call
time (a module attribute or a class attribute), records one span per call
and restores every original on ``remove``. Wrappers return the wrapped
result untouched. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top level
    workload: str
    tag: str
    count: int | None = None


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.tag = ""
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent, self.workload, self.tag)
            if count is not None:
                span.count = count(*args, **kwargs)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Patch ``(owner, attribute, span name[, count fn])`` targets in place."""
        for owner, attr, name, *count in targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, *count))
            else:
                patched = self._wrap(original, name, *count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "workload": s.workload,
                    "tag": s.tag,
                }
                if s.count is not None:
                    record["count"] = s.count
                fh.write(json.dumps(record) + "\n")


def wrapper_seconds(calls: int = 2000, rounds: int = 7) -> float:
    """What tracing adds to one call: the fastest of ``rounds`` timings of
    ``calls`` traced calls to a no-op, less the same for untraced calls."""

    def noop():
        return None

    tracer = Tracer("calibrate")
    traced = tracer._wrap(noop, "noop")
    best = {}
    for fn in (noop, traced) * rounds:
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, math.inf), time.perf_counter() - start)
    return max(best[traced] - best[noop], 0.0) / calls


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so the covered time
    is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def totals_within(spans: list[Span], outer: str, inner: str, tag: str | None = None) -> list[float]:
    """For each ``outer`` span (optionally of one tag), the summed duration
    of the ``inner`` spans nested anywhere below it, outermost ones only."""
    index_of: dict[int, int] = {}
    sums: list[float] = []
    for i, s in enumerate(spans):
        if s.name == outer and (tag is None or s.tag == tag):
            index_of[i] = len(sums)
            sums.append(0.0)
    if not sums:
        return sums
    for s in spans:
        if s.name != inner:
            continue
        p = s.parent
        nested_in_inner = False
        while p >= 0 and p not in index_of:
            nested_in_inner |= spans[p].name == inner
            p = spans[p].parent
        if p >= 0 and not nested_in_inner:
            sums[index_of[p]] += s.end - s.start
    return sums


def durations(spans: list[Span], name: str, tag: str | None = None) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name and (tag is None or s.tag == tag)]


def counts(spans: list[Span], name: str, tag: str | None = None) -> list[int]:
    return [s.count for s in spans if s.name == name and (tag is None or s.tag == tag)]
