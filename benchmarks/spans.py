"""In-memory spans recorded around the benchmark's calls into mapreplay.

A span has a name, a start and end (perf_counter seconds), the id of the
span that was open when it started, and the id of the round (one pass of
one workload through every layer) it belongs to. A disabled recorder hands
out one shared do-nothing context, so untraced runs pay one attribute
lookup and a call per span and record nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The mapreplay module the span wraps; `harness` for the benchmark's own spans."""
        head, dot, _ = self.name.partition(".")
        return head if dot else "harness"


class _Open:
    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.end = time.perf_counter()
        self._recorder._stack.pop()


class _Off:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_OFF = _Off()


class SpanRecorder:
    """Collects spans while `enabled`; the open-span stack gives each its parent."""

    def __init__(self, enabled: bool, trace_id: str = ""):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.trace_id = trace_id
        self._stack: list[Span] = []

    def span(self, name: str):
        if not self.enabled:
            return _OFF
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(self.trace_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return _Open(self, s)

    def as_records(self) -> list[dict]:
        return [
            {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
            }
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out

