"""The benchmark's own span log.

The traced pass records a span around every call it makes into a layer's
public functions, and folds in the spans the program already publishes
(``QueryResult.trace``).  Spans stay in memory until :meth:`SpanLog.write`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Append-only span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def add(self, name: str, start: float, end: float, *, op: int,
            parent: Optional[int] = None) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, op)
            self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Span]:
        """Time the body; nests under the span open on this thread."""
        stack = self._open.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0,
                        stack[-1] if stack else None, op)
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add_published(self, trace, *, op: int, parent: int) -> None:
        """Fold in the program's own spans (``QueryResult.trace``).

        Their clocks belong to other processes, so only durations and the
        parent links are kept; roots hang under the bench span ``parent``.
        """
        ids: dict[str, int] = {}
        for published in trace:
            ids[published.span_id] = self.add(
                f"published.{published.name}", published.start,
                published.start + published.duration, op=op, parent=parent)
        for published in trace:
            linked = ids.get(published.parent_span_id)
            if linked is not None:
                self.spans[ids[published.span_id]].parent = linked

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered, edge = 0.0, span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda s: s.start):
                lo, hi = max(child.start, edge), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            result[span.id] = span.duration - covered
        return result

    def write(self, path: Path, **tags) -> None:
        """One JSON object per line, self time and ``tags`` included."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {**tags, **asdict(span), "self": selfs[span.id]}) + "\n")
