"""In-process peer messaging log.

The semantics of the paper is defined over the global instance (Definition
3), so no real networking is needed — but the *narrative* of query
answering is peer-to-peer: "P1 will first issue a query to P2 to retrieve
the tuples in R2; next, a query is issued to P3 ..." (Example 2).  The
:class:`ExchangeLog` records exactly those data requests so examples and
tests can observe who asked whom for what, and how many tuples flowed.

The log is shared state: the :mod:`repro.net` runtime appends to it from
several node worker threads at once, so every operation takes the log's
lock, and iteration walks a snapshot rather than the live list.  Events
carry a serialized-size estimate (:func:`estimate_bytes`) and the hop
count the payload travelled, which :meth:`ExchangeLog.stats_since` folds
into the :class:`~repro.core.results.ExchangeStats` attached to each
:class:`~repro.core.results.QueryResult`.

A system or network lives as long as its caller keeps answering, so the
log keeps only the last :data:`LOG_WINDOW` events, under absolute
positions: a mark taken before an operation still slices exactly that
operation's events as long as it logged fewer than the window holds.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

__all__ = ["ExchangeEvent", "ExchangeLog", "LOG_WINDOW", "estimate_bytes"]

#: how many recent events an :class:`ExchangeLog` keeps (about 27 MB of
#: events at most).  One answer logs at most a few dozen; the longest
#: slice anything takes is a serving benchmark's whole measuring window,
#: 29 673 answers in 12 s on 2 cores, so every slice stays exact
LOG_WINDOW = 1 << 17


def estimate_bytes(rows: Iterable[tuple]) -> int:
    """A cheap serialized-size estimate for a set of tuples.

    Each value contributes its textual length plus two bytes of framing
    (delimiter + separator) — close enough to a JSON/CSV wire encoding to
    make per-query traffic comparable, without ever serializing anything.
    """
    total = 0
    for row in rows:
        total += sum(len(str(value)) + 2 for value in row) + 2
    return total


@dataclass(frozen=True)
class ExchangeEvent:
    """One peer-to-peer data request.

    ``bytes_estimate`` approximates the payload's serialized size
    (:func:`estimate_bytes`); ``hop`` is how many network hops the data
    travelled to reach the requester (1 for a direct neighbour fetch,
    more when an intermediate peer relayed it).  ``timestamp`` is the
    recording process's ``time.monotonic()`` at record time (0.0 on
    events predating it, e.g. replayed from old captures) — deltas
    between events of one process give durations and rates; values are
    not comparable across processes or to wall-clock time.
    """

    requester: str
    provider: str
    relation: str
    tuples_transferred: int
    purpose: str = ""
    bytes_estimate: int = 0
    hop: int = 1
    timestamp: float = 0.0

    def __str__(self) -> str:
        note = f" ({self.purpose})" if self.purpose else ""
        hops = f" hop {self.hop}" if self.hop > 1 else ""
        return (f"{self.requester} <- {self.provider}: "
                f"{self.relation} [{self.tuples_transferred} tuples, "
                f"~{self.bytes_estimate} B]{hops}{note}")


class ExchangeLog:
    """A thread-safe log of the last :data:`LOG_WINDOW` exchange events.

    Positions are absolute: the n-th event ever recorded sits at
    position n, whether or not the window still holds it."""

    def __init__(self) -> None:
        self._events: deque[ExchangeEvent] = deque(maxlen=LOG_WINDOW)
        self._end = 0  # the position the next event takes
        self._count = 0  # events recorded since the last clear
        self._tuples = 0
        self._lock = threading.Lock()

    def record(self, requester: str, provider: str, relation: str,
               tuples_transferred: int, purpose: str = "", *,
               bytes_estimate: int = 0, hop: int = 1) -> None:
        if requester == provider:  # local reads are not exchanges
            return
        self._append(ExchangeEvent(requester, provider, relation,
                                   tuples_transferred, purpose,
                                   bytes_estimate, hop,
                                   timestamp=time.monotonic()))

    def record_event(self, event: ExchangeEvent) -> None:
        if event.requester == event.provider:
            return
        if event.timestamp == 0.0:
            import dataclasses
            event = dataclasses.replace(event,
                                        timestamp=time.monotonic())
        self._append(event)

    def _append(self, event: ExchangeEvent) -> None:
        with self._lock:
            self._events.append(event)
            self._end += 1
            self._count += 1
            self._tuples += event.tuples_transferred

    def events(self, requester: Optional[str] = None
               ) -> list[ExchangeEvent]:
        """The held events (the last :data:`LOG_WINDOW`), oldest first."""
        with self._lock:
            snapshot = list(self._events)
        if requester is None:
            return snapshot
        return [e for e in snapshot if e.requester == requester]

    # ------------------------------------------------------------------
    # Positional slicing: attribute traffic to one operation even while
    # other threads keep appending (their events land after the mark).
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """A position token for :meth:`events_since`/:meth:`stats_since`."""
        with self._lock:
            return self._end

    def events_since(self, mark: int) -> list[ExchangeEvent]:
        """The events after ``mark`` that the window still holds."""
        return self._since(mark, exact=False)

    def _since(self, mark: int, exact: bool) -> list[ExchangeEvent]:
        with self._lock:
            count = self._end - mark
            if count > len(self._events):
                if exact:
                    raise ValueError(
                        f"{count} events were logged since mark {mark}, "
                        f"more than the {LOG_WINDOW} the log keeps")
                count = len(self._events)
            newest = list(islice(reversed(self._events), max(count, 0)))
        return newest[::-1]

    def stats_since(self, mark: int):
        """Aggregate the events after ``mark`` into
        :class:`~repro.core.results.ExchangeStats` — the real logged
        traffic, not a synthesised count.  Raises :class:`ValueError`
        when some of them already left the window, rather than count
        short."""
        from .results import ExchangeStats
        events = self._since(mark, exact=True)
        return ExchangeStats(
            requests=len(events),
            tuples_transferred=sum(e.tuples_transferred for e in events),
            bytes_estimate=sum(e.bytes_estimate for e in events),
            max_hops=max((e.hop for e in events), default=0),
        )

    def duration_since(self, mark: int) -> float:
        """Seconds between the first and last timestamped event after
        ``mark`` — the observed span of the traffic
        :meth:`stats_since` aggregates (0.0 when fewer than two events
        carry timestamps)."""
        stamps = [e.timestamp for e in self.events_since(mark)
                  if e.timestamp > 0.0]
        if len(stamps) < 2:
            return 0.0
        return max(stamps) - min(stamps)

    def total_tuples(self) -> int:
        """Tuples moved by every event since the last clear, held or not."""
        with self._lock:
            return self._tuples

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._count = self._tuples = 0

    def __len__(self) -> int:
        """Events recorded since the last clear, held or not."""
        with self._lock:
            return self._count

    def __iter__(self) -> Iterator[ExchangeEvent]:
        return iter(self.events())
