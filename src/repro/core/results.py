"""Typed requests and results for the query-answering API.

The paper's Definition 5 speaks of *peer consistent answers*; a production
service needs to say more than "here is a set of tuples": which mechanism
actually ran (``auto`` may pick FO rewriting, ASP or the model-theoretic
enumeration), whether the certifying solutions were enumerated at all
(the rewriting route never counts them — ``solution_count is None``
means *not computed*, honestly, not a fake positive), how long the computation took, and how much data
moved between peers on the way.  :class:`QueryResult` carries all of that;
:class:`QueryRequest` is the batchable input form consumed by
:meth:`repro.core.session.PeerQuerySession.answer_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..relational.query import Query

__all__ = ["QueryRequest", "QueryResult", "ExchangeStats", "QueryError",
           "CERTAIN", "POSSIBLE"]

CERTAIN = "certain"
POSSIBLE = "possible"
_SEMANTICS = (CERTAIN, POSSIBLE)


def _coerce_query(query: Union[Query, str]) -> Query:
    if isinstance(query, Query):
        return query
    from ..relational.query_parser import parse_query
    return parse_query(query)


@dataclass(frozen=True)
class QueryRequest:
    """One query to pose: peer, query, mechanism, and semantics.

    ``query`` may be a parsed :class:`~repro.relational.query.Query` or the
    textual form (``"q(X, Y) := R1(X, Y)"``); ``method`` is any registered
    answer method name (default ``"auto"``: FO rewriting when it applies,
    ASP within the paper's DEC class, ``model`` otherwise); ``semantics``
    is ``"certain"`` (Definition 5) or ``"possible"`` (the brave dual).
    """

    peer: str
    query: Union[Query, str]
    method: Optional[str] = None
    semantics: str = CERTAIN

    def __post_init__(self) -> None:
        if self.semantics not in _SEMANTICS:
            from .errors import P2PError
            raise P2PError(f"unknown semantics {self.semantics!r}; "
                           f"choose from {_SEMANTICS}")

    def resolved_query(self) -> Query:
        """The parsed query (parses the textual form on demand)."""
        return _coerce_query(self.query)


@dataclass(frozen=True)
class ExchangeStats:
    """Peer-to-peer traffic attributable to one answered query.

    ``bytes_estimate`` is the serialized size of the payloads that
    moved.  When the messages actually crossed a wire (the
    :class:`~repro.wire.transport.SocketTransport`), it is **exact**:
    the byte length of the encoded reply frames as they went over the
    socket.  For the in-process transports (loopback/threaded), where
    nothing is ever serialized, it falls back to the
    :func:`repro.core.messaging.estimate_bytes` heuristic — close
    enough to a JSON encoding to make traffic comparable, but an
    estimate.  ``max_hops`` is the longest relay chain any of that data
    travelled — 1 for direct neighbour fetches, more when the
    :mod:`repro.net` runtime routed a transitive query hop-by-hop.

    ``neighbours_contacted`` counts the pending neighbours engaged per
    gather level (every *contacted* neighbour receives at least one
    message in both routed and flooded mode); ``neighbours_pruned``
    counts the messages the :mod:`repro.routing` index elided
    (synthesized subsystem replies plus version-confirmed fetch skips);
    ``subtrees_pruned`` counts whole gather branches skipped because a
    :class:`~repro.routing.aggregate.SubtreeDigest` proved everything
    reachable through a neighbour disjoint from the query's constants —
    all always zero when routing is off, so a routed run is auditable
    from its result.
    """

    requests: int = 0
    tuples_transferred: int = 0
    bytes_estimate: int = 0
    max_hops: int = 0
    neighbours_pruned: int = 0
    neighbours_contacted: int = 0
    subtrees_pruned: int = 0

    def __add__(self, other: "ExchangeStats") -> "ExchangeStats":
        return ExchangeStats(self.requests + other.requests,
                             self.tuples_transferred
                             + other.tuples_transferred,
                             self.bytes_estimate + other.bytes_estimate,
                             max(self.max_hops, other.max_hops),
                             self.neighbours_pruned
                             + other.neighbours_pruned,
                             self.neighbours_contacted
                             + other.neighbours_contacted,
                             self.subtrees_pruned
                             + other.subtrees_pruned)


@dataclass(frozen=True)
class QueryError:
    """A typed failure attached to a :class:`QueryResult`.

    Produced by execution backends that can fail partway — the
    :mod:`repro.net` runtime surfaces unreachable peers, exhausted hop
    budgets, and transport loss here instead of raising, so a batch over
    a flaky network degrades per-result rather than aborting.

    ``code`` is a stable machine-readable tag (``"peer-unreachable"``,
    ``"hop-budget-exhausted"``, ``"transport"``); ``message`` the human
    rendering; ``peer`` the peer the failure was observed at, when known.
    """

    code: str
    message: str
    peer: str = ""

    def __str__(self) -> str:
        where = f" at {self.peer}" if self.peer else ""
        return f"[{self.code}]{where} {self.message}"


@dataclass(frozen=True)
class QueryResult:
    """A set of answers plus full provenance.

    Attributes:
        peer: the queried peer P.
        query: the (parsed) query Q ∈ L(P).
        answers: the answer tuples.
        semantics: ``"certain"`` or ``"possible"``.
        method_requested: the method named in the request (e.g. ``auto``).
        method_used: the mechanism that actually produced the answers
            (``auto`` resolves to ``rewrite`` or ``asp``).
        solution_count: how many solutions certified the answers; ``None``
            when the mechanism does not enumerate solutions (FO
            rewriting) — *not computed*, as opposed to zero.
        elapsed: wall-clock seconds spent answering.
        exchange: peer-to-peer requests/tuples moved for this answer.
        from_cache: whether memoized per-peer solutions were reused.
        error: a typed :class:`QueryError` when the execution backend
            failed (unreachable peer, exhausted hop budget); ``answers``
            is empty and must not be read as "no certain answers".
        trace: the completed :class:`~repro.obs.trace.Span` tree of a
            traced run (every hop's gather/fetch/eval/server spans,
            reassembled cross-process); empty unless ``tracing=True``.
        timings: per-phase wall-clock breakdown of a traced run
            (``{"gather_s": ..., "eval_s": ..., "total_s": ...}``);
            ``None`` unless ``tracing=True``.
    """

    peer: str
    query: Query
    answers: frozenset
    semantics: str = CERTAIN
    method_requested: str = "auto"
    method_used: str = "auto"
    solution_count: Optional[int] = None
    elapsed: float = 0.0
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    from_cache: bool = False
    error: Optional[QueryError] = None
    trace: tuple = ()
    timings: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True iff the execution completed (no :attr:`error`)."""
        return self.error is None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def no_solutions(self) -> bool:
        """True iff the peer provably has no solutions at all.

        ``False`` when ``solution_count is None``: the mechanism did not
        enumerate solutions, so their absence was never established.
        """
        return self.solution_count == 0

    @property
    def solutions_counted(self) -> bool:
        return self.solution_count is not None

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self.answers))

    def __contains__(self, item: object) -> bool:
        return item in self.answers

    def __len__(self) -> int:
        return len(self.answers)

    def to_dict(self) -> dict:
        """JSON-friendly rendering (used by the CLI)."""
        data = {
            "peer": self.peer,
            "query": str(self.query),
            "answers": sorted(list(row) for row in self.answers),
            "semantics": self.semantics,
            "method_requested": self.method_requested,
            "method_used": self.method_used,
            "solution_count": self.solution_count,
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "exchange_requests": self.exchange.requests,
            "exchange_tuples": self.exchange.tuples_transferred,
            "exchange_bytes_estimate": self.exchange.bytes_estimate,
            "exchange_max_hops": self.exchange.max_hops,
            "exchange_neighbours_pruned": self.exchange.neighbours_pruned,
            "exchange_neighbours_contacted":
                self.exchange.neighbours_contacted,
            "exchange_subtrees_pruned": self.exchange.subtrees_pruned,
            "from_cache": self.from_cache,
            "error": (None if self.error is None else {
                "code": self.error.code,
                "message": self.error.message,
                "peer": self.error.peer,
            }),
        }
        # trace/timings only appear on traced runs, so untraced CLI
        # output is unchanged
        if self.trace:
            data["trace"] = [span.to_dict() for span in self.trace]
        if self.timings:
            data["timings"] = dict(self.timings)
        return data

    def __repr__(self) -> str:
        if self.error is not None:
            return (f"QueryResult({self.peer!r}, FAILED "
                    f"{self.error.code}: {self.error.message})")
        count = ("not-counted" if self.solution_count is None
                 else self.solution_count)
        return (f"QueryResult({self.peer!r}, {sorted(self.answers)}, "
                f"semantics={self.semantics}, method={self.method_used}, "
                f"solutions={count})")
