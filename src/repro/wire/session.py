"""The client side of the wire runtime: :class:`RemoteNetworkSession`.

Mirrors the answering surface of
:class:`~repro.net.service.NetworkSession` — ``answer`` /
``answer_many`` returning full
:class:`~repro.core.results.QueryResult` objects — but against *live
peer server processes*: each query travels as one
:class:`~repro.net.protocol.AnswerQuery` frame to the queried peer's
server, which gathers its accessible sub-network over its own socket
transport, answers locally, and ships the whole result back.

The session is constructed from peer **addresses**, not from a shared
system object — the client needs to know where the peers listen,
nothing about their data — which is exactly the deployment shape of the
paper's autonomous sites.

Fault behaviour matches the in-process session: transport losses are
retried up to ``retries`` extra attempts and then surface as a typed
``peer-unreachable`` :class:`~repro.core.results.QueryError` on the
result; a typed :class:`~repro.net.protocol.Failure` reply keeps its
failure code; an optional ``timeout`` bounds each query end to end,
expiring as ``deadline-exceeded``.  ``answer``/``answer_many`` never
raise on network trouble and never hang.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Mapping, Optional, Union

from ..core.results import (
    CERTAIN,
    QueryError,
    QueryRequest,
    QueryResult,
)
from ..net.errors import NetworkError, ServerOverloaded, TransportError
from ..net.protocol import Answer, AnswerQuery, Failure
from ..core.messaging import ExchangeLog
from ..obs.trace import Span, TraceContext, new_id
from ..relational.query import Query
from .transport import SocketTransport

__all__ = ["RemoteNetworkSession"]


class RemoteNetworkSession:
    """Query answering against live peer server processes."""

    def __init__(self, addresses: Mapping[str, str], *,
                 default_method: str = "auto",
                 retries: int = 2,
                 timeout: Optional[float] = None,
                 request_timeout: float = 30.0,
                 connect_timeout: float = 2.0,
                 tracing: bool = False,
                 supervisor=None) -> None:
        if retries < 0:
            raise NetworkError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise NetworkError("timeout must be > 0 seconds")
        self.transport = SocketTransport(
            dict(addresses), local_name="client",
            timeout=request_timeout, connect_timeout=connect_timeout)
        self.default_method = default_method
        self.retries = retries
        self.timeout = timeout
        #: stamp every AnswerQuery with a fresh trace context; the
        #: servers record spans for any traced request regardless of
        #: their own flag, so this client-side knob is sufficient
        self.tracing = tracing
        self.exchange_log = ExchangeLog()
        #: the owning supervisor, when this session launched the
        #: cluster (open_session(..., network="wire")); closed with it
        self.supervisor = supervisor

    # ------------------------------------------------------------------
    def peers(self) -> tuple[str, ...]:
        """The peers this session can reach, sorted."""
        return tuple(sorted(self.transport.addresses()))

    def answer(self, peer: str, query: Union[Query, str], *,
               method: Optional[str] = None,
               semantics: str = CERTAIN) -> QueryResult:
        """Answer one query at ``peer``'s server process.

        The result is the server's — same answers, solution count, and
        resolved method as a local session over the same data — with
        ``elapsed`` replaced by the client-observed wall clock (it now
        honestly includes serialization and socket time) and the
        server-side exchange stats kept (exact wire bytes of the
        gather).  Failures come back typed on the result, never raised.
        """
        if peer not in self.transport.addresses():
            raise NetworkError(
                f"unknown peer {peer!r}; this session reaches "
                f"{list(self.peers())}")
        request = QueryRequest(peer, query, method, semantics)
        trace_fields: dict = {}
        if self.tracing:
            ctx = TraceContext.root()
            trace_fields = {"trace_id": ctx.trace_id,
                            "span_id": new_id()}
        message = AnswerQuery(
            sender=self.transport.local_name, target=peer,
            query=str(request.resolved_query()),
            method=method or "", semantics=semantics, **trace_fields)
        started_mono = time.monotonic()
        start = time.perf_counter()
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        reply = None
        failure: Optional[QueryError] = None
        for attempt in range(self.retries + 1):
            if deadline is not None and time.monotonic() > deadline:
                failure = QueryError(
                    code="deadline-exceeded",
                    message=(f"query exceeded its {self.timeout}s "
                             f"end-to-end budget"),
                    peer=peer)
                break
            try:
                reply = self.transport.request(message)
                break
            except TransportError as exc:
                if attempt == self.retries:
                    failure = QueryError(
                        code="peer-unreachable",
                        message=(f"peer {peer!r} unreachable after "
                                 f"{self.retries + 1} attempt(s): "
                                 f"{exc}"),
                        peer=peer)
                elif isinstance(exc, ServerOverloaded):
                    # the server shed the request at admission; back
                    # off a beat so the retry lands after the queue
                    # drains instead of deepening the overload
                    time.sleep(min(0.05 * (attempt + 1), 0.5))
            except NetworkError as exc:  # protocol-level: not retryable
                failure = QueryError(code="protocol", message=str(exc),
                                     peer=peer)
                break
        elapsed = time.perf_counter() - start
        if reply is None:
            assert failure is not None
            return self._error_result(request, failure, elapsed)
        if isinstance(reply, Failure):
            return self._error_result(
                request,
                QueryError(code=reply.code, message=reply.detail,
                           peer=reply.sender or peer),
                elapsed)
        if not isinstance(reply, Answer) or \
                not isinstance(reply.payload, QueryResult):
            return self._error_result(
                request,
                QueryError(
                    code="protocol",
                    message=(f"peer {peer!r} sent a "
                             f"{type(reply).__name__} where a result "
                             f"was expected"),
                    peer=peer),
                elapsed)
        result: QueryResult = reply.payload
        self.exchange_log.record(
            self.transport.local_name, peer,
            f"@answer[{result.query}]", len(result.answers),
            "wire query", bytes_estimate=reply.bytes_estimate, hop=1)
        result = dataclasses.replace(result, elapsed=elapsed)
        if trace_fields:
            # the full tree: the server's node-level trace (in the
            # result), the server-process spans piggybacked on the
            # reply frame (queue wait, serve), and this client's
            # round trip as the root
            root = Span(trace_fields["trace_id"],
                        trace_fields["span_id"], "",
                        f"answer-query->{peer}",
                        self.transport.local_name, started_mono,
                        elapsed)
            result = dataclasses.replace(
                result, trace=(tuple(result.trace)
                               + tuple(getattr(reply, "spans", ()))
                               + (root,)))
        return result

    def answer_many(self, requests: Iterable[Union[QueryRequest, tuple]]
                    ) -> list[QueryResult]:
        """Batch execution, one result per request, in order; failures
        degrade per-result instead of aborting the batch."""
        results = []
        for request in requests:
            if not isinstance(request, QueryRequest):
                request = QueryRequest(*request)
            results.append(self.answer(request.peer, request.query,
                                       method=request.method,
                                       semantics=request.semantics))
        return results

    def _error_result(self, request: QueryRequest, error: QueryError,
                      elapsed: float) -> QueryResult:
        return QueryResult(
            peer=request.peer,
            query=request.resolved_query(),
            answers=frozenset(),
            semantics=request.semantics,
            method_requested=request.method or self.default_method,
            method_used=request.method or self.default_method,
            solution_count=None,
            elapsed=elapsed,
            error=error,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop pooled connections; stop the owned cluster, if any."""
        self.transport.close()
        if self.supervisor is not None:
            self.supervisor.stop()

    def __enter__(self) -> "RemoteNetworkSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RemoteNetworkSession({self.transport.addresses()}, "
                f"default_method={self.default_method!r})")
