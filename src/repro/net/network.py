"""The peer network runtime: nodes, routing, fan-out, and traffic stats.

:meth:`PeerNetwork.from_system` splits a validated
:class:`~repro.core.system.PeerSystem` into one :class:`~repro.net.node.PeerNode`
per peer — each holding only its own schema, instance, owned DECs, and
trust edges — registers every node's handler on a pluggable
:class:`~repro.net.transport.Transport`, and from then on the peers
communicate exclusively through typed protocol messages.  Nothing in the
answering path consults the source system again; it exists only as the
construction recipe and the version token.

The network layer owns the concerns individual nodes should not:

* **routing with retries** — :meth:`request` resends on transport losses
  (drops, down peers) up to ``retries`` extra attempts, then raises the
  typed :class:`~repro.net.errors.PeerUnreachableError`; typed
  :class:`~repro.net.protocol.Failure` replies are mapped back onto the
  matching exceptions and are never retried;
* **concurrent fan-out** — :meth:`fan_out` runs independent requests
  through a shared :class:`~concurrent.futures.ThreadPoolExecutor`;
* **traffic accounting** — every delivered request lands on a
  thread-safe :class:`~repro.core.messaging.ExchangeLog` as a real
  :class:`~repro.core.messaging.ExchangeEvent` (tuples, byte estimate,
  hop depth), which the CLI prints as the exchange trace.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..core.messaging import ExchangeLog
from ..core.system import PeerSystem
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, SpanRecorder, new_id
from .errors import (
    DeadlineExceeded,
    HopBudgetExceeded,
    NetworkError,
    PeerUnreachableError,
    ProtocolError,
    ServerOverloaded,
    TransportError,
)
from .node import PeerNode
from .protocol import Answer, Failure, FetchRelation, Message, PeerQuery
from .transport import LoopbackTransport, Transport

__all__ = ["PeerNetwork"]


def _request_span_name(message: Message) -> str:
    """How a request's round-trip span is labelled in the trace."""
    if isinstance(message, FetchRelation):
        return f"fetch:{message.relation}->{message.target}"
    if isinstance(message, PeerQuery):
        return f"peer-query->{message.target}"
    return (f"{type(message).__name__.lower()}"
            f"->{message.target}")


class PeerNetwork:
    """A set of message-passing peer nodes over one transport."""

    def __init__(self, nodes: Iterable[PeerNode],
                 transport: Optional[Transport] = None, *,
                 hop_budget: Optional[int] = None,
                 retries: int = 2,
                 timeout: Optional[float] = None) -> None:
        if retries < 0:
            raise NetworkError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise NetworkError("timeout must be > 0 seconds")
        self.nodes: dict[str, PeerNode] = {}
        self.transport = (transport if transport is not None
                          else LoopbackTransport())
        self.retries = retries
        self.exchange_log = ExchangeLog()
        #: completed trace spans of in-flight traced operations (shared
        #: by every node on this network; drained per trace id)
        self.spans = SpanRecorder()
        #: live counters for the rare paths (retries, backoff) — the
        #: per-request hot path deliberately touches no lock here
        self.metrics = MetricsRegistry()
        for node in nodes:
            if node.name in self.nodes:
                raise NetworkError(f"duplicate node {node.name!r}")
            self.nodes[node.name] = node
            node.network = self
            self.transport.register(node.name, node.handle)
        if not self.nodes:
            raise NetworkError("a peer network needs at least one node")
        # a node cannot know the global diameter; the runtime that built
        # every node can — one hop per peer always suffices
        self.hop_budget = (hop_budget if hop_budget is not None
                           else len(self.nodes))
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        #: overall per-operation budget in seconds (None = unbounded)
        self.timeout = timeout
        # the active operation deadline is thread-local (a server node
        # may gather for several requesters at once); fan_out hands it
        # to its pool workers explicitly
        self._op = threading.local()

    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, system: PeerSystem, *,
                    transport: Optional[Transport] = None,
                    hop_budget: Optional[int] = None,
                    retries: int = 2,
                    timeout: Optional[float] = None,
                    default_method: str = "auto",
                    include_local_ics: bool = True,
                    data_dir: Optional[Union[str, Path]] = None,
                    snapshot_every: int = 64,
                    routing: bool = False,
                    tracing: bool = False) -> "PeerNetwork":
        """One node per peer, each seeded with its local slice only.

        With ``data_dir`` every node becomes durable under
        ``<data_dir>/<peer>/``: facts in an append-only delta log +
        snapshot store, answers and the neighbour-fetch cache alongside.
        On a directory that already holds state, the *persisted* data
        wins over the system's instances — that is what makes a restart
        a restart rather than a rebuild (push the system's state
        explicitly with :meth:`sync` to make the definition
        authoritative instead).

        ``routing=True`` gives every node a learned
        :class:`~repro.routing.index.RoutingIndex` consulted by its
        gather path (digest piggybacking, productivity ordering, and
        provably redundant messages elided); answers are identical in
        both modes — only the traffic differs.

        ``tracing=True`` makes every node open a fresh distributed
        trace per root :meth:`PeerNode.answer
        <repro.net.node.PeerNode.answer>` call: spans for the gather,
        every per-neighbour request, and the local evaluation land on
        :attr:`QueryResult.trace <repro.core.results.QueryResult>`.
        Off (the default) the answer path pays nothing.
        """
        root = Path(data_dir) if data_dir is not None else None
        nodes = []
        for name, peer in system.peers.items():
            own_edges = [(owner, level, other)
                         for owner, level, other in system.trust.edges()
                         if owner == name]
            nodes.append(PeerNode(
                peer, system.instances[name],
                decs=system.decs_of(name),
                trust_edges=own_edges,
                default_method=default_method,
                include_local_ics=include_local_ics,
                data_dir=root / name if root is not None else None,
                snapshot_every=snapshot_every,
                routing=routing,
                tracing=tracing))
        # stamp the nodes: the system's version is only truthful when
        # every store actually holds the system's data — after a
        # restart, disk may have won with *different* (e.g. previously
        # synced) content, and stamping that with the definition's
        # version would let answer caches alias distinct data
        if all(node.store.version()
               == system.instances[node.name].fingerprint()
               for node in nodes):
            version = system.version()
        else:
            digest = hashlib.sha256()
            digest.update(system.version().encode("utf-8"))
            for node in sorted(nodes, key=lambda n: n.name):
                digest.update(f"\x00{node.name}={node.store.version()}"
                              .encode("utf-8"))
            version = "net-" + digest.hexdigest()[:16]
        for node in nodes:
            node.stamp_version(version)
        return cls(nodes, transport, hop_budget=hop_budget,
                   retries=retries, timeout=timeout)

    # ------------------------------------------------------------------
    # Topology and lifecycle
    # ------------------------------------------------------------------
    def node(self, name: str) -> PeerNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def topology(self) -> dict[str, tuple[str, ...]]:
        """The accessibility graph: node -> its DEC neighbours."""
        return {name: node.neighbours()
                for name, node in sorted(self.nodes.items())}

    def sync(self, system: PeerSystem) -> "PeerNetwork":
        """Push a new version of the system's data to every node.

        Versions are content-derived, so syncing identical data is a
        no-op that keeps every node cache warm; a real change lands in
        each node's store as a logged delta (the source of subsequent
        delta-sync replies) and drops the stale views, sessions, and
        answers.  Returns ``self``.
        """
        version = system.version()
        for name, node in self.nodes.items():
            instance = system.instances.get(name)
            if instance is None:
                raise NetworkError(
                    f"synced system lacks peer {name!r}; build a new "
                    f"network for topology changes")
            node.update_instance(instance, version)
        return self

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()  # flush durable state (answers, fetch cache)
        self.transport.close()
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None

    def __enter__(self) -> "PeerNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The end-to-end operation deadline
    # ------------------------------------------------------------------
    @contextmanager
    def operation_deadline(self) -> Iterator[None]:
        """Scope one end-to-end operation under :attr:`timeout`.

        Entered by the answering surfaces (a node's answer/gather); all
        message sends within the scope — including the fan-out worker
        threads — check the shared deadline before hitting the
        transport, so a slow link fails the *operation* with a typed
        :class:`DeadlineExceeded` instead of burning retries forever.
        Nested scopes (a gather inside an answer) keep the outermost
        deadline; without a configured ``timeout`` this is a no-op.

        The check is cooperative: a request already waiting on the
        transport finishes its wait (bounded by the transport's own
        per-request timeout), so the operation overruns the budget by at
        most one transport timeout.
        """
        if self.timeout is None or self._current_deadline() is not None:
            yield
            return
        self._op.deadline = time.monotonic() + self.timeout
        try:
            yield
        finally:
            self._op.deadline = None

    def _current_deadline(self) -> Optional[float]:
        return getattr(self._op, "deadline", None)

    @contextmanager
    def _inherited_deadline(self,
                            deadline: Optional[float]) -> Iterator[None]:
        """Install a deadline captured on another thread (fan-out pool
        workers inherit the submitting operation's budget this way)."""
        previous = self._current_deadline()
        self._op.deadline = deadline
        try:
            yield
        finally:
            self._op.deadline = previous

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        deadline = self._current_deadline()
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"operation exceeded its {self.timeout}s end-to-end "
                f"budget")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def request(self, message: Message) -> Answer:
        """Deliver one request, retrying transport losses, and log it.

        Returns the :class:`Answer`; maps :class:`Failure` replies and
        exhausted retries onto typed :class:`NetworkError` subclasses.

        A retry *resends* the request: if the loss was really a reply
        timeout, the target may end up serving the work twice, so a
        :class:`~repro.net.transport.ThreadedTransport` timeout should
        sit comfortably above the expected gather time (it is the
        no-hang backstop, not a pacing mechanism).
        """
        attempts = self.retries + 1
        reply: Optional[Message] = None
        traced = bool(message.trace_id)
        started = time.monotonic() if traced else 0.0
        for attempt in range(attempts):
            # checked before every attempt (first included): once the
            # operation budget is spent, further sends — retries
            # especially — must fail typed instead of piling on
            self.check_deadline()
            try:
                reply = self.transport.request(message)
                if isinstance(reply, Failure) and \
                        reply.code == "overloaded":
                    # an in-process transport hands the shed back as a
                    # Failure reply; normalise to the wire transport's
                    # typed raise so one retry/backoff path covers both
                    raise ServerOverloaded(
                        f"peer {message.target!r} shed the request: "
                        f"{reply.detail}")
                break
            except TransportError as exc:
                if attempt + 1 == attempts:
                    raise PeerUnreachableError(
                        f"peer {message.target!r} unreachable after "
                        f"{attempts} attempt(s): {exc}",
                        peer=message.target) from exc
                self.metrics.inc("network.retries")
                if isinstance(exc, ServerOverloaded):
                    # the server is up but saturated: hammering it at
                    # line rate only deepens the overload — yield a
                    # beat (bounded, deadline-checked above) first
                    self.metrics.inc("network.backoffs")
                    pause = time.monotonic()
                    time.sleep(min(0.05 * (attempt + 1), 0.5))
                    if traced:
                        self.spans.record(Span(
                            message.trace_id, new_id(),
                            message.span_id, "backoff", message.sender,
                            pause, time.monotonic() - pause,
                            note=f"attempt {attempt + 1} shed by "
                                 f"{message.target}"))
        assert reply is not None
        if traced:
            # fold the provider's piggybacked spans into this process's
            # recorder, then record the round trip itself under the
            # span id the requester pre-allocated on the message
            self.spans.record_all(getattr(reply, "spans", ()))
            note = f"retries={attempt}" if attempt else ""
            self.spans.record(Span(
                message.trace_id, message.span_id or new_id(),
                message.parent_span_id, _request_span_name(message),
                message.sender, started, time.monotonic() - started,
                note=note))
        if isinstance(reply, Failure):
            self._raise_failure(reply)
        if not isinstance(reply, Answer):
            raise ProtocolError(
                f"unexpected reply {type(reply).__name__} from "
                f"{message.target!r}")
        self._log(message, reply)
        return reply

    def _raise_failure(self, failure: Failure) -> None:
        if failure.code == "hop-budget-exhausted":
            raise HopBudgetExceeded(failure.detail, peer=failure.sender)
        if failure.code == "peer-unreachable":
            raise PeerUnreachableError(failure.detail,
                                       peer=failure.sender)
        if failure.code == "deadline-exceeded":
            raise DeadlineExceeded(failure.detail, peer=failure.sender)
        if failure.code == "network":
            raise NetworkError(
                f"{failure.sender!r} relayed a network failure: "
                f"{failure.detail}")
        raise ProtocolError(
            f"{failure.sender!r} rejected request "
            f"{failure.in_reply_to}: [{failure.code}] {failure.detail}")

    def _log(self, message: Message, reply: Answer) -> None:
        if isinstance(message, FetchRelation):
            if reply.delta:
                payload = reply.payload
                tuples = (len(payload.get("insert", ()))
                          + len(payload.get("delete", ())))
                purpose = (f"{message.purpose} [delta]".strip()
                           if message.purpose else "delta sync")
            else:
                tuples = len(reply.payload)
                purpose = message.purpose
            self.exchange_log.record(
                message.sender, message.target, message.relation,
                tuples, purpose,
                bytes_estimate=reply.bytes_estimate, hop=1)
        elif isinstance(message, PeerQuery):
            payload = reply.payload
            stats = payload["stats"]
            if payload.get("unchanged"):
                # a routed peer acknowledged an up-to-date subsystem
                # token: no content travelled, only the stats envelope
                relation = "@subsystem[unchanged]"
                tuples = 0
            elif payload.get("irrelevant"):
                # a routed peer proved its whole subtree disjoint from
                # the query's constants: the branch was pruned
                relation = "@subsystem[irrelevant]"
                tuples = 0
            else:
                relation = f"@subsystem[{len(payload['peers'])} peer(s)]"
                # {"same": fingerprint} dedup markers ship no tuples
                tuples = sum(
                    len(instance.tuples(rel))
                    for instance in payload["instances"].values()
                    if not isinstance(instance, Mapping)
                    for rel in instance.relations())
            self.exchange_log.record(
                message.sender, message.target, relation,
                tuples, "hop-by-hop gather",
                bytes_estimate=reply.bytes_estimate,
                hop=stats.max_hops + 1 if stats.max_hops else 1)

    # ------------------------------------------------------------------
    # Concurrent fan-out
    # ------------------------------------------------------------------
    def fan_out(self, sender: str,
                messages: Sequence[Message]) -> list[Answer]:
        """Issue independent requests concurrently.

        Replies come back in request order.  The requests run on the
        shared thread pool, so per-link latency is paid once per
        *level* instead of once per *message*; a single request runs
        inline.  The first failure is raised after all requests settle
        — no orphaned in-flight work.
        """
        if not messages:
            return []
        if len(messages) == 1:
            return [self.request(messages[0])]
        # the caller always executes the last request inline: nested
        # fan-outs (hop-by-hop gathers) then make progress even with the
        # pool saturated, so pool starvation can never deadlock a gather
        executor = self._shared_executor()
        deadline = self._current_deadline()

        def routed(message: Message) -> Answer:
            # pool workers inherit the submitting operation's deadline
            with self._inherited_deadline(deadline):
                return self.request(message)

        futures = [executor.submit(routed, message)
                   for message in messages[:-1]]
        results: list[Optional[Answer]] = [None] * len(messages)
        # every exception is held until all requests settle — including
        # non-network ones relayed verbatim from node handlers —
        # upholding the no-orphaned-work guarantee above
        first_error: Optional[BaseException] = None
        try:
            results[-1] = self.request(messages[-1])
        except Exception as exc:
            first_error = exc
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def _shared_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=min(32, 4 * len(self.nodes)),
                    thread_name_prefix="peer-fanout")
            return self._executor

    def __repr__(self) -> str:
        return (f"PeerNetwork({sorted(self.nodes)}, "
                f"transport={type(self.transport).__name__}, "
                f"hop_budget={self.hop_budget})")
