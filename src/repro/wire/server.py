"""The peer server: one OS process serving one peer over TCP.

A :class:`PeerServer` hosts exactly one
:class:`~repro.net.node.PeerNode` — the peer's schema, its instance
slice, the DECs it owns, its trust edges, optionally durable under a
``data_dir`` — behind a listening socket speaking the
:mod:`repro.wire.codec` frame protocol.  Outbound requests (the
hop-by-hop gathers the node makes while answering) go through a
:class:`~repro.wire.transport.SocketTransport` dialled at the
*other* peers' addresses, so a set of these processes forms exactly the
paper's network of autonomous sites: every byte between peers crosses a
real socket.

The server is deliberately also usable in-process (``start()`` runs the
event loop on a daemon thread): the socket-transport and server tests
exercise real TCP framing without paying process startup; ``python -m repro serve`` wraps the blocking
:meth:`PeerServer.serve_forever` for the real cross-process deployment,
and :mod:`repro.wire.cluster` spawns one such process per peer.

Concurrency model — **event loop + worker pool**, not
thread-per-connection:

* one :mod:`selectors` loop owns every socket: it accepts connections,
  assembles frames from non-blocking reads, and drains per-connection
  reply buffers — so hundreds of idle or slow connections cost file
  descriptors and buffer bytes, never threads;
* decoded requests are handed to a small worker pool (``workers``
  threads calling ``node.handle``; the node's own locks serialise
  answering exactly as for the in-process transports).  Replies are
  multiplexed back per connection in *completion* order — the protocol
  carries correlation ids, so interleaved requests from one connection
  pair up client-side regardless of order;
* **admission control**: at most ``pending_limit`` admitted requests
  may be queued or running at once.  Request number
  ``pending_limit + 1`` is shed immediately with a typed
  ``code="overloaded"`` :class:`~repro.net.protocol.Failure` — cheap
  for the server, *retryable* for the client
  (:class:`~repro.net.errors.ServerOverloaded`), so saturation
  degrades into backoff-paced retries instead of unbounded queues or
  hangs;
* **idle deadlines**: a connection with no traffic and no request in
  flight for ``idle_timeout`` seconds is reclaimed — a stalled or dead
  client can no longer pin server state (the old thread-per-connection
  loop served with ``settimeout(None)`` and leaked exactly that).

A connection serves any number of interleaved requests; malformed
frames are answered with a typed
:class:`~repro.net.protocol.Failure` and the connection is closed, so
a desynced stream can never smear into later replies.  The handshake
advertises this process's peer name, and clients verify they reached
the peer they dialed.
"""

from __future__ import annotations

import collections
import dataclasses
import errno
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping, Optional, Union

from ..core.system import PeerSystem
from ..net.errors import NetworkError
from ..net.network import PeerNetwork
from ..net.node import PeerNode
from ..net.protocol import Answer, Failure, GetStatus, Message
from ..obs.metrics import MetricsRegistry, merge_snapshots
from ..obs.trace import Span, new_id
from .codec import (
    MAX_FRAME_BYTES,
    WireProtocolError,
    check_hello,
    decode_frame,
    encode_frame,
    hello_frame,
    message_from_dict,
    message_to_dict,
)
from .transport import Address, SocketTransport, format_address

__all__ = ["PeerServer", "bind_port", "build_peer_node"]


def build_peer_node(system: PeerSystem, peer: str, *,
                    default_method: str = "auto",
                    include_local_ics: bool = True,
                    data_dir: Optional[Union[str, Path]] = None,
                    snapshot_every: int = 64,
                    routing: bool = False,
                    tracing: bool = False) -> PeerNode:
    """One peer's node, seeded with only its local slice of ``system``.

    The system definition is authoritative: after construction the
    node's store is moved to the definition's instance (mirroring the
    CLI's ``network --data-dir`` contract), so a durable node that
    resumed *older* disk state logs the difference as a delta — which is
    precisely what lets neighbours re-sync by delta instead of
    re-fetching full relations after a restart — and every node of the
    cluster stamps the same content-derived system version.
    """
    if peer not in system.peers:
        raise NetworkError(
            f"system has no peer {peer!r}; it has "
            f"{sorted(system.peers)}")
    own_edges = [(owner, level, other)
                 for owner, level, other in system.trust.edges()
                 if owner == peer]
    node = PeerNode(
        system.peers[peer], system.instances[peer],
        decs=system.decs_of(peer),
        trust_edges=own_edges,
        default_method=default_method,
        include_local_ics=include_local_ics,
        data_dir=data_dir,
        snapshot_every=snapshot_every,
        routing=routing,
        tracing=tracing)
    node.update_instance(system.instances[peer], system.version())
    return node


class _ServedConnection:
    """The event loop's per-connection state: buffers, not a thread."""

    __slots__ = ("sock", "inbuf", "outbox", "send_offset", "handshaken",
                 "last_activity", "in_flight", "closed", "draining")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        #: encoded reply frames awaiting socket room, oldest first
        self.outbox: collections.deque[bytes] = collections.deque()
        self.send_offset = 0  # progress into outbox[0]
        self.handshaken = False
        self.last_activity = now
        #: admitted requests currently queued/running for this
        #: connection (guarded by the server lock — workers touch it)
        self.in_flight = 0
        self.closed = False
        #: True once the connection must close as soon as the
        #: outbox drains (typed refusal already queued)
        self.draining = False


def bind_port(host: str, port: int, attempts: int = 3) -> socket.socket:
    """A TCP socket bound to ``host:port`` (``SO_REUSEADDR``), not yet
    listening, retrying a bounded number of times on ``EADDRINUSE``.

    A port that was just released can still be held for a moment:
    TIME_WAIT from a just-killed server, or a transient socket that the
    OS handed the port to (:func:`~repro.wire.cluster.free_port`'s
    bind-and-release probe leaves that window open).  A few
    short-backoff retries absorb that race; a genuinely occupied port
    still fails typed after the last attempt.  Until it listens, the
    socket holds the port and refuses dials.
    """
    last: Optional[OSError] = None
    for attempt in range(max(1, attempts)):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            return sock
        except OSError as exc:
            sock.close()
            if exc.errno != errno.EADDRINUSE or port == 0:
                raise
            last = exc
            if attempt + 1 < attempts:
                time.sleep(0.1 * (attempt + 1))
    assert last is not None
    raise last


class PeerServer:
    """Serve one peer's node over a listening TCP socket.

    ``listener`` is a socket already bound for the server (a cluster
    supervisor binds every port itself and hands each one over); without
    it the server binds ``host:port`` with :func:`bind_port`.
    """

    def __init__(self, system: PeerSystem, peer: str, *,
                 host: str = "127.0.0.1", port: int = 0,
                 addresses: Optional[Mapping[str, Union[str,
                                                        Address]]] = None,
                 data_dir: Optional[Union[str, Path]] = None,
                 hop_budget: Optional[int] = None,
                 retries: int = 2,
                 timeout: Optional[float] = None,
                 default_method: str = "auto",
                 include_local_ics: bool = True,
                 snapshot_every: int = 64,
                 request_timeout: float = 10.0,
                 connect_timeout: float = 2.0,
                 workers: int = 8,
                 pending_limit: int = 64,
                 idle_timeout: float = 60.0,
                 bind_retries: int = 3,
                 routing: bool = False,
                 tracing: bool = False,
                 listener: Optional[socket.socket] = None) -> None:
        if workers < 1 or pending_limit < 1:
            raise NetworkError(
                "workers and pending_limit must be >= 1")
        if idle_timeout <= 0:
            raise NetworkError("idle_timeout must be > 0 seconds")
        self.peer = peer
        self.node = build_peer_node(
            system, peer,
            default_method=default_method,
            include_local_ics=include_local_ics,
            # the cluster-level directory, scoped per peer exactly like
            # PeerNetwork.from_system(data_dir=...) scopes nodes
            data_dir=(Path(data_dir) / peer
                      if data_dir is not None else None),
            snapshot_every=snapshot_every,
            routing=routing, tracing=tracing)
        remote = {name: value
                  for name, value in (addresses or {}).items()
                  if name != peer}
        self.transport = SocketTransport(
            remote, local_name=peer, timeout=request_timeout,
            connect_timeout=connect_timeout)
        # a single-node network: the node cannot see the global
        # diameter, so the hop budget must cover the *whole* system
        self.network = PeerNetwork(
            [self.node], self.transport,
            hop_budget=(hop_budget if hop_budget is not None
                        else len(system.peers)),
            retries=retries, timeout=timeout)
        self.workers = workers
        self.pending_limit = pending_limit
        self.idle_timeout = idle_timeout
        if listener is None:
            listener = bind_port(host, port, bind_retries)
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._shutdown = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: live connections, keyed by socket (loop thread owns the
        #: values; the mapping itself is lock-guarded for shutdown)
        self._connections: dict[socket.socket, _ServedConnection] = {}
        #: admitted (queued + running) requests across all connections
        self._pending = 0
        #: replies finished by workers, awaiting the loop thread
        self._finished: collections.deque[
            tuple[_ServedConnection, bytes]] = collections.deque()
        self._executor = ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix=f"peer-worker-{self.peer}")
        # the loop sleeps in select(); workers wake it through a
        # socketpair so a finished reply is flushed immediately
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        #: requests shed at admission since startup (observability)
        self.shed_requests = 0
        #: live serving-process metrics, scraped over the wire by the
        #: :class:`~repro.net.protocol.GetStatus` message
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return format_address((self.host, self.port))

    def start(self) -> "PeerServer":
        """Run the event loop on a daemon thread (in-process use)."""
        if self._accept_thread is not None:
            raise NetworkError(f"server for {self.peer!r} already "
                               f"started")
        self._accept_thread = threading.Thread(
            target=self.serve_forever,
            name=f"peer-server-{self.peer}", daemon=True)
        self._accept_thread.start()
        return self

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the select loop until :meth:`shutdown` (blocking)."""
        selector = selectors.DefaultSelector()
        selector.register(self._listener, selectors.EVENT_READ,
                          "accept")
        selector.register(self._waker_r, selectors.EVENT_READ, "wake")
        # the tick bounds how late idle reaping and shutdown can run;
        # short idle deadlines (tests) get proportionally finer ticks
        tick = max(0.02, min(0.2, self.idle_timeout / 4))
        try:
            while not self._shutdown.is_set():
                events = selector.select(timeout=tick)
                now = time.monotonic()
                for key, mask in events:
                    if key.data == "accept":
                        self._accept(selector, now)
                    elif key.data == "wake":
                        self._drain_waker()
                    else:
                        connection = key.data
                        if mask & selectors.EVENT_READ:
                            self._on_readable(selector, connection, now)
                        if (mask & selectors.EVENT_WRITE
                                and not connection.closed):
                            self._on_writable(selector, connection, now)
                self._flush_finished(selector)
                self._reap_idle(selector, now)
        finally:
            with self._lock:
                connections = list(self._connections.values())
                self._connections.clear()
            for connection in connections:
                connection.closed = True
                self._close_socket(connection.sock)
            selector.close()
            self._close_socket(self._listener)

    def _accept(self, selector: selectors.BaseSelector,
                now: float) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us (shutdown)
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:
                pass
            connection = _ServedConnection(sock, now)
            self.metrics.inc("server.connections_accepted")
            with self._lock:
                self._connections[sock] = connection
            selector.register(sock, selectors.EVENT_READ, connection)

    def _drain_waker(self) -> None:
        try:
            while self._waker_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _wake(self) -> None:
        try:
            self._waker_w.send(b"x")
        except (BlockingIOError, InterruptedError):
            pass  # the loop has unread wake bytes already
        except OSError:
            pass  # torn down mid-shutdown

    # -- reading -------------------------------------------------------
    def _on_readable(self, selector: selectors.BaseSelector,
                     connection: _ServedConnection, now: float) -> None:
        try:
            chunk = connection.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(selector, connection)
            return
        if not chunk:
            # EOF: with no replies owed, close now; otherwise the
            # write side finishes (draining) first
            if connection.in_flight == 0 and not connection.outbox:
                self._drop(selector, connection)
            else:
                connection.draining = True
            return
        connection.last_activity = now
        connection.inbuf += chunk
        self.metrics.inc("server.bytes_in", len(chunk))
        while not connection.closed and not connection.draining:
            end = connection.inbuf.find(b"\n")
            if end < 0:
                if len(connection.inbuf) > MAX_FRAME_BYTES:
                    self._refuse(
                        selector, connection, 0, "protocol",
                        f"frame exceeds the {MAX_FRAME_BYTES}-byte cap")
                break
            line = bytes(connection.inbuf[:end + 1])
            del connection.inbuf[:end + 1]
            self._on_frame(selector, connection, line)

    def _on_frame(self, selector: selectors.BaseSelector,
                  connection: _ServedConnection, line: bytes) -> None:
        try:
            frame = decode_frame(line)
        except WireProtocolError as exc:
            self._refuse(selector, connection, 0, "protocol", str(exc))
            return
        if not connection.handshaken:
            # reply with our hello before judging theirs, so a client
            # from another protocol release sees *our* version in its
            # own handshake check rather than a silent hangup
            self._enqueue(selector, connection,
                          encode_frame(hello_frame(self.peer)))
            try:
                check_hello(frame)
            except WireProtocolError as exc:
                self._refuse(selector, connection, 0, "protocol",
                             str(exc))
                return
            connection.handshaken = True
            return
        correlation = frame.get("correlation_id", 0)
        try:
            message = message_from_dict(frame)
        except WireProtocolError as exc:
            # mismatched vocabulary: answer typed, then hang up
            self._refuse(selector, connection, correlation, "protocol",
                         str(exc))
            return
        self.metrics.inc("server.frames_in")
        with self._lock:
            admitted = self._pending < self.pending_limit
            if admitted:
                self._pending += 1
                connection.in_flight += 1
            else:
                self.shed_requests += 1
                backlog = self._pending
        if not admitted:
            self.metrics.inc("server.shed_requests")
            # admission control: shed *now*, typed and retryable —
            # cheaper for everyone than an unbounded queue
            self._enqueue(selector, connection, encode_frame(
                message_to_dict(Failure(
                    sender=self.peer, target=message.sender,
                    in_reply_to=message.correlation_id,
                    code="overloaded",
                    detail=(f"server has {backlog} request(s) pending "
                            f"(limit {self.pending_limit}); "
                            f"retry with backoff")))))
            return
        self._executor.submit(self._handle, connection, message,
                              time.monotonic())

    # -- worker side ---------------------------------------------------
    def _handle(self, connection: _ServedConnection, message: Message,
                admitted_at: float) -> None:
        """Serve one admitted request on a pool thread.

        ``admitted_at`` is the loop thread's admission timestamp: the
        gap to the worker picking the request up is the queue wait,
        recorded as a histogram always and as a ``queue-wait`` span
        when the request carries a trace context.
        """
        try:
            started = time.monotonic()
            queue_wait = max(0.0, started - admitted_at)
            self.metrics.observe("server.queue_wait_s", queue_wait)
            try:
                if isinstance(message, GetStatus):
                    # metrics are a property of the serving *process*
                    # (sockets, pools, queue), so the server answers
                    # directly instead of the node
                    reply: Message = Answer(
                        sender=self.peer, target=message.sender,
                        in_reply_to=message.correlation_id,
                        payload={"status": self.status()})
                else:
                    reply = self.node.handle(message)
            except Exception as exc:  # a node bug must not kill us
                reply = Failure(
                    sender=self.peer, target=message.sender,
                    in_reply_to=message.correlation_id,
                    code="internal",
                    detail=f"{type(exc).__name__}: {exc}")
            self.metrics.observe("server.execute_s",
                                 time.monotonic() - started)
            self.metrics.inc("server.requests_served")
            if message.trace_id and hasattr(reply, "spans"):
                # the queue-wait span slots next to the node's serve
                # span, both children of the client's request span
                reply = dataclasses.replace(reply, spans=tuple(
                    reply.spans) + (Span(
                        message.trace_id, new_id(), message.span_id,
                        "queue-wait", self.peer, admitted_at,
                        queue_wait),))
            try:
                payload = encode_frame(message_to_dict(reply))
            except WireProtocolError as exc:
                # un-encodable payload (exotic domain values): typed
                payload = encode_frame(message_to_dict(Failure(
                    sender=self.peer, target=message.sender,
                    in_reply_to=message.correlation_id,
                    code="protocol",
                    detail=f"reply not wire-encodable: {exc}")))
        except BaseException:
            with self._lock:
                self._pending -= 1
                connection.in_flight -= 1
            raise
        with self._lock:
            # hand the encoded reply to the loop thread *before*
            # giving the admission slot back, so the idle reaper can
            # never see a quiet connection that still awaits a reply
            self._finished.append((connection, payload))
            self._pending -= 1
            connection.in_flight -= 1
        self._wake()

    def _flush_finished(self,
                        selector: selectors.BaseSelector) -> None:
        while True:
            with self._lock:
                if not self._finished:
                    return
                connection, payload = self._finished.popleft()
            if not connection.closed:
                self._enqueue(selector, connection, payload)

    # -- writing -------------------------------------------------------
    def _enqueue(self, selector: selectors.BaseSelector,
                 connection: _ServedConnection, payload: bytes) -> None:
        connection.outbox.append(payload)
        # opportunistic immediate send: most replies fit the socket
        # buffer, so the common case never waits for a WRITE event
        self._on_writable(selector, connection, time.monotonic())

    def _on_writable(self, selector: selectors.BaseSelector,
                     connection: _ServedConnection, now: float) -> None:
        while connection.outbox:
            head = connection.outbox[0]
            try:
                sent = connection.sock.send(
                    memoryview(head)[connection.send_offset:])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(selector, connection)
                return
            if sent <= 0:
                break
            connection.last_activity = now
            self.metrics.inc("server.bytes_out", sent)
            connection.send_offset += sent
            if connection.send_offset >= len(head):
                connection.outbox.popleft()
                connection.send_offset = 0
            else:
                break  # kernel buffer full mid-frame
        if connection.outbox:
            self._set_interest(selector, connection,
                               selectors.EVENT_READ
                               | selectors.EVENT_WRITE)
        else:
            if connection.draining:
                self._drop(selector, connection)
                return
            self._set_interest(selector, connection,
                               selectors.EVENT_READ)

    @staticmethod
    def _set_interest(selector: selectors.BaseSelector,
                      connection: _ServedConnection, events: int) -> None:
        try:
            selector.modify(connection.sock, events, connection)
        except (KeyError, ValueError, OSError):
            pass  # already unregistered (dropped under us)

    def _refuse(self, selector: selectors.BaseSelector,
                connection: _ServedConnection, in_reply_to: int,
                code: str, detail: str) -> None:
        """Queue a typed failure, then close once it is flushed."""
        try:
            payload = encode_frame(message_to_dict(Failure(
                sender=self.peer, target="", in_reply_to=in_reply_to,
                code=code, detail=detail)))
        except WireProtocolError:  # pragma: no cover - always encodable
            self._drop(selector, connection)
            return
        connection.draining = True
        self._enqueue(selector, connection, payload)

    # -- lifecycle of one connection -----------------------------------
    def _drop(self, selector: selectors.BaseSelector,
              connection: _ServedConnection) -> None:
        if connection.closed:
            return
        connection.closed = True
        try:
            selector.unregister(connection.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._close_socket(connection.sock)
        with self._lock:
            self._connections.pop(connection.sock, None)

    def _reap_idle(self, selector: selectors.BaseSelector,
                   now: float) -> None:
        """Reclaim connections idle past the deadline.

        Idle means: no bytes received, no send progress, and no
        admitted request in flight for ``idle_timeout`` seconds — a
        long-running gather keeps its connection, a silent client (or
        one that stopped reading its replies) loses it.
        """
        with self._lock:
            candidates = [
                connection
                for connection in self._connections.values()
                if connection.in_flight == 0
                and now - connection.last_activity > self.idle_timeout]
        for connection in candidates:
            self.metrics.inc("server.idle_reaped")
            self._drop(selector, connection)

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def connection_count(self) -> int:
        """Live connections currently held by the event loop."""
        with self._lock:
            return len(self._connections)

    def status(self) -> dict:
        """The live status payload a ``GetStatus`` request is answered
        with: identity plus one merged metrics snapshot covering every
        registry this process runs (server loop, outbound transport,
        network retry machinery, and — when enabled — the routing
        index)."""
        with self._lock:
            self.metrics.gauge("server.connections_open",
                               len(self._connections))
            self.metrics.gauge("server.pending_requests", self._pending)
        snapshots = [self.metrics.snapshot(),
                     self.transport.metrics_snapshot(),
                     self.network.metrics.snapshot()]
        if self.node.routing is not None:
            snapshots.append(self.node.routing.metrics.snapshot())
        return {
            "unit": self.peer,
            "peer": self.peer,
            "address": self.address,
            "shed_requests": self.shed_requests,
            "metrics": merge_snapshots(snapshots),
        }

    def shutdown(self) -> None:
        """Stop the loop, drop live connections, flush the node.

        Safe to call more than once; flushing (``network.close``) is
        what persists a durable node's answer and fetch caches, so a
        graceful shutdown is the difference between a warm and a cold
        restart.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self._wake()
        if (self._accept_thread is not None
                and self._accept_thread
                is not threading.current_thread()):
            self._accept_thread.join(timeout=5.0)
        # direct serve_forever callers (the CLI) run the loop's own
        # cleanup via its finally block; this covers a server that was
        # never started, plus the listener either way
        self._close_socket(self._listener)
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.closed = True
            self._close_socket(connection.sock)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._close_socket(self._waker_w)
        self._close_socket(self._waker_r)
        self.network.close()

    def __enter__(self) -> "PeerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"PeerServer({self.peer!r} @ {self.address}, "
                f"neighbours={list(self.transport.addresses())})")
