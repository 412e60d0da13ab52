""":class:`SocketTransport` — the :class:`~repro.net.transport.Transport`
ABC over TCP.

The transport maps peer names to ``host:port`` addresses and delivers
each request as one wire frame (:mod:`repro.wire.codec`), returning the
decoded reply frame.  It slots under the existing
:class:`~repro.net.network.PeerNetwork` unchanged, which is the whole
point: the retry machinery, fan-out, and exchange accounting built for
the in-process transports drive real sockets without modification.

Behaviour contracts (mirroring the in-process transports):

* **multiplexed connection pooling** — a small pool of handshaken
  connections per target, *shared*: many correlated requests ride one
  connection concurrently (the protocol's correlation ids pair each
  reply frame with its request, so replies may return out of order).
  A dedicated reader thread per connection dispatches reply frames to
  their waiters; a reply that matches no in-flight request means the
  stream is desynced, and the connection is discarded — never
  repooled — before it can smear into other requests.
* **per-request deadlines** — ``connect_timeout`` bounds dialing,
  ``timeout`` bounds each round trip; expiry raises the *retryable*
  :class:`~repro.net.errors.MessageDropped` /
  :class:`~repro.net.errors.PeerDown`, so
  :class:`~repro.net.network.PeerNetwork`'s retry budget and typed
  ``peer-unreachable`` end-state just work.  A server shedding load at
  admission (``code="overloaded"`` Failure frames) surfaces as the
  retryable :class:`~repro.net.errors.ServerOverloaded`.
* **identity-checked handshake** — the server's hello advertises the
  peer it serves; dialing a name and reaching a different peer is a
  wiring error and fails typed instead of silently querying the wrong
  process.
* **exact traffic accounting** — every decoded :class:`Answer` is
  stamped with the byte length of its encoded reply frame, replacing
  the in-process size heuristic with the true wire cost (see
  :attr:`ExchangeStats.bytes_estimate
  <repro.core.results.ExchangeStats>`).

Targets without an address fall back to a locally registered handler
(that is what :meth:`register` stores), so a server process can route
to its own node without a loopback socket; a target with neither raises
:class:`~repro.net.errors.PeerDown`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Mapping, Optional, Union

from ..net.errors import MessageDropped, PeerDown, ServerOverloaded
from ..net.protocol import Answer, Failure, Message
from ..net.transport import FaultPlan, Handler, Transport
from ..obs.metrics import MetricsRegistry
from .codec import (
    MAX_FRAME_BYTES,
    WireProtocolError,
    check_hello,
    decode_frame,
    encode_frame,
    encode_message,
    hello_frame,
    message_from_dict,
    read_frame,
)

__all__ = ["SocketTransport", "parse_address", "format_address"]

Address = tuple[str, int]


def parse_address(value: Union[str, Address]) -> Address:
    """``"host:port"`` (or an ``(host, port)`` pair) → ``(host, port)``.

    IPv6 literals use the standard bracket syntax — ``[::1]:8080`` —
    and round-trip through :func:`format_address`.  A bare multi-colon
    form like ``::1:8080`` is *ambiguous* (``host="::1", port=8080``
    and ``host="::1:80", port=80`` both read plausibly; naive
    right-splitting silently picks one) and is rejected with a typed
    error instead of being misparsed.
    """
    if isinstance(value, tuple):
        host, port = value
        return str(host), int(port)
    if value.startswith("["):
        host, sep, port = value.rpartition("]:")
        if not sep or len(host) < 2:
            raise WireProtocolError(
                f"bracketed peer address must look like '[host]:port', "
                f"got {value!r}")
        host = host[1:]  # strip the opening bracket
        if "]" in host or "[" in host:
            raise WireProtocolError(
                f"malformed bracketed peer address: {value!r}")
    else:
        host, sep, port = value.rpartition(":")
        if not sep or not host:
            raise WireProtocolError(
                f"peer address must look like 'host:port', got "
                f"{value!r}")
        if ":" in host:
            raise WireProtocolError(
                f"ambiguous IPv6 peer address {value!r}: bracket the "
                f"host, e.g. '[{host}]:{port}'")
    try:
        return host, int(port)
    except ValueError:
        raise WireProtocolError(
            f"peer address has a non-numeric port: {value!r}") from None


def format_address(address: Address) -> str:
    """Inverse of :func:`parse_address` (brackets IPv6 hosts)."""
    host, port = address
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


class _Waiter:
    """One in-flight request's reply slot."""

    __slots__ = ("event", "reply", "frame_bytes", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: Optional[Message] = None
        self.frame_bytes = 0
        self.error: Optional[BaseException] = None


class _Connection:
    """One handshaken TCP connection, multiplexing many requests.

    Senders interleave whole frames under ``_send_lock``; a dedicated
    reader thread pairs each reply frame with its waiter by
    ``in_reply_to``.  Any stream-level trouble (EOF, socket error,
    undecodable frame, a reply that matches nothing in flight) kills
    the connection and fails every waiter — the *kind* of error decides
    retryability upstream: connection losses are retryable, protocol
    violations are not.
    """

    def __init__(self, address: Address, *, local_name: str,
                 expected: str, connect_timeout: float,
                 timeout: float) -> None:
        self.address = address
        self.sock = socket.create_connection(address,
                                             timeout=connect_timeout)
        self.sock.settimeout(timeout)
        # cheap for our small request/response frames: don't batch them
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")
        #: concurrent requests currently riding this connection —
        #: guarded by the owning transport's lock, not ours
        self.in_flight = 0
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: dict[int, _Waiter] = {}
        #: correlation ids whose waiters gave up (request timeout) —
        #: their late replies are dropped instead of read as desync
        self._abandoned: set[int] = set()
        self._dead: Optional[BaseException] = None
        self._reader: Optional[threading.Thread] = None
        try:
            self.sock.sendall(encode_frame(hello_frame(local_name)))
            reply = read_frame(self.stream)
            if reply is None:
                raise WireProtocolError(
                    f"{format_address(address)} closed the connection "
                    f"during the handshake")
            check_hello(reply)
            advertised = reply.get("sender", "")
            if expected and advertised and advertised != expected:
                # a stale or miswired address book must be a loud
                # wiring error, not a silent wrong answer
                raise WireProtocolError(
                    f"dialed {expected!r} at {format_address(address)} "
                    f"but peer {advertised!r} answered the handshake")
        except socket.timeout:
            # the dial succeeded, the *handshake read* stalled — name
            # the right phase and the right timeout (retryable: the
            # peer may just be overloaded)
            self.close()
            raise PeerDown(
                f"{format_address(address)} accepted the connection "
                f"but did not complete the wire handshake within "
                f"{timeout}s") from None
        except BaseException:
            self.close()
            raise
        # from here on the reader owns the stream; request timeouts are
        # enforced waiter-side, so the socket itself blocks freely
        self.sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"wire-reader-{format_address(address)}", daemon=True)
        self._reader.start()

    # ------------------------------------------------------------------
    @property
    def dead(self) -> bool:
        return self._dead is not None

    def round_trip(self, message: Message,
                   timeout: float) -> tuple[Message, int]:
        """Send one request frame, wait for *its* reply frame.

        Returns ``(reply, reply_frame_bytes)`` — the frame length is
        the exact wire size the traffic accounting records.  Raises
        :class:`socket.timeout` when no reply arrives in ``timeout``
        seconds, :class:`ConnectionResetError` (retryable; the typical
        cause is a server restart under a pooled connection) when the
        stream dies, and :class:`WireProtocolError` for
        decodable-but-wrong frames.
        """
        correlation = message.correlation_id
        payload = encode_message(message)  # may raise typed, pre-send
        waiter = _Waiter()
        with self._lock:
            if self._dead is not None:
                raise ConnectionResetError(
                    f"connection to {format_address(self.address)} "
                    f"already failed: {self._dead}")
            # a retry resends the same message (same correlation id):
            # it must supersede its abandoned predecessor, not desync
            self._abandoned.discard(correlation)
            self._pending[correlation] = waiter
        try:
            with self._send_lock:
                self.sock.sendall(payload)
        except BaseException as exc:
            self._fail(exc if isinstance(exc, OSError)
                       else ConnectionResetError(str(exc)))
            raise
        if not waiter.event.wait(timeout):
            with self._lock:
                still_pending = self._pending.pop(correlation,
                                                  None) is not None
                if still_pending:
                    self._abandoned.add(correlation)
                    if len(self._abandoned) > 32:
                        # a connection drowning in ghosts is wedged;
                        # stop feeding it
                        self._kill_locked(ConnectionResetError(
                            "too many timed-out requests"))
            if still_pending:
                raise socket.timeout(
                    f"no reply within {timeout}s")
            # the reply raced the timeout: the dispatcher popped our
            # pending entry and is about to resolve the waiter — wait
            # out the last few instructions of that race
            waiter.event.wait(5.0)
        if waiter.error is not None:
            raise waiter.error
        assert waiter.reply is not None
        return waiter.reply, waiter.frame_bytes

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                line = self.stream.readline(MAX_FRAME_BYTES + 1)
                if len(line) > MAX_FRAME_BYTES:
                    raise WireProtocolError(
                        f"reply from {format_address(self.address)} "
                        f"exceeds the {MAX_FRAME_BYTES}-byte frame cap")
                if not line or not line.endswith(b"\n"):
                    raise ConnectionResetError(
                        f"{format_address(self.address)} closed the "
                        f"connection"
                        + (" mid-reply" if line else ""))
                reply = message_from_dict(decode_frame(line))
                self._dispatch(reply, len(line))
        except BaseException as exc:
            self._fail(exc)

    def _dispatch(self, reply: Message, frame_bytes: int) -> None:
        in_reply_to = getattr(reply, "in_reply_to", None)
        with self._lock:
            waiter = (self._pending.pop(in_reply_to, None)
                      if in_reply_to is not None else None)
            if waiter is None:
                if in_reply_to in self._abandoned:
                    # the late reply to a timed-out request: the stream
                    # is still in step, just slow — drop the frame
                    self._abandoned.discard(in_reply_to)
                    return
                raise WireProtocolError(
                    f"reply correlation mismatch from "
                    f"{format_address(self.address)}: got a reply to "
                    f"{in_reply_to!r}, which is not in flight — "
                    f"stream desynced")
        waiter.reply = reply
        waiter.frame_bytes = frame_bytes
        waiter.event.set()

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            self._kill_locked(exc)

    def _kill_locked(self, exc: BaseException) -> None:
        if self._dead is None:
            self._dead = exc
        pending, self._pending = self._pending, {}
        for waiter in pending.values():
            waiter.error = exc
            waiter.event.set()
        # a reader parked in readline() holds the buffered stream's
        # internal lock, so only the reader thread itself (or the
        # handshake code, before the reader exists) may close the
        # stream — anyone else would deadlock on that lock.  Shutting
        # the socket down unblocks the parked read, and the reader then
        # runs this same path to completion on its way out.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if (self._reader is None
                or self._reader is threading.current_thread()):
            try:
                self.stream.close()
            except (OSError, ValueError, AttributeError):
                pass
        try:
            self.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        self._fail(ConnectionResetError("connection closed locally"))


class SocketTransport(Transport):
    """Typed protocol messages over pooled, multiplexed TCP connections.

    ``pool_size`` caps the connections dialed per target; within the
    pool, requests pick the least-loaded live connection and new
    connections are dialed only while every existing one is busy — a
    sequential caller reuses one connection forever, a concurrent
    burst fans across the pool and then *pipelines* (``max_in_flight``
    correlated requests per connection before the next dial is
    preferred over further sharing).
    """

    def __init__(self,
                 addresses: Optional[Mapping[str, Union[str,
                                                        Address]]] = None,
                 *, local_name: str = "client",
                 timeout: float = 10.0,
                 connect_timeout: float = 2.0,
                 pool_size: int = 4,
                 max_in_flight: int = 32,
                 faults: Optional[FaultPlan] = None) -> None:
        super().__init__(faults)
        if timeout <= 0 or connect_timeout <= 0:
            raise WireProtocolError(
                "socket timeouts must be > 0 seconds")
        if pool_size < 1 or max_in_flight < 1:
            raise WireProtocolError(
                "pool_size and max_in_flight must be >= 1")
        self.local_name = local_name
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.pool_size = pool_size
        self.max_in_flight = max_in_flight
        self._addresses: dict[str, Address] = {
            name: parse_address(value)
            for name, value in (addresses or {}).items()}
        self._handlers: dict[str, Handler] = {}
        self._pools: dict[str, list[_Connection]] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: dial/request counters and round-trip latencies, scraped by
        #: ``GetStatus`` (see :meth:`metrics_snapshot`)
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def register(self, name: str, handler: Handler) -> None:
        """Attach a local node's handler (used when ``name`` has no
        socket address — the server process's own peer)."""
        self._handlers[name] = handler

    def set_address(self, name: str, address: Union[str, Address]) -> None:
        self._addresses[name] = parse_address(address)

    def resolve(self, target: str) -> Optional[Address]:
        """The socket address serving ``target``, or None (handler /
        unknown)."""
        return self._addresses.get(target)

    def addresses(self) -> dict[str, str]:
        return {name: format_address(address)
                for name, address in sorted(self._addresses.items())}

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(self, message: Message) -> Message:
        target = message.target
        if self.faults.is_down(target):
            raise PeerDown(f"peer {target!r} is down")
        address = self.resolve(target)
        if address is None:
            handler = self._handlers.get(target)
            if handler is None:
                raise PeerDown(
                    f"no address or local node for peer {target!r}")
            return handler(message)
        if self.faults.dropped():
            raise MessageDropped(
                f"message {message.correlation_id} to {target!r} was "
                f"dropped")
        connection = self._checkout(target, address)
        self.metrics.inc("transport.requests")
        started = time.monotonic()
        try:
            reply, frame_bytes = connection.round_trip(message,
                                                       self.timeout)
        except socket.timeout:
            self.metrics.inc("transport.timeouts")
            raise MessageDropped(
                f"no reply from {target!r} at "
                f"{format_address(address)} within {self.timeout}s"
            ) from None
        except WireProtocolError:
            # stream-level protocol errors already killed the
            # connection (reader side); local encode errors never
            # touched it — either way it is not repooled if dead
            raise
        except OSError as exc:
            # a pooled connection going stale (server restarted under
            # it) means its pool siblings are stale too: flush them
            # all so one retry gets a fresh dial instead of burning
            # the budget on dead sockets
            self._discard_pool(target)
            self.metrics.inc("transport.connection_failures")
            raise MessageDropped(
                f"connection to {target!r} at "
                f"{format_address(address)} failed mid-request: {exc}"
            ) from exc
        finally:
            self._release(target, connection)
        self.metrics.observe("transport.round_trip_s",
                             time.monotonic() - started)
        if isinstance(reply, Failure) and reply.code == "overloaded":
            # admission-control shed: typed and *retryable*, with the
            # retry machinery (not the transport) pacing the backoff
            raise ServerOverloaded(
                f"peer {target!r} shed the request under load: "
                f"{reply.detail}")
        if isinstance(reply, Answer):
            # exact traffic accounting: the reply's true encoded size
            # replaces the in-process estimate (bypasses the frozen
            # dataclass exactly like Answer.__post_init__ does)
            object.__setattr__(reply, "bytes_estimate", frame_bytes)
        return reply

    # ------------------------------------------------------------------
    # The connection pool
    # ------------------------------------------------------------------
    def _checkout(self, target: str, address: Address) -> _Connection:
        """A live connection to ``target`` with a reserved request slot.

        Prefers an idle pooled connection; while every pooled
        connection is busy, dials new ones up to ``pool_size`` and only
        then pipelines onto the least-loaded.
        """
        with self._lock:
            pool = self._pools.get(target)
            if pool is not None:
                pool[:] = [c for c in pool if not c.dead]
                if pool:
                    best = min(pool, key=lambda c: c.in_flight)
                    if (best.in_flight == 0
                            or len(pool) >= self.pool_size):
                        best.in_flight += 1
                        return best
        connection = self._dial(target, address)
        surplus: Optional[_Connection] = None
        with self._lock:
            if self._closed:
                connection.close()
                raise PeerDown(
                    f"transport closed while dialing {target!r}")
            pool = self._pools.setdefault(target, [])
            pool[:] = [c for c in pool if not c.dead]
            if len(pool) >= self.pool_size:
                # a concurrent burst already filled the pool while we
                # dialed: pipeline onto the least-loaded connection
                # instead of growing past the cap
                surplus, connection = connection, min(
                    pool, key=lambda c: c.in_flight)
            else:
                pool.append(connection)
            connection.in_flight += 1
        if surplus is not None:
            surplus.close()
        return connection

    def _dial(self, target: str, address: Address) -> _Connection:
        try:
            connection = _Connection(
                address, local_name=self.local_name, expected=target,
                connect_timeout=self.connect_timeout,
                timeout=self.timeout)
            self.metrics.inc("transport.dials")
            return connection
        except socket.timeout:
            raise PeerDown(
                f"peer {target!r} at {format_address(address)} did not "
                f"accept within {self.connect_timeout}s") from None
        except ConnectionError as exc:
            raise PeerDown(
                f"peer {target!r} at {format_address(address)} refused "
                f"the connection: {exc}") from exc
        except OSError as exc:
            raise PeerDown(
                f"cannot reach peer {target!r} at "
                f"{format_address(address)}: {exc}") from exc

    def _release(self, target: str, connection: _Connection) -> None:
        with self._lock:
            connection.in_flight -= 1
            if connection.dead:
                pool = self._pools.get(target)
                if pool is not None and connection in pool:
                    pool.remove(connection)

    def _discard_pool(self, target: str) -> None:
        with self._lock:
            stale = self._pools.pop(target, [])
        for connection in stale:
            connection.close()

    def metrics_snapshot(self) -> dict:
        """The registry snapshot with live pool gauges refreshed
        (total pooled connections and requests in flight)."""
        with self._lock:
            live = [connection
                    for pool in self._pools.values()
                    for connection in pool if not connection.dead]
            pooled = len(live)
            in_flight = sum(c.in_flight for c in live)
        self.metrics.gauge("transport.pooled_connections", pooled)
        self.metrics.gauge("transport.requests_in_flight", in_flight)
        return self.metrics.snapshot()

    def pooled_connections(self, target: str) -> int:
        """How many live connections the pool holds for ``target``
        (idle or carrying in-flight requests)."""
        with self._lock:
            return sum(not connection.dead
                       for connection in self._pools.get(target, ()))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            for connection in pool:
                connection.close()

    def __repr__(self) -> str:
        return (f"SocketTransport({self.addresses()}, "
                f"local_name={self.local_name!r})")
