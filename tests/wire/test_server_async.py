"""The event-loop server: multiplexing, admission control, idle
deadlines, and the peer-name handshake.

These are the regression tests for the serving-model rewrite: one
selector loop owns every connection (no thread per client), a bounded
worker pool answers admitted requests, request number
``pending_limit + 1`` is shed with a typed *retryable* ``overloaded``
failure, and a silent connection is reclaimed after ``idle_timeout``.
"""

import socket
import threading
import time

import pytest

from repro.net import ServerOverloaded
from repro.net.protocol import Answer, Failure, FetchRelation
from repro.wire import (
    PeerServer,
    RemoteNetworkSession,
    SocketTransport,
)
from repro.wire.codec import (
    WireProtocolError,
    encode_frame,
    hello_frame,
    read_frame,
)


def _handshake(port):
    """Dial raw, complete the hello exchange, return (sock, stream,
    server hello frame)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    stream = sock.makefile("rb")
    sock.sendall(encode_frame(hello_frame("raw-test-client")))
    hello = read_frame(stream)
    return sock, stream, hello


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# Satellite 1: the handshake advertises the peer name
# ---------------------------------------------------------------------------

def test_hello_advertises_plain_peer_name():
    from repro.workloads import example1_system
    server = PeerServer(example1_system(), "P2").start()
    try:
        sock, _stream, hello = _handshake(server.port)
        try:
            assert hello is not None
            assert hello["sender"] == "P2"
        finally:
            sock.close()
    finally:
        server.shutdown()


def test_sharded_replica_advertises_unit_name():
    """A server process is exactly one peer: the unit name its status
    reports, its peer name and its hello sender are one and the same."""
    from repro.wire.cluster import fetch_status
    from repro.workloads import example1_system
    server = PeerServer(example1_system(), "P3").start()
    try:
        status = fetch_status(server.address)
        assert status["unit"] == status["peer"] == "P3"
        assert status["address"] == server.address
        sock, _stream, hello = _handshake(server.port)
        try:
            assert hello is not None
            assert hello["sender"] == status["unit"]
        finally:
            sock.close()
    finally:
        server.shutdown()


def test_client_rejects_wrong_unit_behind_address():
    """Dialing an address that a *different* peer answers is a wiring
    error and must fail loudly, not answer from the wrong store."""
    from repro.workloads import example1_system
    server = PeerServer(example1_system(), "P2").start()
    transport = SocketTransport(
        {"P3": f"127.0.0.1:{server.port}"}, local_name="test")
    try:
        with pytest.raises(WireProtocolError, match="P3.*P2|P2.*P3"):
            transport.request(FetchRelation(
                sender="test", target="P3", relation="R"))
    finally:
        transport.close()
        server.shutdown()


# ---------------------------------------------------------------------------
# Satellite 2: idle connections are reclaimed (regression for the old
# thread-per-connection loop's settimeout(None) leak)
# ---------------------------------------------------------------------------

def test_silent_connection_is_reclaimed():
    from repro.workloads import example1_system
    system = example1_system()
    server = PeerServer(system, "P2", idle_timeout=0.4).start()
    try:
        sock, stream, hello = _handshake(server.port)
        try:
            assert hello is not None
            assert _wait_until(lambda: server.connection_count() == 1)
            # go silent: no request, no close — the server must
            # reclaim the connection on its own
            sock.settimeout(5.0)
            assert stream.readline() == b""  # server closed it
            assert _wait_until(lambda: server.connection_count() == 0)
        finally:
            sock.close()
    finally:
        server.shutdown()


def test_in_flight_request_is_not_reaped():
    """Idle means *nothing in flight*: a request that takes longer
    than the idle deadline keeps its connection."""
    from repro.workloads import example1_system
    system = example1_system()
    server = PeerServer(system, "P2", idle_timeout=0.3).start()
    inner = server.node.handle

    def slow(message):
        time.sleep(0.9)  # 3× the idle deadline
        return inner(message)

    server.node.handle = slow
    transport = SocketTransport(
        {"P2": f"127.0.0.1:{server.port}"}, local_name="test",
        timeout=10.0)
    try:
        reply = transport.request(FetchRelation(
            sender="test", target="P2", relation="R2"))
        assert isinstance(reply, Answer)
    finally:
        transport.close()
        server.shutdown()


# ---------------------------------------------------------------------------
# The tentpole: one loop, hundreds of connections, no thread each
# ---------------------------------------------------------------------------

def test_many_idle_connections_do_not_cost_threads():
    from repro.workloads import example1_system
    system = example1_system()
    server = PeerServer(system, "P2").start()
    sockets = []
    before = threading.active_count()
    try:
        for _ in range(80):
            sock, _stream, hello = _handshake(server.port)
            assert hello is not None
            sockets.append(sock)
        assert _wait_until(lambda: server.connection_count() == 80)
        # the old model would be +80 threads here; the event loop adds
        # none (workers are bounded and only spawn under request load)
        assert threading.active_count() - before <= server.workers
    finally:
        for sock in sockets:
            sock.close()
        server.shutdown()


def test_replies_multiplex_in_completion_order():
    """Two requests pipelined on ONE connection: the fast one must not
    wait behind the slow one (the wire carries correlation ids, so the
    server replies in completion order)."""
    from repro.workloads import example1_system
    system = example1_system()
    server = PeerServer(system, "P2").start()
    inner = server.node.handle

    def handle(message):
        if getattr(message, "relation", "") == "R2":
            time.sleep(0.8)
        return inner(message)

    server.node.handle = handle
    transport = SocketTransport(
        {"P2": f"127.0.0.1:{server.port}"}, local_name="test",
        timeout=10.0, pool_size=1)  # force sharing one connection
    done = {}

    def fire(relation):
        transport.request(FetchRelation(
            sender="test", target="P2", relation=relation))
        done[relation] = time.monotonic()

    try:
        slow = threading.Thread(target=fire, args=("R2",))
        slow.start()
        time.sleep(0.2)  # the slow request is in flight first
        fire("NoSuchRelation")  # fast (typed failure reply)
        slow.join(timeout=10)
        assert transport.pooled_connections("P2") == 1
        assert done["NoSuchRelation"] < done["R2"], \
            "fast reply queued behind slow one: no multiplexing"
    finally:
        transport.close()
        server.shutdown()


# ---------------------------------------------------------------------------
# Admission control: bounded queue, typed retryable shedding
# ---------------------------------------------------------------------------

def _slow_server(handle_seconds, **kwargs):
    from repro.workloads import example1_system
    system = example1_system()
    server = PeerServer(system, "P2", **kwargs).start()
    inner = server.node.handle

    def slow(message):
        time.sleep(handle_seconds)
        return inner(message)

    server.node.handle = slow
    return server


def test_overload_sheds_typed_and_retryable():
    server = _slow_server(0.5, workers=1, pending_limit=2)
    transport = SocketTransport(
        {"P2": f"127.0.0.1:{server.port}"}, local_name="test",
        timeout=15.0)
    outcomes = []

    def fire():
        try:
            outcomes.append(transport.request(FetchRelation(
                sender="test", target="P2", relation="R2")))
        except Exception as exc:  # noqa: BLE001 - inspected below
            outcomes.append(exc)

    threads = [threading.Thread(target=fire) for _ in range(8)]
    try:
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), \
            "requests hung under overload"
        shed = [o for o in outcomes
                if isinstance(o, ServerOverloaded)]
        served = [o for o in outcomes if isinstance(o, Answer)]
        # 8 concurrent vs pending_limit=2: most are shed, and the
        # shedding is *fast* — the served ones pace the wall clock
        assert shed, outcomes
        assert served, outcomes
        assert len(shed) + len(served) == 8
        assert server.shed_requests >= len(shed)
        # nothing degenerated into a reset or an untyped error
        assert not [o for o in outcomes
                    if isinstance(o, Exception)
                    and not isinstance(o, ServerOverloaded)]
        assert time.monotonic() - start < 15.0
    finally:
        transport.close()
        server.shutdown()


def test_overload_failure_reply_is_marked_overloaded():
    """On the wire the shed is an ordinary typed Failure frame with
    ``code="overloaded"`` — old clients see a failure, new clients
    retry it."""
    server = _slow_server(0.6, workers=1, pending_limit=1)
    background = SocketTransport(
        {"P2": f"127.0.0.1:{server.port}"}, local_name="bg",
        timeout=15.0)
    filler = threading.Thread(
        target=lambda: background.request(FetchRelation(
            sender="bg", target="P2", relation="R2")))
    try:
        filler.start()
        assert _wait_until(lambda: server._pending >= 1, timeout=5.0)
        sock, stream, hello = _handshake(server.port)
        try:
            assert hello is not None
            from repro.wire.codec import message_to_dict
            request = FetchRelation(sender="raw-test-client",
                                    target="P2", relation="R2")
            sock.sendall(encode_frame(message_to_dict(request)))
            from repro.wire.codec import message_from_dict
            frame = read_frame(stream)
            assert frame is not None
            reply = message_from_dict(frame)
            assert isinstance(reply, Failure)
            assert reply.code == "overloaded"
            assert reply.in_reply_to == request.correlation_id
        finally:
            sock.close()
    finally:
        filler.join(timeout=20)
        background.close()
        server.shutdown()


def test_session_retries_absorb_overload():
    """A retries-enabled session never surfaces the shed: backoff plus
    the admission queue draining turns overload into latency."""
    server = _slow_server(0.1, workers=1, pending_limit=1)
    session = RemoteNetworkSession(
        {"P2": f"127.0.0.1:{server.port}"}, retries=25,
        request_timeout=15.0)
    results = []

    def fire():
        results.append(session.answer("P2", "q(X, Y) := R2(X, Y)"))

    threads = [threading.Thread(target=fire) for _ in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 6
        assert all(result.ok for result in results), \
            [result.error for result in results if not result.ok]
    finally:
        session.close()
        server.shutdown()
