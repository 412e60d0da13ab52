"""Supervisor lifecycle edge cases: fast failures, no leaked processes."""

import glob
import subprocess
import time

import pytest

from repro.net import NetworkError
from repro.wire import ClusterError, ClusterSupervisor, open_wire_session
from repro.wire.codec import WireProtocolError
from repro.workloads import example1_system


def _no_cluster_processes() -> bool:
    """No spawned ``repro serve`` process is still running (they all
    carry the supervisor's repro-cluster-* temp path on their
    command line)."""
    probe = subprocess.run(["pgrep", "-f", "repro-cluster-"],
                           capture_output=True)
    return probe.returncode != 0


def test_dead_child_fails_fast_not_after_the_full_timeout():
    """A server that exits immediately (invalid arguments) must fail
    start() as soon as its stdout closes, not after startup_timeout."""
    supervisor = ClusterSupervisor(example1_system(), retries=-1,
                                   startup_timeout=60.0)
    own_file = supervisor._own_system_file
    start = time.monotonic()
    with pytest.raises(ClusterError, match="exited before"):
        supervisor.start()
    assert time.monotonic() - start < 30.0
    assert not supervisor.processes  # torn down
    assert not own_file.exists()  # temp definition cleaned up


def test_failed_session_construction_stops_the_cluster():
    """open_wire_session must not orphan the spawned processes when the
    client session itself cannot be built."""
    before = set(glob.glob("/tmp/repro-cluster-*.json"))
    with pytest.raises(WireProtocolError, match="timeouts must be > 0"):
        open_wire_session(example1_system(), request_timeout=0)
    assert _no_cluster_processes()
    assert set(glob.glob("/tmp/repro-cluster-*.json")) == before


def test_open_session_wire_rejects_foreign_kwargs_typed():
    from repro.net import open_session
    with pytest.raises(NetworkError, match="do not apply to the wire"):
        open_session(example1_system(), network="wire",
                     include_local_ics=False)


# ---------------------------------------------------------------------------
# Restarting killed peers
# ---------------------------------------------------------------------------

def test_restart_respawns_on_old_address_and_reanswers():
    from repro.core import PeerQuerySession
    from repro.wire import RemoteNetworkSession

    system = example1_system()
    query = "q(X, Y) := R2(X, Y)"
    expected = PeerQuerySession(system).answer("P2", query)
    with ClusterSupervisor(system) as supervisor:
        session = RemoteNetworkSession(supervisor.addresses(),
                                       retries=1, request_timeout=10.0,
                                       connect_timeout=1.0)
        try:
            old_address = supervisor.addresses()["P2"]
            supervisor.kill("P2")
            assert not supervisor.alive("P2")
            down = session.answer("P2", query)
            assert down.failed

            assert supervisor.restart("P2") == old_address
            assert supervisor.alive("P2")
            back = session.answer("P2", query)
            assert back.ok, back.error
            assert back.answers == expected.answers
        finally:
            session.close()


def test_restart_while_running_refuses_typed():
    with ClusterSupervisor(example1_system()) as supervisor:
        with pytest.raises(ClusterError, match="still running"):
            supervisor.restart("P2")


def test_restart_unknown_unit_refuses_typed():
    with ClusterSupervisor(example1_system()) as supervisor:
        with pytest.raises(ClusterError, match="no server process"):
            supervisor.restart("P9")


# ---------------------------------------------------------------------------
# The free_port bind race: bounded EADDRINUSE retry
# ---------------------------------------------------------------------------

def test_start_comes_up_when_every_free_port_is_squatted(monkeypatch):
    """The supervisor binds each listener itself and hands it to its
    server, so a socket that takes a probed port between the probe and
    the server's bind cannot fail startup: here every port free_port
    returns is held for the whole start."""
    import socket

    from repro.core import PeerQuerySession
    from repro.wire import RemoteNetworkSession, cluster

    squatter = socket.socket()
    squatter.bind(("127.0.0.1", 0))
    squatter.listen(1)
    squatted = squatter.getsockname()[1]
    monkeypatch.setattr(cluster, "free_port", lambda host="": squatted)
    system = example1_system()
    query = "q(X, Y) := R1(X, Y)"
    try:
        with ClusterSupervisor(system) as supervisor:
            ports = {address.rpartition(":")[2]
                     for address in supervisor.addresses().values()}
            assert str(squatted) not in ports
            assert len(ports) == len(system.peers)
            session = RemoteNetworkSession(supervisor.addresses(),
                                           request_timeout=10.0)
            try:
                result = session.answer("P1", query)
            finally:
                session.close()
            assert result.ok, result.error
            assert result.answers == PeerQuerySession(system).answer(
                "P1", query).answers
    finally:
        squatter.close()
    assert _no_cluster_processes()


def test_server_bind_retries_ride_out_a_transient_squatter():
    """free_port's bind-and-release is racy by construction: a squatter
    holding the port when the server binds must be absorbed by the
    bounded retry once it lets go."""
    import socket
    import threading

    from repro.wire import PeerServer, free_port

    port = free_port()
    squatter = socket.socket()
    squatter.bind(("127.0.0.1", port))
    squatter.listen(1)
    threading.Timer(0.25, squatter.close).start()
    try:
        server = PeerServer(example1_system(), "P1", port=port,
                            bind_retries=10)
        try:
            assert server.port == port
        finally:
            server.shutdown()
    finally:
        squatter.close()


def test_server_bind_gives_up_typed_after_bounded_retries():
    import errno
    import socket

    from repro.wire import PeerServer, free_port

    port = free_port()
    squatter = socket.socket()
    squatter.bind(("127.0.0.1", port))
    squatter.listen(1)
    try:
        start = time.monotonic()
        with pytest.raises(OSError) as excinfo:
            PeerServer(example1_system(), "P1", port=port,
                       bind_retries=2)
        assert excinfo.value.errno == errno.EADDRINUSE
        assert time.monotonic() - start < 10.0  # bounded, no spin
    finally:
        squatter.close()
