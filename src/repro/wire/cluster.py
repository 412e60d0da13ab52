"""The cluster supervisor: one OS process per peer, supervised.

:class:`ClusterSupervisor` takes a system (a
:class:`~repro.core.system.PeerSystem` or the path of its JSON
definition), binds a localhost listening socket per peer, and launches
``python -m repro serve SYSTEM PEER --listen-fd ... --peers ...`` once
per peer on the inherited socket — each process holding only its peer's
local slice (instance, DECs, trust edges; durable under
``data_dir/<peer>/`` when given).
``start()`` blocks until every server has printed its ``READY`` line,
``stop()`` terminates them gracefully (SIGTERM → the servers flush
their durable caches → SIGKILL stragglers), and ``kill(peer)`` crashes
one process hard for fault drills.

:func:`open_wire_session` is the one-call path the
``open_session(system, network="wire")`` backend switch uses: launch a
cluster for the system, connect a
:class:`~repro.wire.session.RemoteNetworkSession` to it, and hand the
supervisor to the session so ``close()`` tears the processes down.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Union

from ..core.system import PeerSystem
from ..net.errors import NetworkError
from ..obs.metrics import merge_snapshots
from .server import bind_port
from .transport import format_address

__all__ = ["ClusterError", "ClusterSupervisor", "fetch_status",
           "free_port", "open_wire_session"]

#: the src/ directory this package was imported from — child processes
#: must resolve ``repro`` the same way
_SRC_DIR = Path(__file__).resolve().parents[2]


class ClusterError(NetworkError):
    """A peer server process failed to start, died early, or would not
    stop."""


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned currently-free TCP port on ``host``.

    Bind-and-release: a racing process could grab the port before a
    server binds it.  :class:`~repro.wire.server.PeerServer` absorbs the
    common transient case (``EADDRINUSE`` from a just-released probe or
    a restarting sibling) with a bounded bind retry.  The supervisor does
    not use it: it binds every listener itself and hands it over.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class _ReadyWatcher:
    """Read one child's stdout until its READY line (on a thread, so a
    wedged child cannot hang the supervisor)."""

    def __init__(self, peer: str, process: subprocess.Popen) -> None:
        self.peer = peer
        self.process = process
        self.ready = threading.Event()
        self.address: Optional[str] = None
        self.thread = threading.Thread(target=self._watch,
                                       name=f"ready-{peer}", daemon=True)
        self.thread.start()

    def _watch(self) -> None:
        stream = self.process.stdout
        if stream is None:  # pragma: no cover - spawn always pipes
            return
        try:
            for line in stream:
                parts = line.split()
                if len(parts) >= 3 and parts[0] == "READY":
                    self.address = parts[2]
                    self.ready.set()
                    return
        except (OSError, ValueError):
            pass  # stream closed under us during teardown
        # EOF without READY: the child died during startup — signal
        # anyway (address stays None) so start() fails fast instead of
        # sitting out the whole startup timeout
        self.ready.set()


class ClusterSupervisor:
    """Launch and supervise one ``repro serve`` process per peer."""

    def __init__(self, system: Union[PeerSystem, str, Path], *,
                 host: str = "127.0.0.1",
                 data_dir: Optional[Union[str, Path]] = None,
                 hop_budget: Optional[int] = None,
                 retries: int = 2,
                 timeout: Optional[float] = None,
                 default_method: str = "auto",
                 snapshot_every: int = 64,
                 startup_timeout: float = 60.0,
                 python: str = sys.executable,
                 workers: int = 8,
                 pending_limit: int = 64,
                 idle_timeout: float = 60.0,
                 routing: bool = False,
                 tracing: bool = False) -> None:
        self.host = host
        self.routing = routing
        self.tracing = tracing
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.hop_budget = hop_budget
        self.retries = retries
        self.timeout = timeout
        self.default_method = default_method
        self.snapshot_every = snapshot_every
        self.workers = workers
        self.pending_limit = pending_limit
        self.idle_timeout = idle_timeout
        self.startup_timeout = startup_timeout
        self.python = python
        self._own_system_file: Optional[Path] = None
        if isinstance(system, PeerSystem):
            # the servers need the definition as a file; park it in a
            # temp location owned (and deleted) by this supervisor
            from ..core.io import system_to_dict
            handle = tempfile.NamedTemporaryFile(
                "w", prefix="repro-cluster-", suffix=".json",
                delete=False, encoding="utf-8")
            with handle:
                json.dump(system_to_dict(system), handle, sort_keys=True)
            self._own_system_file = Path(handle.name)
            self.system_path = self._own_system_file
            self.peers = tuple(sorted(system.peers))
        else:
            from ..core.io import load_system
            self.system_path = Path(system)
            self.peers = tuple(sorted(
                load_system(str(self.system_path)).peers))
        self.processes: dict[str, subprocess.Popen] = {}
        self._addresses: dict[str, str] = {}
        self._commands: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def start(self) -> dict[str, str]:
        """Spawn every server process; return ``{peer: "host:port"}``.

        Blocks until all servers print ``READY``; on any startup failure
        the whole cluster is torn down and a typed :class:`ClusterError`
        names the peer that never came up.
        """
        if self.processes:
            raise ClusterError("cluster already started")
        # every port is bound here and held until its server has it: no
        # other socket can take it in between
        listeners = {peer: bind_port(self.host, 0) for peer in self.peers}
        addresses = {
            peer: format_address((self.host, sock.getsockname()[1]))
            for peer, sock in listeners.items()}
        peers_spec = ",".join(f"{peer}={address}"
                              for peer, address in addresses.items())
        watchers = []
        try:
            for peer in self.peers:
                command = [self.python, "-m", "repro", "serve",
                           str(self.system_path), peer,
                           "--peers", peers_spec,
                           "--retries", str(self.retries),
                           "--method", self.default_method,
                           "--snapshot-every", str(self.snapshot_every),
                           "--workers", str(self.workers),
                           "--pending-limit", str(self.pending_limit),
                           "--idle-timeout", str(self.idle_timeout)]
                if self.routing:
                    command += ["--routing"]
                if self.tracing:
                    command += ["--tracing"]
                if self.hop_budget is not None:
                    command += ["--hops", str(self.hop_budget)]
                if self.timeout is not None:
                    command += ["--timeout", str(self.timeout)]
                if self.data_dir is not None:
                    command += ["--data-dir", str(self.data_dir)]
                self._commands[peer] = command
                watchers.append(self._spawn(peer, listeners.pop(peer)))
            deadline = time.monotonic() + self.startup_timeout
            for watcher in watchers:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not watcher.ready.wait(remaining):
                    raise ClusterError(
                        f"peer server {watcher.peer!r} did not report "
                        f"READY within {self.startup_timeout}s "
                        f"(exit code "
                        f"{watcher.process.poll()})")
                if watcher.address is None:
                    raise ClusterError(
                        f"peer server {watcher.peer!r} exited before "
                        f"reporting READY (exit code "
                        f"{watcher.process.wait()})")
        except BaseException:
            for sock in listeners.values():
                sock.close()
            self.stop()
            raise
        self._addresses = addresses
        return dict(addresses)

    def _spawn(self, peer: str, listener: socket.socket) -> _ReadyWatcher:
        """Launch (or relaunch) one peer's stored command on ``listener``
        (bound here), which the child inherits."""
        listener.listen(128)
        fd = listener.fileno()
        try:
            process = subprocess.Popen(
                [*self._commands[peer], "--listen-fd", str(fd)],
                pass_fds=(fd,), env=self._spawn_env(),
                stdout=subprocess.PIPE, text=True)
        finally:
            # the child holds the port now; once it dies, the port
            # refuses dials at once
            listener.close()
        self.processes[peer] = process
        return _ReadyWatcher(peer, process)

    @staticmethod
    def _spawn_env() -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(_SRC_DIR) + os.pathsep
                             + env.get("PYTHONPATH", "")).rstrip(
                                 os.pathsep)
        return env

    def addresses(self) -> dict[str, str]:
        if not self._addresses:
            raise ClusterError("cluster not started")
        return dict(self._addresses)

    def metrics(self, *, timeout: float = 5.0) -> dict:
        """Ask every live server what it is doing (``GetStatus`` scrape).

        Returns ``{"units": {peer: status-or-error},
        "cluster": merged}`` where ``merged`` folds every reachable
        server's registries together (counters/gauges add, histograms
        merge bucket-wise, percentile summaries recomputed) — the
        cluster-wide view of queue depths, sheds, retries, and
        latencies.  Unreachable servers degrade to an ``{"error": ...}``
        entry instead of failing the scrape.
        """
        statuses: dict[str, dict] = {}
        for peer, address in self.addresses().items():
            try:
                statuses[peer] = fetch_status(address, timeout=timeout)
            except NetworkError as exc:
                statuses[peer] = {"unit": peer, "error": str(exc)}
        merged = merge_snapshots(
            status.get("metrics", {}) for status in statuses.values()
            if "error" not in status)
        return {"units": statuses, "cluster": merged}

    # ------------------------------------------------------------------
    def alive(self, peer: str) -> bool:
        process = self._process(peer)
        return process.poll() is None

    def kill(self, peer: str) -> None:
        """Crash one server process hard (SIGKILL): no flush, no
        goodbye — the fault-drill primitive."""
        process = self._process(peer)
        process.kill()
        process.wait(timeout=10)
        self._close_stdout(process)

    def restart(self, peer: str) -> str:
        """Re-spawn a dead peer server on its old address and data
        directory.

        The recovery half of the fault drill: the supervisor re-binds
        the same port (:func:`~repro.wire.server.bind_port`'s bounded
        ``EADDRINUSE`` retry rides out the old socket's lingering state)
        and hands it to the relaunched process, which resumes any
        durable store under the same ``data_dir/<peer>/``; the rest of
        the cluster needs no reconfiguration — its address for the peer
        never changed.  Refuses (typed) while the process is still
        running: ``kill()`` first.
        """
        process = self._process(peer)
        if process.poll() is None:
            raise ClusterError(
                f"peer {peer!r} is still running; kill() it before "
                f"restart()")
        self._close_stdout(process)
        port = int(self._addresses[peer].rpartition(":")[2])
        try:
            listener = bind_port(self.host, port)
        except OSError as exc:
            raise ClusterError(
                f"cannot re-bind peer {peer!r}'s port {port}: {exc}"
            ) from exc
        watcher = self._spawn(peer, listener)
        if not watcher.ready.wait(self.startup_timeout):
            raise ClusterError(
                f"restarted server {peer!r} did not report READY "
                f"within {self.startup_timeout}s (exit code "
                f"{watcher.process.poll()})")
        if watcher.address is None:
            raise ClusterError(
                f"restarted server {peer!r} exited before reporting "
                f"READY (exit code {watcher.process.wait()})")
        return self._addresses[peer]

    def _process(self, peer: str) -> subprocess.Popen:
        try:
            return self.processes[peer]
        except KeyError:
            raise ClusterError(f"no server process for peer {peer!r}"
                               ) from None

    def stop(self, grace: float = 10.0) -> None:
        """Terminate every server (SIGTERM, then SIGKILL stragglers).

        SIGTERM gives durable nodes the clean shutdown that flushes
        their answer and fetch caches to disk — what makes the next
        start a *warm* restart.
        """
        for process in self.processes.values():
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + grace
        for process in self.processes.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            self._close_stdout(process)
        self.processes.clear()
        self._addresses.clear()
        self._commands.clear()
        if self._own_system_file is not None:
            self._own_system_file.unlink(missing_ok=True)
            self._own_system_file = None

    @staticmethod
    def _close_stdout(process: subprocess.Popen) -> None:
        if process.stdout is not None:
            try:
                process.stdout.close()
            except OSError:
                pass

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "up" if self._addresses else "down"
        return (f"ClusterSupervisor({list(self.peers)}, {state}, "
                f"system={str(self.system_path)!r})")


def fetch_status(address: str, *, timeout: float = 5.0) -> dict:
    """Scrape one running peer server's live status over the wire.

    Dials ``address`` directly (no identity expectation — the empty
    expected name skips the handshake identity check, so any server can
    be probed by address alone), sends a
    :class:`~repro.net.protocol.GetStatus`, and returns the decoded
    status payload: unit/peer identity plus the merged metrics
    snapshot of every registry in that process.
    """
    from ..net.protocol import Answer, GetStatus
    from .transport import SocketTransport
    transport = SocketTransport({"": address},
                                local_name="status-probe",
                                timeout=timeout,
                                connect_timeout=timeout)
    try:
        reply = transport.request(
            GetStatus(sender="status-probe", target=""))
    finally:
        transport.close()
    if (isinstance(reply, Answer) and isinstance(reply.payload, dict)
            and isinstance(reply.payload.get("status"), dict)):
        return dict(reply.payload["status"])
    detail = getattr(reply, "detail", type(reply).__name__)
    raise NetworkError(
        f"server at {address} did not answer the status probe: {detail}")


def open_wire_session(system: Union[PeerSystem, str, Path], *,
                      default_method: str = "auto",
                      retries: int = 2,
                      timeout: Optional[float] = None,
                      request_timeout: float = 30.0,
                      tracing: bool = False,
                      **cluster_kwargs):
    """Launch a cluster for ``system`` and connect a session to it.

    The returned :class:`~repro.wire.session.RemoteNetworkSession` owns
    the supervisor: ``close()`` (or leaving its ``with`` block) shuts
    every peer process down.  Extra keyword arguments go to
    :class:`ClusterSupervisor` (``data_dir``, ``host``, ``hop_budget``,
    ``snapshot_every``, ``startup_timeout``, ``routing`` — the last
    turns the query-driven routing index on in every server process).
    ``tracing`` stamps every query with a trace context client-side
    *and* passes ``--tracing`` to the servers, so results carry the
    reassembled cross-process span tree.
    """
    from .session import RemoteNetworkSession
    supervisor = ClusterSupervisor(
        system, default_method=default_method, retries=retries,
        timeout=timeout, tracing=tracing, **cluster_kwargs)
    supervisor.start()
    try:
        return RemoteNetworkSession(
            supervisor.addresses(), default_method=default_method,
            retries=retries, timeout=timeout,
            request_timeout=request_timeout, tracing=tracing,
            supervisor=supervisor)
    except BaseException:
        # the session never took ownership: without this, a bad session
        # argument would orphan every just-spawned server process
        supervisor.stop()
        raise
