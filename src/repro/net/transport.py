"""Pluggable message transports for the peer network runtime.

A :class:`Transport` delivers one request :class:`~repro.net.protocol.Message`
to its target node's handler and returns the reply.  Two implementations
ship:

* :class:`LoopbackTransport` — synchronous in-process dispatch, zero
  overhead; the default for correctness-focused work (the differential
  suite runs on it);
* :class:`ThreadedTransport` — every node gets a single worker thread
  draining its own mailbox (a node is single-threaded, like a real
  process); requests block on a per-call reply box.  Per-link latency,
  seeded message drops, and peer-down faults are injectable, which is
  what the fault-scenario and deadline tests drive.

Both transports share :class:`FaultPlan`, so `peer-down` scenarios can be
scripted without threads too.  Transports know nothing about retries or
logging — that is :class:`~repro.net.network.PeerNetwork`'s job; they
signal losses by raising the retryable
:class:`~repro.net.errors.TransportError` subclasses.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, Mapping, Optional

from .errors import MessageDropped, PeerDown
from .protocol import Message

__all__ = ["Transport", "LoopbackTransport", "ThreadedTransport",
           "FaultPlan"]

Handler = Callable[[Message], Message]


class FaultPlan:
    """Injectable fault behaviour shared by the transports.

    ``latency`` is the default one-way delivery delay in seconds;
    ``link_latency`` overrides it per ``(sender, target)`` link.
    ``drop_rate`` is the seeded probability that a request is lost in
    flight (the sender notices immediately — modelling a fast negative
    ACK — so tests stay quick).  ``down`` peers refuse delivery outright.
    """

    def __init__(self, *, latency: float = 0.0,
                 link_latency: Optional[Mapping[tuple[str, str],
                                               float]] = None,
                 drop_rate: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.latency = latency
        self.link_latency = dict(link_latency or {})
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self._down: set[str] = set()
        self._lock = threading.Lock()

    def delay(self, sender: str, target: str) -> float:
        return self.link_latency.get((sender, target), self.latency)

    def dropped(self) -> bool:
        if not self.drop_rate:
            return False
        with self._lock:
            return self._rng.random() < self.drop_rate

    def set_down(self, peer: str) -> None:
        with self._lock:
            self._down.add(peer)

    def set_up(self, peer: str) -> None:
        with self._lock:
            self._down.discard(peer)

    def is_down(self, peer: str) -> bool:
        with self._lock:
            return peer in self._down


class Transport(ABC):
    """Delivers request messages to node handlers and returns replies."""

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        self.faults = faults if faults is not None else FaultPlan()

    @abstractmethod
    def register(self, name: str, handler: Handler) -> None:
        """Attach a node's message handler under its peer name."""

    @abstractmethod
    def request(self, message: Message) -> Message:
        """Deliver ``message`` and return the reply (Answer or Failure).

        Raises :class:`~repro.net.errors.PeerDown` when the target
        refuses delivery and :class:`~repro.net.errors.MessageDropped`
        when the message (or its reply) is lost — both retryable.
        """

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (worker threads, mailboxes)."""

    # convenience passthroughs for fault scripting
    def set_down(self, peer: str) -> None:
        self.faults.set_down(peer)

    def set_up(self, peer: str) -> None:
        self.faults.set_up(peer)

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LoopbackTransport(Transport):
    """Synchronous in-process dispatch — the zero-overhead default."""

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        super().__init__(faults)
        self._handlers: dict[str, Handler] = {}

    def register(self, name: str, handler: Handler) -> None:
        self._handlers[name] = handler

    def request(self, message: Message) -> Message:
        if self.faults.is_down(message.target):
            raise PeerDown(f"peer {message.target!r} is down")
        handler = self._handlers.get(message.target)
        if handler is None:
            raise PeerDown(f"no node registered for {message.target!r}")
        if self.faults.dropped():
            raise MessageDropped(
                f"message {message.correlation_id} to "
                f"{message.target!r} was dropped")
        delay = self.faults.delay(message.sender, message.target)
        if delay:
            time.sleep(delay)
        return handler(message)


class _Mailbox:
    """One node's worker thread plus its request queue."""

    def __init__(self, name: str, handler: Handler) -> None:
        self.name = name
        self.handler = handler
        self.queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._serve, name=f"peer-node-{name}", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:  # shutdown sentinel
                return
            message, delay, reply_box = item
            if delay:
                time.sleep(delay)
            try:
                reply = self.handler(message)
            except BaseException as exc:  # surface, never kill the worker
                reply = exc
            reply_box.put(reply)


class ThreadedTransport(Transport):
    """Per-node worker threads with injectable latency, drops, and
    peer-down faults.

    A node's mailbox is drained by a single thread, so each node
    processes (and pays the delivery latency of) its requests serially —
    which is exactly why concurrent fan-out to *distinct* neighbours
    wins: their workers sleep in parallel.

    ``timeout`` bounds how long a request waits for its reply before the
    loss is reported as :class:`~repro.net.errors.MessageDropped` — the
    no-hang guarantee of the fault tests.
    """

    def __init__(self, faults: Optional[FaultPlan] = None, *,
                 latency: float = 0.0,
                 link_latency: Optional[Mapping[tuple[str, str],
                                               float]] = None,
                 drop_rate: float = 0.0, seed: int = 0,
                 timeout: float = 5.0) -> None:
        if faults is None:
            faults = FaultPlan(latency=latency, link_latency=link_latency,
                               drop_rate=drop_rate, seed=seed)
        super().__init__(faults)
        self.timeout = timeout
        self._mailboxes: dict[str, _Mailbox] = {}

    def register(self, name: str, handler: Handler) -> None:
        if name in self._mailboxes:
            raise ValueError(f"node {name!r} already registered")
        self._mailboxes[name] = _Mailbox(name, handler)

    def request(self, message: Message) -> Message:
        if self.faults.is_down(message.target):
            raise PeerDown(f"peer {message.target!r} is down")
        mailbox = self._mailboxes.get(message.target)
        if mailbox is None:
            raise PeerDown(f"no node registered for {message.target!r}")
        if self.faults.dropped():
            raise MessageDropped(
                f"message {message.correlation_id} to "
                f"{message.target!r} was dropped")
        reply_box: "queue.SimpleQueue" = queue.SimpleQueue()
        delay = self.faults.delay(message.sender, message.target)
        mailbox.queue.put((message, delay, reply_box))
        try:
            reply = reply_box.get(timeout=self.timeout)
        except queue.Empty:
            raise MessageDropped(
                f"no reply to message {message.correlation_id} from "
                f"{message.target!r} within {self.timeout}s") from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def close(self) -> None:
        for mailbox in self._mailboxes.values():
            mailbox.queue.put(None)
        for mailbox in self._mailboxes.values():
            mailbox.thread.join(timeout=1.0)
        self._mailboxes.clear()
