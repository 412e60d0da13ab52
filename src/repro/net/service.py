"""The network-backed answering service: :class:`NetworkSession`.

Mirrors :class:`~repro.core.session.PeerQuerySession`'s surface —
``answer`` / ``answer_many`` / ``explain`` returning the same rich
:class:`~repro.core.results.QueryResult` — but executes every query on
the :mod:`repro.net` runtime: the queried peer's node gathers its
accessible sub-network hop-by-hop over the transport, materialises a
local view, and answers from it.  Callers pick the execution backend
with one argument via :func:`open_session`::

    session = open_session(system)                # local, in-process
    session = open_session(system, network=True)  # message-passing nodes

The differential guarantee (locked in by ``tests/net``): on systems
whose peers are all reachable from the queried root, network answers are
tuple-for-tuple identical to the local session's, for every registered
method and both semantics.

Fault behaviour: network failures (peer down, hop budget exhausted,
transport loss beyond the retry budget) never raise out of ``answer`` /
``answer_many`` — they come back as a :class:`QueryResult` whose
``error`` is a typed :class:`~repro.core.results.QueryError`, so batch
callers degrade per-result.  ``explain`` and ``local_view`` raise,
because they have no result object to attach the error to.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Optional, Union

from ..core.results import (
    CERTAIN,
    QueryError,
    QueryRequest,
    QueryResult,
)
from ..core.session import PeerQuerySession
from ..core.system import PeerSystem
from ..relational.query import Query
from .errors import (
    DeadlineExceeded,
    HopBudgetExceeded,
    NetworkError,
    PeerUnreachableError,
    TransportError,
)
from .network import PeerNetwork
from .transport import Transport

__all__ = ["NetworkSession", "open_session"]


def _error_code(exc: NetworkError) -> str:
    if isinstance(exc, HopBudgetExceeded):
        return "hop-budget-exhausted"
    if isinstance(exc, DeadlineExceeded):
        return "deadline-exceeded"
    if isinstance(exc, PeerUnreachableError):
        return "peer-unreachable"
    if isinstance(exc, TransportError):
        return "transport"
    return "network"


#: the defaults of :class:`NetworkSession`'s build-time keywords
_BUILD_DEFAULTS = {
    "transport": None, "include_local_ics": True, "hop_budget": None,
    "retries": 2, "timeout": None, "data_dir": None,
    "snapshot_every": 64, "routing": False, "tracing": False,
}


class NetworkSession:
    """Query answering over message-passing peer nodes.

    Construct from a :class:`~repro.core.system.PeerSystem` (a network
    is built with :meth:`PeerNetwork.from_system`) or from an existing
    :class:`PeerNetwork`.  Keyword arguments mirror the local session's
    (``default_method``, ``include_local_ics``) plus the
    network knobs (``transport``, ``hop_budget``, ``retries``,
    ``timeout`` — an end-to-end per-query budget in
    seconds, surfacing expiry as a ``deadline-exceeded`` typed result
    error) and durability (``data_dir`` makes every node
    persist its facts, answers, and fetch cache under
    ``<data_dir>/<peer>/`` and reload them on construction;
    ``snapshot_every`` bounds the delta logs).  Every keyword but
    ``default_method`` configures how the network is built, so a
    session over an existing network rejects any of them set to a
    non-default value with a :class:`NetworkError`.
    """

    def __init__(self, system_or_network: Union[PeerSystem, PeerNetwork],
                 *, transport: Optional[Transport] = None,
                 default_method: str = "auto",
                 include_local_ics: bool = True,
                 hop_budget: Optional[int] = None,
                 retries: int = 2,
                 timeout: Optional[float] = None,
                 data_dir: Optional[Union[str, "Path"]] = None,
                 snapshot_every: int = 64,
                 routing: bool = False,
                 tracing: bool = False) -> None:
        build = {"transport": transport,
                 "include_local_ics": include_local_ics,
                 "hop_budget": hop_budget, "retries": retries,
                 "timeout": timeout, "data_dir": data_dir,
                 "snapshot_every": snapshot_every, "routing": routing,
                 "tracing": tracing}
        if isinstance(system_or_network, PeerNetwork):
            ignored = sorted(name for name, value in build.items()
                             if value != _BUILD_DEFAULTS[name])
            if ignored:
                raise NetworkError(
                    f"pass {', '.join(ignored)} when the network is "
                    f"built, not to a session over an existing network")
            self.network = system_or_network
        else:
            self.network = PeerNetwork.from_system(
                system_or_network, default_method=default_method,
                **build)
        self.default_method = default_method

    # ------------------------------------------------------------------
    def answer(self, peer: str, query: Union[Query, str], *,
               method: Optional[str] = None,
               semantics: str = CERTAIN) -> QueryResult:
        """Answer one query at ``peer`` over the network runtime.

        Network failures come back as a result with a typed
        :attr:`~repro.core.results.QueryResult.error` — empty answers
        with an error set mean *unknown*, not "no certain answers".
        """
        node = self.network.node(peer)
        request = QueryRequest(peer, query, method, semantics)
        start = time.perf_counter()
        try:
            return node.answer(request.resolved_query(),
                               method=method, semantics=semantics)
        except NetworkError as exc:
            return QueryResult(
                peer=peer,
                query=request.resolved_query(),
                answers=frozenset(),
                semantics=semantics,
                method_requested=method or self.default_method,
                method_used=method or self.default_method,
                solution_count=None,
                elapsed=time.perf_counter() - start,
                error=QueryError(code=_error_code(exc),
                                 message=str(exc),
                                 peer=getattr(exc, "peer", "") or peer),
            )

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

    def explain(self, peer: str, query: Union[Query, str],
                candidate: Optional[tuple] = None):
        """Definition-5 certification evidence computed at the node.

        Raises :class:`~repro.net.errors.NetworkError` on network
        failures (there is no result object to carry a typed error).
        """
        return self.network.node(peer).explain(query, candidate)

    def local_view(self, peer: str) -> PeerSystem:
        """The peer's materialised network view (gathers on first use)."""
        return self.network.node(peer).local_view()

    # ------------------------------------------------------------------
    def use_system(self, system: PeerSystem) -> "NetworkSession":
        """Push a new version of the data to every node (see
        :meth:`PeerNetwork.sync`); returns ``self`` for chaining."""
        self.network.sync(system)
        return self

    @property
    def exchange_log(self):
        """The network's thread-safe log of real message traffic."""
        return self.network.exchange_log

    def close(self) -> None:
        self.network.close()

    def __enter__(self) -> "NetworkSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"NetworkSession({self.network!r}, "
                f"default_method={self.default_method!r})")


#: the keywords each :func:`open_session` backend accepts
_BACKEND_KEYWORDS = {
    "local": ("default_method", "include_local_ics"),
    "in-process network": (
        "default_method", "include_local_ics", "transport", "hop_budget",
        "retries", "timeout", "data_dir", "snapshot_every", "routing",
        "tracing"),
    "wire": ("default_method", "retries", "timeout", "request_timeout",
             "data_dir", "host", "hop_budget", "snapshot_every",
             "startup_timeout", "python", "routing", "tracing"),
}


def _check_keywords(backend: str, kwargs: dict) -> None:
    """Reject keywords ``backend`` does not take with a typed
    :class:`NetworkError` listing what it does take."""
    allowed = _BACKEND_KEYWORDS[backend]
    unknown = sorted(set(kwargs) - set(allowed))
    if not unknown:
        return
    known = set().union(*_BACKEND_KEYWORDS.values())
    if backend == "local" and known.issuperset(unknown):
        raise NetworkError(
            f"{unknown} only apply to the network backends; "
            f"pass network=True or network='wire'")
    raise NetworkError(
        f"{unknown} do not apply to the {backend} backend; "
        f"it takes {sorted(allowed)}")


def open_session(system: PeerSystem, *,
                 network: Union[bool, str] = False,
                 **kwargs):
    """The one-argument switch between execution backends.

    ``network=False`` returns the in-process
    :class:`~repro.core.session.PeerQuerySession`; ``network=True``
    returns a :class:`NetworkSession` running each peer as a
    message-passing node *inside this process*; ``network="wire"``
    launches every peer as an independent OS process serving the wire
    protocol over TCP (see :mod:`repro.wire`) and returns a
    :class:`~repro.wire.session.RemoteNetworkSession` connected to the
    live cluster — remember to ``close()`` it (or use ``with``), which
    shuts the processes down.

    Keyword arguments are forwarded to whichever backend is chosen (the
    local session accepts ``default_method`` and ``include_local_ics``;
    the network session also takes ``transport``, ``hop_budget``,
    ``retries``, ``timeout``, ``data_dir``, ``snapshot_every``,
    ``routing``, ``tracing``; the wire
    backend takes the cluster knobs of
    :func:`repro.wire.cluster.open_wire_session` — ``data_dir``,
    ``host``, ``hop_budget``, ``retries``, ``timeout``,
    ``request_timeout``, ``snapshot_every``, ``startup_timeout``,
    ``python``, ``routing``, ``tracing``).  Any other keyword raises
    :class:`~repro.net.errors.NetworkError`.
    """
    if network == "wire":
        _check_keywords("wire", kwargs)
        from ..wire import open_wire_session
        return open_wire_session(system, **kwargs)
    if network is True or network == "network":
        _check_keywords("in-process network", kwargs)
        return NetworkSession(system, **kwargs)
    if network is not False and network != "local":
        raise NetworkError(
            f"unknown execution backend {network!r}; use False (local), "
            f"True (in-process network), or 'wire' (cross-process)")
    _check_keywords("local", kwargs)
    return PeerQuerySession(system, **kwargs)
