""":class:`ShardedNetwork` — a whole sharded cluster, in one process.

The in-process twin of a shard/replica deployment: every replica of
every shard runs as its own :class:`~repro.shard.node.ShardedPeerNode`
inside its own single-node :class:`~repro.net.network.PeerNetwork`,
each behind its own :class:`~repro.shard.router.ShardRouter`; all
routers share one :class:`~repro.net.transport.LoopbackTransport`
whose handler table is keyed by *physical* replica names.  A client
router on the same loopback answers queries against logical peer
names, exactly like a :class:`~repro.wire.session.RemoteNetworkSession`
against a real cluster — which is what lets the differential suite
sweep ≥20 seeded systems through shards, replicas, splits, and
replica-loss drills without paying process spawns.

Fault drills: :meth:`kill` marks a *physical* replica down on the
shared loopback's fault plan, so every router (peers' and the
client's) sees the outage and fails over; :meth:`revive` brings it
back (routers rediscover it after their health cooldown, or
immediately after :meth:`reset_health`).
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..core.results import CERTAIN, QueryError, QueryRequest, QueryResult
from ..net.errors import NetworkError, TransportError
from ..net.network import PeerNetwork
from ..net.protocol import Answer, AnswerQuery, Failure
from ..net.transport import LoopbackTransport
from ..relational.query import Query
from .node import build_shard_node
from .router import ShardRouter
from .shardmap import ShardMap, cluster_units, replica_layout, replica_name

__all__ = ["ShardedNetwork"]


class ShardedNetwork:
    """Every shard replica as an in-process node, one logical surface."""

    def __init__(self, system, *,
                 shard_map: Optional[ShardMap] = None,
                 shards: int = 2,
                 replicas: int = 1,
                 default_method: str = "auto",
                 include_local_ics: bool = True,
                 hop_budget: Optional[int] = None,
                 retries: int = 2,
                 timeout: Optional[float] = None,
                 cooldown: float = 0.5,
                 routing: bool = False) -> None:
        if shard_map is None:
            shard_map = ShardMap.uniform(system.peers, shards)
        self.system = system
        self.shard_map = shard_map
        self.replicas = replicas
        self.retries = retries
        self.default_method = default_method
        self.routing = routing
        self.inner = LoopbackTransport()
        units = cluster_units(shard_map, sorted(system.peers), replicas)
        layout = replica_layout(shard_map, units)
        budget = (hop_budget if hop_budget is not None
                  else len(system.peers))
        self.networks: dict[str, PeerNetwork] = {}
        for peer in sorted(system.peers):
            if shard_map.covers(peer):
                for shard in range(shard_map.n_shards(peer)):
                    for replica in range(replicas):
                        unit = replica_name(peer, shard, replica)
                        self._spawn(unit, peer, shard, layout, budget,
                                    retries, timeout)
            else:
                self._spawn(peer, peer, 0, layout, budget, retries,
                            timeout)
        #: the logical-surface client, sharing the same loopback
        self.client = ShardRouter(shard_map, layout, self.inner,
                                  local_name="client",
                                  cooldown=cooldown)

    def _spawn(self, unit: str, peer: str, shard: int, layout: dict,
               budget: int, retries: int,
               timeout: Optional[float]) -> None:
        node = build_shard_node(
            self.system, peer,
            shard_map=(self.shard_map
                       if self.shard_map.covers(peer) else None),
            shard_index=shard,
            default_method=self.default_method,
            routing=self.routing)
        router = ShardRouter(self.shard_map, layout, self.inner,
                             local_name=unit)
        # registering the network's node routes the *logical* name onto
        # this unit's physical handler slot (ShardRouter.register)
        self.networks[unit] = PeerNetwork(
            [node], router, hop_budget=budget, retries=retries,
            timeout=timeout)

    # ------------------------------------------------------------------
    # The answering surface (mirrors RemoteNetworkSession)
    # ------------------------------------------------------------------
    def peers(self) -> tuple[str, ...]:
        return tuple(sorted(self.system.peers))

    def answer(self, peer: str, query: Union[Query, str], *,
               method: Optional[str] = None,
               semantics: str = CERTAIN) -> QueryResult:
        """Answer one query at ``peer`` through the client router.

        Transport losses (every replica of a shard down) retry up to
        ``retries`` extra attempts and then come back as a typed
        ``peer-unreachable`` error on the result — never an exception,
        never a hang — matching the wire session's contract.
        """
        if peer not in self.system.peers:
            raise NetworkError(
                f"unknown peer {peer!r}; this cluster serves "
                f"{list(self.peers())}")
        request = QueryRequest(peer, query, method, semantics)
        message = AnswerQuery(
            sender="client", target=peer,
            query=str(request.resolved_query()),
            method=method or "", semantics=semantics)
        start = time.perf_counter()
        reply = None
        failure: Optional[QueryError] = None
        for attempt in range(self.retries + 1):
            try:
                reply = self.client.request(message)
                break
            except TransportError as exc:
                if attempt == self.retries:
                    failure = QueryError(
                        code="peer-unreachable",
                        message=(f"peer {peer!r} unreachable after "
                                 f"{self.retries + 1} attempt(s): "
                                 f"{exc}"),
                        peer=peer)
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
                QueryError(code="protocol",
                           message=(f"peer {peer!r} sent a "
                                    f"{type(reply).__name__} where a "
                                    f"result was expected"),
                           peer=peer),
                elapsed)
        return reply.payload

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
    # Fault drills
    # ------------------------------------------------------------------
    def units(self) -> tuple[str, ...]:
        return tuple(sorted(self.networks))

    def kill(self, unit: str) -> None:
        """Take one physical replica down for every router at once."""
        if unit not in self.networks:
            raise NetworkError(f"no unit {unit!r}; units are "
                               f"{list(self.units())}")
        self.inner.set_down(unit)

    def revive(self, unit: str) -> None:
        if unit not in self.networks:
            raise NetworkError(f"no unit {unit!r}; units are "
                               f"{list(self.units())}")
        self.inner.set_up(unit)

    def reset_health(self) -> None:
        """Clear every router's replica bench (after a recovery)."""
        self.client.reset_health()
        for network in self.networks.values():
            transport = network.transport
            if isinstance(transport, ShardRouter):
                transport.reset_health()

    # ------------------------------------------------------------------
    def close(self) -> None:
        for network in self.networks.values():
            network.close()
        self.client.close()

    def __enter__(self) -> "ShardedNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedNetwork({sorted(self.system.peers)}, "
                f"map={self.shard_map!r}, replicas={self.replicas})")
