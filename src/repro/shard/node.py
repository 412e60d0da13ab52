""":class:`ShardedPeerNode` — one shard replica of a logical peer.

The node *is* a :class:`~repro.net.node.PeerNode` named by the logical
peer — same DECs, same trust edges, same answering machinery — whose
store holds only its shard's slice (the :class:`~repro.shard.shardmap.ShardMap`
restriction of the peer's instance).  Two behaviours change:

* :meth:`update_instance` restricts incoming *logical* instances
  through the map first, so syncs ship the peer's full data everywhere
  and each replica keeps exactly its slice — while stamping the full
  system version, which keeps answer caches identical across replicas
  of the same peer;
* :meth:`_complete_own_instance` reassembles the full logical instance
  before answering, by fetching the peer's *own* relations through the
  network's :class:`~repro.shard.router.ShardRouter` (which fans out
  to every sibling shard; the local shard serves its slice through the
  in-process handler).  The fetches name the last composed version
  seen, so a warm re-view moves per-shard deltas, not full relations.

Serving needs no override at all: a :class:`FetchRelation
<repro.net.protocol.FetchRelation>` against this node naturally
returns the slice (with the *slice's* content version, which is what
per-shard delta fetching keys on), and a gather/answer served to other
peers runs over the self-completed view.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from ..core.results import ExchangeStats
from ..core.system import PeerSystem
from ..net.errors import NetworkError
from ..net.node import PeerNode
from ..net.protocol import FetchRelation
from ..relational.instance import DatabaseInstance
from ..routing.digest import NeighbourDigests
from .shardmap import ShardMap

__all__ = ["ShardedPeerNode", "build_shard_node"]


class ShardedPeerNode(PeerNode):
    """A :class:`PeerNode` holding one shard slice of its peer."""

    def __init__(self, peer, instance: DatabaseInstance, decs,
                 trust_edges, *, shard_map: ShardMap, shard_index: int,
                 **kwargs) -> None:
        restricted = shard_map.restrict(instance, peer.name, shard_index)
        super().__init__(peer, restricted, decs, trust_edges, **kwargs)
        self.shard_map = shard_map
        self.shard_index = shard_index
        # the router-composed *logical* digest bundle captured from the
        # last cold self-merge, guarded by the node version it described
        self._logical_digests: Optional[
            tuple[str, NeighbourDigests]] = None

    def update_instance(self, instance: DatabaseInstance,
                        version: str) -> None:
        """Accept the *logical* instance, keep only this shard's slice.

        The stamped ``version`` is the logical system version: every
        replica of every shard of the peer stamps the same token for
        the same logical content, so their view and answer caches
        agree — a client failing over between replicas can never see
        two different answers for one version.
        """
        super().update_instance(
            self.shard_map.restrict(instance, self.name,
                                    self.shard_index),
            version)

    def _subsystem_digests(self):
        """No subsystem digests from a shard replica.

        The node's store holds one *slice* of the logical peer, so its
        own digests would under-describe the peer and a requester could
        wrongly conclude a constant is absent.  Slice digests still
        travel on fetch replies (``_serve_fetch`` is not overridden),
        where the :class:`~repro.shard.router.ShardRouter` composes
        them per shard under the ``shards(...)`` version token.
        """
        return None

    def _subsystem_version(self) -> str:
        """No confirmable subsystem version either: the slice store's
        version describes the slice, not the logical peer, and
        advertising it would let a requester elide fetches against the
        wrong content.  Empty means *never confirm* — routed gathers
        through a sharded peer fall back to flooded-equivalent fetches,
        which is always sound."""
        return ""

    def _aggregate_own_digests(self) -> Optional[NeighbourDigests]:
        """The *logical* digest bundle for subtree aggregation.

        A shard replica must never let its slice digests stand for the
        peer in a :class:`~repro.routing.aggregate.SubtreeDigest` — a
        constant absent from this slice may live on a sibling shard, and
        an aggregate built on the slice would let a requester prune a
        branch that holds answers.  Instead the bundle captured from the
        last cold self-merge is served: the
        :class:`~repro.shard.router.ShardRouter` composes every slice's
        digests into one logical bundle on fetch replies
        (all-or-nothing), and :meth:`_complete_own_instance` keeps the
        most recent one alongside the node version it described.  When
        no capture covers the current version the answer is ``None`` —
        :func:`~repro.routing.aggregate.build_subtree` then degrades the
        whole subtree rather than misdescribe it.
        """
        if self.shard_map.n_shards(self.name) <= 1:
            # one shard == the whole peer: own digests are logical
            return super()._aggregate_own_digests()
        captured = self._logical_digests
        if captured is not None and captured[0] == self._version:
            return captured[1]
        return None

    def _complete_own_instance(self) -> tuple[DatabaseInstance,
                                              ExchangeStats]:
        """Reassemble the peer's full instance across sibling shards.

        Runs under the node lock (from ``_view_and_cost``), which is
        safe: serving a fetch — including this node's own slice,
        reached through the router's local handler — takes only the
        store lock, never the node lock.
        """
        if (self.network is None
                or self.shard_map.n_shards(self.name) <= 1):
            return self.instance, ExchangeStats()
        fetches = []
        bases = []
        for relation in sorted(self.peer.schema.names):
            with self._fetch_lock:
                cached = self._fetched.get((self.name, relation))
            fetches.append(FetchRelation(
                sender=self.name, target=self.name, relation=relation,
                purpose="shard self-merge",
                known_version=cached[0] if cached else ""))
            bases.append(cached[1] if cached else None)
        answers = self.network.fan_out(self.name, fetches)
        data: dict[str, frozenset] = {}
        tuples_moved = bytes_moved = 0
        for request, base, answer in zip(fetches, bases, answers):
            rows, moved = self._integrate_fetch(request, base, answer)
            data[request.relation] = rows
            tuples_moved += moved
            bytes_moved += answer.bytes_estimate
        self._capture_logical_digests(answers)
        return (DatabaseInstance(self.peer.schema, data),
                ExchangeStats(requests=len(fetches),
                              tuples_transferred=tuples_moved,
                              bytes_estimate=bytes_moved, max_hops=1))

    def _capture_logical_digests(self, answers) -> None:
        """Keep the router-composed logical digest bundle, if coherent.

        Each self-merge reply may piggyback the logical
        :class:`~repro.routing.digest.NeighbourDigests` the router
        composed across every shard (under the merged ``shards(...)``
        token); one coherent bundle describes all relations.  A *warm*
        merge (empty-delta probes at a version the requester already
        holds) carries none — the prior capture stays valid, because
        unchanged slices mean an unchanged node version.  Replies
        stamping *different* composed versions mean a sync raced the
        fan-out: the reassembly is torn, so the capture is dropped
        rather than left describing content the version no longer
        names.
        """
        versions = {getattr(answer, "version", "")
                    for answer in answers}
        if len(versions) != 1:
            self._logical_digests = None
            return
        for answer in answers:
            bundle = getattr(answer, "digests", None)
            if bundle is not None and bundle.version in versions:
                self._logical_digests = (self._version, bundle)
                return

    def __repr__(self) -> str:
        return (f"ShardedPeerNode({self.name!r}, "
                f"shard={self.shard_index}/"
                f"{self.shard_map.n_shards(self.name)}, "
                f"{len(self.decs)} DECs)")


def build_shard_node(system: PeerSystem, peer: str, *,
                     shard_map: Optional[ShardMap] = None,
                     shard_index: int = 0,
                     default_method: str = "auto",
                     include_local_ics: bool = True,
                     data_dir: Optional[Union[str, Path]] = None,
                     snapshot_every: int = 64,
                     routing: bool = False,
                     tracing: bool = False) -> PeerNode:
    """One (possibly sharded) node seeded with its slice of ``system``.

    The sharded twin of :func:`~repro.wire.server.build_peer_node`,
    sharing its contract: the system definition is authoritative (the
    trailing ``update_instance`` moves any resumed durable state to the
    definition's content as a logged delta) and the node stamps the
    logical system version.  Without a covering ``shard_map`` this
    builds a plain :class:`~repro.net.node.PeerNode`.
    """
    if peer not in system.peers:
        raise NetworkError(
            f"system has no peer {peer!r}; it has "
            f"{sorted(system.peers)}")
    own_edges = [(owner, level, other)
                 for owner, level, other in system.trust.edges()
                 if owner == peer]
    common = dict(
        decs=system.decs_of(peer),
        trust_edges=own_edges,
        default_method=default_method,
        include_local_ics=include_local_ics,
        data_dir=data_dir,
        snapshot_every=snapshot_every,
        routing=routing,
        tracing=tracing)
    if shard_map is not None and shard_map.covers(peer):
        node: PeerNode = ShardedPeerNode(
            system.peers[peer], system.instances[peer],
            shard_map=shard_map, shard_index=shard_index, **common)
    else:
        node = PeerNode(system.peers[peer], system.instances[peer],
                        **common)
    node.update_instance(system.instances[peer], system.version())
    return node
