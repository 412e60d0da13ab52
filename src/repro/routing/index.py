"""The per-node routing index: fused digests, topology, and traffic.

A :class:`RoutingIndex` is what a routing-enabled
:class:`~repro.net.node.PeerNode` consults during its hop-by-hop gather.
It learns three things, all passively, from traffic the node would have
paid for anyway:

* **Neighbour digests** — :class:`~repro.routing.digest.NeighbourDigests`
  bundles piggybacked on :class:`~repro.net.protocol.Answer` replies,
  keyed by the provider's store version.
* **Static peer descriptions** — each gathered peer's
  :class:`~repro.core.system.Peer`, owned DECs, trust edges, and DEC
  targets, mined from subsystem payloads.  Topology is static for the
  lifetime of a network (:meth:`~repro.net.network.PeerNetwork.sync`
  rejects topology changes), so a description never goes stale.
* **Traffic statistics** — the :class:`~repro.routing.stats.TrafficStats`
  productivity ordering, mined incrementally from the network's
  :class:`~repro.core.messaging.ExchangeLog`.

It also caches, per ``(child, claimed-set)`` gather context, the last
full subsystem payload a child returned together with its
:func:`subsystem_fingerprint` content token.  The gather sends that
token with the next :class:`~repro.net.protocol.PeerQuery`; a child
whose freshly gathered payload hashes to the same token replies with a
tiny ``{"unchanged": True}`` frame and the requester substitutes the
cached payload — sound because the token is a content hash of the
payload itself (stats excluded — they are per-run cost accounting, not
content), so any data change anywhere in the child's subtree changes
the token and forces a full reply.

**Fallback rules** (pruning is never a correctness decision): a skip
requires either a static description (leaf synthesis) or a same-gather
version confirmation (fetch elision); anything missing, stale, or
version-mismatched degrades to contacting the neighbour exactly as the
flooding gather would.

Every gather decision that reads this state is a method here
(:meth:`RoutingIndex.prune_subtrees`, :meth:`~RoutingIndex.synthesize`,
:meth:`~RoutingIndex.query_hints`, :meth:`~RoutingIndex.observe_reply`,
:meth:`~RoutingIndex.confirmed_digests`,
:meth:`~RoutingIndex.singleton_aggregate`, ...).  A node without
routing asks :data:`FLOODING` the same questions, and it always answers
"contact the neighbour".
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..core.results import ExchangeStats
from ..obs.metrics import MetricsRegistry
from .aggregate import (SubtreeDigest, aggregate_bytes, build_subtree,
                        prune_safe)
from .digest import NeighbourDigests, digest_bytes, digests_at
from .stats import DEFAULT_DECAY, TrafficStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.messaging import ExchangeLog
    from ..core.system import Peer

__all__ = ["RoutingIndex", "PeerDescription", "FLOODING", "distinct_decs",
           "subsystem_fingerprint"]

#: cached subsystem payloads per index (LRU) — one per (child, context)
_MAX_CACHED_PAYLOADS = 16


def subsystem_fingerprint(payload: Mapping) -> str:
    """A deterministic content token for one subsystem payload.

    Hashes everything that defines the payload's *meaning* — peers
    (schema + local ICs), instance fingerprints, the DEC multiset, and
    trust edges — and deliberately excludes ``stats``, which describe
    what one particular gather cost rather than what the subtree
    contains.  Returns ``""`` (token unavailable, feature disabled for
    this payload) when a component cannot be canonically serialised.
    """
    from ..core.io import constraint_to_dict, schema_to_spec
    try:
        digest = hashlib.sha256()
        for name in sorted(payload["peers"]):
            peer = payload["peers"][name]
            digest.update(b"\x00P" + name.encode("utf-8"))
            digest.update(json.dumps(schema_to_spec(peer.schema),
                                     sort_keys=True,
                                     ensure_ascii=True).encode("ascii"))
            for constraint in peer.local_ics:
                digest.update(json.dumps(constraint_to_dict(constraint),
                                         sort_keys=True,
                                         ensure_ascii=True)
                              .encode("ascii"))
        for name in sorted(payload["instances"]):
            digest.update(b"\x00I" + name.encode("utf-8"))
            digest.update(payload["instances"][name].fingerprint()
                          .encode("utf-8"))
        for entry in sorted(
                json.dumps({"owner": dec.owner, "other": dec.other,
                            "constraint":
                                constraint_to_dict(dec.constraint)},
                           sort_keys=True, ensure_ascii=True)
                for dec in payload["decs"]):
            digest.update(b"\x00D" + entry.encode("ascii"))
        for entry in sorted(
                json.dumps([owner, str(level), other],
                           ensure_ascii=True)
                for owner, level, other in payload["trust"]):
            digest.update(b"\x00T" + entry.encode("ascii"))
    except Exception:
        return ""
    return "sub-" + digest.hexdigest()[:16]


def distinct_decs(decs: Iterable) -> list:
    """``decs`` without content duplicates, first occurrence kept.

    Serialisable constraints key on their canonical dict form (stable
    across processes, so wire-decoded copies of one DEC collapse); exotic
    constraint classes outside the io codec fall back to identity."""
    from ..core.io import constraint_to_dict
    seen: set = set()
    kept = []
    for dec in decs:
        try:
            key = (dec.owner, dec.other,
                   json.dumps(constraint_to_dict(dec.constraint),
                              sort_keys=True))
        except Exception:
            key = (dec.owner, dec.other, id(dec))
        if key not in seen:
            seen.add(key)
            kept.append(dec)
    return kept


@dataclass(frozen=True)
class PeerDescription:
    """One gathered peer's static shape: schema, DECs, trust, targets.

    Everything here is fixed for the network's lifetime, so holding it
    lets the gather *synthesize* the subsystem reply of a neighbour
    whose DEC targets are all claimed by the current gather — byte-like
    identical to what the neighbour itself would have answered.
    """

    peer: "Peer"
    decs: tuple
    trust: tuple
    targets: frozenset

    @cached_property
    def safe(self) -> bool:
        """Whether the peer is prune-safe (:func:`~repro.routing.
        aggregate.prune_safe`)."""
        return prune_safe(self.peer.local_ics, self.decs, self.trust)


class RoutingIndex:
    """One node's learned routing state (thread-safe)."""

    def __init__(self, owner: str, *, decay: float = DEFAULT_DECAY,
                 max_payloads: int = _MAX_CACHED_PAYLOADS) -> None:
        self.owner = owner
        self._lock = threading.Lock()
        self._digests: dict[str, NeighbourDigests] = {}
        self._aggregates: dict[str, SubtreeDigest] = {}
        self._descriptions: dict[str, PeerDescription] = {}
        self._payloads: "OrderedDict[tuple[str, frozenset], tuple[str, dict]]" = OrderedDict()
        self._max_payloads = max_payloads
        self.traffic = TrafficStats(decay=decay)
        self._log_position = 0
        #: live counters (cache hit rate, prunes) scraped by GetStatus
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def ingest_log(self, log: "ExchangeLog") -> None:
        """Mine this node's own new exchange events incrementally."""
        events = log.events_since(self._log_position)
        # the log keeps a window, so a position it has passed would
        # never catch up by counting the events it still holds
        self._log_position = log.mark()
        mine = [event for event in events
                if event.requester == self.owner]
        if mine:
            with self._lock:
                self.traffic.ingest(mine)

    def observe_digests(self, digests: Optional[NeighbourDigests]) -> int:
        """Store piggybacked digests, if any; the bytes they cost."""
        if digests is None:
            return 0
        with self._lock:
            self._digests[digests.peer] = digests
        return digest_bytes(digests)

    def observe_reply(self, child: str, answer, version: str
                      ) -> tuple[int, Optional[SubtreeDigest]]:
        """Learn what a subsystem reply from ``child`` piggybacked: its
        digests, and either a fresh subtree aggregate or the quoted token
        confirmed current (:meth:`confirm_aggregate` at ``version``).
        Returns the routing bytes the reply carried — paid-for traffic,
        accounted like any other payload — and the child's aggregate,
        ``None`` when unknown."""
        overhead = self.observe_digests(answer.digests)
        if answer.aggregate is not None:
            self.observe_aggregate(child, answer.aggregate)
            return (overhead + aggregate_bytes(answer.aggregate),
                    answer.aggregate)
        if answer.aggregate_token:
            return overhead, self.confirm_aggregate(
                child, answer.aggregate_token, version)
        return overhead, None

    def observe_aggregate(self, child: str,
                          aggregate: SubtreeDigest) -> None:
        """Store the subtree aggregate a neighbour piggybacked.

        Keyed by the *neighbour* (the subtree's entry point from this
        node), not the aggregate's declared root — a relayed frame could
        claim any root, but pruning decisions are only ever made about
        the neighbour the answer came from.
        """
        with self._lock:
            self._aggregates[child] = aggregate

    def confirm_aggregate(self, child: str, token: str,
                          version: str) -> Optional[SubtreeDigest]:
        """Re-stamp a stored aggregate the child just confirmed fresh.

        Called when a reply quoted ``token`` as the child's *current*
        subtree content without resending bits.  If the stored aggregate
        matches the token, its ``version`` advances to the requester's
        current system version — content provably unchanged in this
        gather — which is what licenses the zero-message prune on later
        queries at the same version.  A token mismatch returns ``None``
        (the store is stale; degrade).
        """
        with self._lock:
            held = self._aggregates.get(child)
            if held is None or held.token != token:
                return None
            if held.version != version:
                held = replace(held, version=version)
                self._aggregates[child] = held
            return held

    def learn_topology(self, payload: Mapping) -> None:
        """Mine static peer descriptions from one subsystem payload.

        A gathered payload carries each covered peer's *complete* DEC
        list and trust edges (every node relays its own in full), so
        filtering by owner — deduplicated, first occurrence kept, which
        preserves the owner's original ordering — reconstructs exactly
        what that peer would hand out itself.
        """
        with self._lock:
            for name, peer in payload["peers"].items():
                if name == self.owner or name in self._descriptions:
                    continue
                decs = tuple(distinct_decs(
                    dec for dec in payload["decs"] if dec.owner == name))
                trust_seen: set = set()
                trust = tuple(
                    edge for edge in payload["trust"]
                    if edge[0] == name and edge not in trust_seen
                    and not trust_seen.add(edge))
                self._descriptions[name] = PeerDescription(
                    peer=peer, decs=decs, trust=trust,
                    targets=frozenset(dec.other for dec in decs))

    def remember_subsystem(self, child: str, context: frozenset,
                           token: str, payload: Mapping) -> None:
        """Cache a child's full subsystem payload under its content
        token for this gather context (LRU-bounded)."""
        entry = {"peers": dict(payload["peers"]),
                 "instances": dict(payload["instances"]),
                 "decs": list(payload["decs"]),
                 "trust": list(payload["trust"])}
        with self._lock:
            self._payloads[(child, context)] = (token, entry)
            self._payloads.move_to_end((child, context))
            while len(self._payloads) > self._max_payloads:
                self._payloads.popitem(last=False)

    def learn_subsystem(self, child: str, context: frozenset,
                        payload: Mapping) -> None:
        """Mine one full subsystem reply: the static descriptions it
        carries, and the payload itself under its content token."""
        self.learn_topology(payload)
        token = subsystem_fingerprint(payload)
        if token:
            self.remember_subsystem(child, context, token, payload)

    # ------------------------------------------------------------------
    # Consulting
    # ------------------------------------------------------------------
    def digest_version(self, peer: str) -> str:
        with self._lock:
            held = self._digests.get(peer)
            return held.version if held is not None else ""

    def digests_for(self, peer: str) -> Optional[NeighbourDigests]:
        with self._lock:
            return self._digests.get(peer)

    def confirmed_digests(self, peer: str, version: str
                          ) -> Optional[NeighbourDigests]:
        """The digests held for ``peer`` if taken at ``version`` — the
        version its reply confirmed in this gather."""
        return digests_at(self.digests_for(peer), version)

    def prune_subtrees(self, pending: Sequence[str], constants,
                       version: str, claimed: frozenset
                       ) -> dict[str, SubtreeDigest]:
        """Tier B: the neighbours among ``pending`` whose whole subtree a
        gather over ``constants`` may skip without a message, each with
        the stored aggregate that proves it.  Every leg is independently
        conservative:

        * the aggregate's ``version`` equals the requester's *current*
          system version (syncs stamp every node, so any data change
          anywhere reverts this and forces a contact — which is also
          what keeps down-peer detection on the contacted paths);
        * the subtree is ``safe`` (identity inclusions, ``less`` trust,
          no local ICs all the way down);
        * the aggregated digests are disjoint from every query constant
          (no-false-negatives: a ``True`` is a proof of absence);
        * the aggregate covers everything reachable through the
          neighbour in this gather's context (:meth:`_covers`).
        """
        if not version or not constants:
            return {}
        with self._lock:
            held = [(child, self._aggregates.get(child)) for child in pending]
        pruned = {}
        for child, aggregate in held:
            if (aggregate is None or aggregate.version != version
                    or not aggregate.safe
                    or not aggregate.disjoint_from(constants)):
                continue
            self.metrics.inc("routing.subtree_prunes")
            if self._covers(child, claimed, aggregate):
                pruned[child] = aggregate
        return pruned

    def _covers(self, child: str, claimed: frozenset,
                aggregate: SubtreeDigest) -> bool:
        """Whether ``aggregate`` covers everything reachable through
        ``child`` *in this gather's context*.

        An aggregate's ``peers`` describe the subtree as it looked from
        the context that built it; a different ``visited`` set changes
        what is reachable through the same neighbour.  The walk follows
        static DEC targets (descriptions never go stale), stops at peers
        this gather already claims (another branch gathers them), and
        fails closed on any peer the aggregate does not cover or the
        index cannot describe."""
        covered = set(aggregate.peers)
        seen = {child}
        frontier = [child]
        while frontier:
            current = frontier.pop()
            description = self.description(current)
            if current not in covered or description is None:
                return False
            for target in description.targets:
                if target not in claimed and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return True

    def singleton_aggregate(self, child: str, claimed: frozenset,
                            version: str, stamp: str
                            ) -> Optional[SubtreeDigest]:
        """The one-peer aggregate of a neighbour whose DEC targets are
        all ``claimed``, built from the digests its fetch replies just
        confirmed at ``version``, stamped ``stamp`` and stored.

        Such a neighbour's subsystem reply is synthesized, so no
        aggregate arrives for it; without this one the subtree chain
        above the gathering node could never form over warm paths."""
        description = self.description(child)
        digests = self.confirmed_digests(child, version)
        if (description is None or digests is None
                or not description.targets <= claimed):
            return None
        singleton = build_subtree(child, digests, (),
                                  safe_root=description.safe,
                                  version=stamp)
        if singleton is not None:
            self.observe_aggregate(child, singleton)
        return singleton

    def description(self, peer: str) -> Optional[PeerDescription]:
        with self._lock:
            return self._descriptions.get(peer)

    def all_prune_safe(self, peers: Iterable[str]) -> bool:
        """Whether every one of ``peers`` is described and prune-safe."""
        for name in peers:
            description = self.description(name)
            if description is None or not description.safe:
                return False
        return True

    def query_hints(self, child: str, context: frozenset
                    ) -> tuple[dict, Optional[dict],
                               Optional[SubtreeDigest]]:
        """What a subsystem query to ``child`` quotes, as
        :class:`~repro.net.protocol.PeerQuery` fields: the digest
        version held for it; the token of the payload cached for this
        context, with the fingerprints of the relayed instances it
        holds (a changed reply can then dedup the ones that did not
        move); and the subtree token of its stored aggregate (a current
        child omits the aggregate bits, and may acknowledge a scoped
        gather's whole subtree irrelevant).  Returns the fields, the
        cached payload and the quoted aggregate."""
        token, entry = self.recall_subsystem(child, context)
        with self._lock:
            quoted = self._aggregates.get(child)
        hints = {"digest_version": self.digest_version(child),
                 "known_subsystem": token, "known_instances": None,
                 "aggregate_token": "" if quoted is None else quoted.token}
        if entry is not None:
            hints["known_instances"] = {
                name: instance.fingerprint()
                for name, instance in entry["instances"].items()} or None
        return hints, entry, quoted

    def recall_subsystem(self, child: str, context: frozenset
                         ) -> tuple[str, Optional[dict]]:
        """The cached ``(token, payload)`` for a gather context, or
        ``("", None)``.  The caller must hold the returned payload for
        the duration of its request — the LRU may evict the entry."""
        with self._lock:
            held = self._payloads.get((child, context))
            if held is None:
                self.metrics.inc("routing.subsystem_cache_misses")
                return "", None
            self._payloads.move_to_end((child, context))
            token, entry = held
        self.metrics.inc("routing.subsystem_cache_hits")
        return token, entry

    def synthesize(self, peer: str, claimed: frozenset
                   ) -> Optional[dict]:
        """A neighbour's subsystem reply, built locally — or ``None``.

        Possible only when the index holds the neighbour's static
        description **and** every DEC target of the neighbour is already
        claimed by this gather: the neighbour's own gather would then
        find nothing pending and answer purely from static state, which
        is exactly what is synthesized here.  The caller still owes the
        neighbour its relation fetches — every pending neighbour
        receives at least one message per gather, so fault behaviour
        (down peers, drops) is identical to the flooding gather.
        """
        description = self.description(peer)
        if description is None:
            return None
        if not description.targets <= claimed:
            return None
        if not description.peer.schema.names:
            # a relation-less peer would otherwise receive no message at
            # all, diverging from flooding's fault observability
            return None
        self.metrics.inc("routing.synthesized_replies")
        return {"peers": {peer: description.peer},
                "instances": {},
                "decs": list(description.decs),
                "trust": list(description.trust),
                "stats": ExchangeStats()}

    def order(self, peers: Sequence[str]) -> list[str]:
        """Contact order: descending learned productivity, stable."""
        with self._lock:
            return self.traffic.order(peers)

    def __repr__(self) -> str:
        with self._lock:
            return (f"RoutingIndex({self.owner!r}, "
                    f"digests={sorted(self._digests)}, "
                    f"descriptions={sorted(self._descriptions)}, "
                    f"payloads={len(self._payloads)})")


class _Flooding:
    """The index a gather without routing consults.  It knows nothing and
    learns nothing, so every neighbour is contacted and every relation
    fetched: the flooding gather is the routed one over this index."""

    def ingest_log(self, log) -> None:
        pass

    def prune_subtrees(self, pending, constants, version, claimed) -> dict:
        return {}

    def synthesize(self, peer, claimed) -> None:
        return None

    def order(self, peers) -> list:
        return list(peers)

    def query_hints(self, child, context) -> tuple:
        return {}, None, None

    def observe_reply(self, child, answer, version) -> tuple:
        return 0, None

    def observe_digests(self, digests) -> int:
        return 0

    def learn_subsystem(self, child, context, payload) -> None:
        pass

    def confirmed_digests(self, peer, version) -> None:
        return None


#: the shared, stateless index of every node that floods
FLOODING = _Flooding()
