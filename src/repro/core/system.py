"""The P2P data exchange system of Definition 2.

A :class:`PeerSystem` bundles

(a) a finite set of :class:`Peer` objects,
(b) per-peer disjoint schemas ``R(P)``,
(c) per-peer instances ``r(P)``,
(d) per-peer local ICs ``IC(P)``,
(e) data exchange constraints ``Σ(P, Q)`` (:class:`DataExchange`), and
(f) a :class:`~repro.core.trust.TrustRelation`.

Derived notions of Definition 3 are provided as methods: the extended
schema ``R̄(P)`` (:meth:`PeerSystem.extended_schema_names`), the combined
instance ``r̄`` (:meth:`PeerSystem.global_instance`), and restrictions
``r|P`` (:meth:`PeerSystem.restrict_to_peer`).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..relational.constraints import Constraint, TupleGeneratingConstraint
from ..relational.instance import DatabaseInstance
from ..relational.query import Query
from ..relational.schema import DatabaseSchema
from .errors import QueryScopeError, SystemError_
from .messaging import ExchangeLog
from .trust import TrustLevel, TrustRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .builder import SystemBuilder

__all__ = ["Peer", "DataExchange", "PeerSystem"]


class Peer:
    """A peer: name, schema R(P), and local integrity constraints IC(P)."""

    __slots__ = ("name", "schema", "local_ics")

    def __init__(self, name: str, schema: DatabaseSchema,
                 local_ics: Iterable[Constraint] = ()) -> None:
        if not name:
            raise SystemError_("peer name must be non-empty")
        local_ics = tuple(local_ics)
        for constraint in local_ics:
            foreign = constraint.relations() - set(schema.names)
            if foreign:
                raise SystemError_(
                    f"local IC {constraint.name} of peer {name!r} uses "
                    f"foreign relations {sorted(foreign)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "local_ics", local_ics)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Peer is immutable")

    def __repr__(self) -> str:
        return f"Peer({self.name!r}, {sorted(self.schema.names)})"


class DataExchange:
    """One data exchange constraint in Σ(owner, other).

    ``constraint`` is a sentence over ``R(owner) ∪ R(other)``
    (Definition 2(e)); the builder validates that scoping against the
    system's schemas.
    """

    __slots__ = ("owner", "other", "constraint")

    def __init__(self, owner: str, other: str,
                 constraint: Constraint) -> None:
        if owner == other:
            raise SystemError_(
                f"DEC of peer {owner!r} must involve a second peer")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "other", other)
        object.__setattr__(self, "constraint", constraint)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DataExchange is immutable")

    def __repr__(self) -> str:
        return (f"DataExchange({self.owner!r}, {self.other!r}, "
                f"{self.constraint.name!r})")


class PeerSystem:
    """A complete P2P data exchange system (Definition 2).

    Construction validates every component: disjoint peer schemas,
    instances matching their peer's schema, DECs scoped to the two peers
    involved, trust edges between known peers, and (optionally) that each
    peer's instance satisfies its local ICs — the paper's standing
    assumption ``r(P) |= IC(P)``.
    """

    def __init__(self, peers: Iterable[Peer],
                 instances: Mapping[str, DatabaseInstance],
                 exchanges: Iterable[DataExchange] = (),
                 trust: Optional[TrustRelation] = None,
                 *, enforce_local_ics: bool = True) -> None:
        self.peers: dict[str, Peer] = {}
        for peer in peers:
            if peer.name in self.peers:
                raise SystemError_(f"duplicate peer {peer.name!r}")
            self.peers[peer.name] = peer
        if not self.peers:
            raise SystemError_("a P2P system needs at least one peer")

        # global schema R: disjoint union of the R(P) (Definition 2(b)).
        from ..relational.errors import SchemaError
        schemas = [p.schema for p in self.peers.values()]
        try:
            self.global_schema = schemas[0].disjoint_union(*schemas[1:])
        except SchemaError as exc:
            raise SystemError_(str(exc)) from exc
        self._owner_of: dict[str, str] = {}
        # relation -> (the rows last fetched, their estimate_bytes)
        self._fetched_bytes: dict[str, tuple[frozenset, int]] = {}
        for peer in self.peers.values():
            for name in peer.schema.names:
                self._owner_of[name] = peer.name

        self.instances: dict[str, DatabaseInstance] = {}
        for name, peer in self.peers.items():
            instance = instances.get(name)
            if instance is None:
                instance = DatabaseInstance(peer.schema)
            if instance.schema != peer.schema:
                raise SystemError_(
                    f"instance of peer {name!r} does not match its schema")
            self.instances[name] = instance

        self.exchanges: tuple[DataExchange, ...] = tuple(exchanges)
        for exchange in self.exchanges:
            for peer_name in (exchange.owner, exchange.other):
                if peer_name not in self.peers:
                    raise SystemError_(
                        f"DEC references unknown peer {peer_name!r}")
            allowed = set(self.peers[exchange.owner].schema.names) | \
                set(self.peers[exchange.other].schema.names)
            foreign = exchange.constraint.relations() - allowed
            if foreign:
                raise SystemError_(
                    f"DEC {exchange.constraint.name} of "
                    f"Σ({exchange.owner}, {exchange.other}) uses relations "
                    f"{sorted(foreign)} outside the two peers")

        self.trust = trust if trust is not None else TrustRelation()
        for owner, _level, other in self.trust.edges():
            for peer_name in (owner, other):
                if peer_name not in self.peers:
                    raise SystemError_(
                        f"trust edge references unknown peer {peer_name!r}")

        if enforce_local_ics:
            for name, peer in self.peers.items():
                for constraint in peer.local_ics:
                    if not constraint.holds_in(self.instances[name]):
                        raise SystemError_(
                            f"instance of peer {name!r} violates local IC "
                            f"{constraint.name} (the paper assumes "
                            f"r(P) |= IC(P); pass enforce_local_ics=False "
                            f"to allow)")

        self.exchange_log = ExchangeLog()
        self._version: Optional[str] = None

    # ------------------------------------------------------------------
    # Identity and construction helpers
    # ------------------------------------------------------------------
    def version(self) -> str:
        """The content-derived version fingerprint of this system.

        Computed (lazily, then cached) from everything that defines the
        system's semantics: peers, schemas, local ICs, instances, DECs,
        and trust edges.  Two systems with identical content share a
        version — no matter which process built them, or whether one
        was reloaded from disk after a restart — so caches keyed on it
        (:class:`~repro.core.session.PeerQuerySession`, the
        :mod:`repro.net` node caches, persisted answer caches) validate
        across dump/load round-trips and restarts.  A functional update
        that actually changes data (e.g. :meth:`with_global_instance`
        with different facts) yields a different version; a no-op
        update keeps it, so warm caches survive.
        """
        cached = self._version
        if cached is None:
            cached = self._content_fingerprint()
            self._version = cached
        return cached

    def _content_fingerprint(self) -> str:
        # the io codec is the one canonical serialisation of constraints;
        # imported lazily (io imports this module at load time)
        from .io import constraint_to_dict

        def constraint_key(constraint: Constraint) -> str:
            try:
                return json.dumps(constraint_to_dict(constraint),
                                  sort_keys=True)
            except SystemError_:
                # unregistered constraint classes: fall back to their
                # textual form (stable for all shipped constraints)
                return f"{type(constraint).__name__}:{constraint}"

        digest = hashlib.sha256()

        def feed(*parts: str) -> None:
            for part in parts:
                digest.update(part.encode("utf-8"))
                digest.update(b"\x00")

        for name in sorted(self.peers):
            peer = self.peers[name]
            feed("peer", name)
            for relation in sorted(peer.schema.names):
                schema = peer.schema.relation(relation)
                feed("rel", relation, str(schema.arity),
                     *schema.attributes)
            for key in sorted(constraint_key(c) for c in peer.local_ics):
                feed("ic", key)
            feed("data", self.instances[name].fingerprint())
        for key in sorted(
                json.dumps([e.owner, e.other, constraint_key(e.constraint)])
                for e in self.exchanges):
            feed("dec", key)
        for owner, level, other in sorted(
                (owner, str(level), other)
                for owner, level, other in self.trust.edges()):
            feed("trust", owner, level, other)
        return digest.hexdigest()[:16]

    @classmethod
    def builder(cls) -> "SystemBuilder":
        """A fluent :class:`~repro.core.builder.SystemBuilder`::

            system = (PeerSystem.builder()
                      .peer("P1", {"R1": 2}, instance={"R1": [("a", "b")]})
                      .peer("P2", {"R2": 2})
                      .exchange("P1", "P2", constraint)
                      .trust("P1", "less", "P2")
                      .build())
        """
        from .builder import SystemBuilder
        return SystemBuilder()

    # ------------------------------------------------------------------
    # Definition 2/3 derived notions
    # ------------------------------------------------------------------
    def peer(self, name: str) -> Peer:
        try:
            return self.peers[name]
        except KeyError:
            raise SystemError_(f"unknown peer {name!r}") from None

    def owner_of(self, relation: str) -> str:
        try:
            return self._owner_of[relation]
        except KeyError:
            raise SystemError_(f"unknown relation {relation!r}") from None

    def decs_of(self, peer_name: str) -> tuple[DataExchange, ...]:
        """Σ(P): the DECs owned by the peer."""
        self.peer(peer_name)
        return tuple(e for e in self.exchanges if e.owner == peer_name)

    def trusted_decs_of(self, peer_name: str,
                        level: Optional[TrustLevel] = None
                        ) -> tuple[DataExchange, ...]:
        """The DECs of P toward peers trusted at least `same` (optionally a
        specific level).  Untrusted DECs are ignored, per Section 2."""
        result = []
        for exchange in self.decs_of(peer_name):
            edge = self.trust.level(peer_name, exchange.other)
            if edge is None:
                continue
            if level is not None and edge is not level:
                continue
            result.append(exchange)
        return tuple(result)

    def extended_schema_names(self, peer_name: str) -> tuple[str, ...]:
        """R̄(P): R(P) plus relations appearing in Σ(P) (Definition 3(a))."""
        names = set(self.peer(peer_name).schema.names)
        for exchange in self.decs_of(peer_name):
            names |= exchange.constraint.relations()
        return tuple(sorted(names))

    def global_instance(self) -> DatabaseInstance:
        """r̄: the union of all peers' instances over the global schema."""
        return DatabaseInstance.gather({
            relation: instance for instance in self.instances.values()
            for relation in instance.relations()})

    def restrict_to_peer(self, instance: DatabaseInstance,
                         peer_name: str) -> DatabaseInstance:
        """r|P: restriction of a global instance to R(P) (Definition 3(c))."""
        names = [n for n in self.peer(peer_name).schema.names
                 if n in instance.schema]
        return instance.restrict(names)

    def neighbours(self, peer_name: str) -> tuple[str, ...]:
        """Peers appearing in Σ(P), sorted."""
        return tuple(sorted({e.other for e in self.decs_of(peer_name)}))

    # ------------------------------------------------------------------
    # Query scoping (Definition 5) and peer-to-peer data access
    # ------------------------------------------------------------------
    def validate_query_scope(self, peer_name: str, query: Query) -> None:
        """Ensure ``query`` ∈ L(P) — only P's own relations."""
        own = set(self.peer(peer_name).schema.names)
        foreign = query.relations() - own
        if foreign:
            raise QueryScopeError(
                f"query to peer {peer_name!r} uses foreign relations "
                f"{sorted(foreign)}; Definition 5 requires Q(x̄) ∈ L(P)")

    def fetch_relation(self, requester: str, relation: str,
                       purpose: str = "") -> frozenset:
        """Tuples of ``relation``, logging cross-peer requests.

        This is the (simulated) data exchange step of Example 2: the
        requesting peer pulls another peer's relation to answer a query.
        """
        provider = self.owner_of(relation)
        tuples = self.instances[provider].tuples(relation)
        if requester != provider:  # local reads are not exchanges
            self.exchange_log.record(requester, provider, relation,
                                     len(tuples), purpose,
                                     bytes_estimate=self._bytes_of(
                                         relation, tuples))
        return tuples

    def _bytes_of(self, relation: str, tuples: frozenset) -> int:
        """``estimate_bytes(tuples)``, walked once per immutable row set
        of ``relation`` rather than on every fetch."""
        from .messaging import estimate_bytes
        cached = self._fetched_bytes.get(relation)
        if cached is None or cached[0] is not tuples:
            cached = self._fetched_bytes[relation] = (
                tuples, estimate_bytes(tuples))
        return cached[1]

    # ------------------------------------------------------------------
    # Functional updates (used by stage-wise solution computation)
    # ------------------------------------------------------------------
    def with_global_instance(self, instance: DatabaseInstance
                             ) -> "PeerSystem":
        """A copy of the system whose peer instances are taken from a
        global instance (splitting it by ownership)."""
        per_peer: dict[str, DatabaseInstance] = {}
        for name, peer in self.peers.items():
            data = {relation: instance.tuples(relation)
                    for relation in peer.schema.names}
            per_peer[name] = DatabaseInstance(peer.schema, data)
        return PeerSystem(self.peers.values(), per_peer, self.exchanges,
                          self.trust, enforce_local_ics=False)

    def __repr__(self) -> str:
        return (f"PeerSystem({sorted(self.peers)}, "
                f"{len(self.exchanges)} DECs, {len(self.trust)} trust "
                f"edges)")
