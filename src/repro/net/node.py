"""An independent peer node: local data, local answering, typed messages.

A :class:`PeerNode` is one peer of a :class:`~repro.core.system.PeerSystem`
running as its own process-like unit.  It holds only what the paper lets
a peer know locally: its :class:`~repro.core.system.Peer` (schema + local
ICs), its own facts — owned by a versioned
:class:`~repro.storage.base.FactStore` rather than a bare instance — the
DECs *it owns* (Σ(P, ·)), and its own trust edges.  Everything else is
learned by exchanging protocol messages with neighbours.

Serving side — :meth:`PeerNode.handle` answers two request shapes from
its local state alone:

* :class:`~repro.net.protocol.FetchRelation` → the relation's tuples;
  when the requester names a ``known_version`` the store still retains
  the delta chain for, the reply is a *versioned delta* (insertions and
  deletions since that version) instead of the full relation;
* :class:`~repro.net.protocol.PeerQuery` (``kind="subsystem"``) → a
  description of the node's accessible sub-network, gathered hop-by-hop:
  the node describes itself, asks each unvisited DEC-neighbour for *its*
  sub-network (fanned out concurrently through the network router), then
  fetches the neighbours' relation contents — so distant peers' data is
  relayed through intermediates, never pulled from a global store.
  Fetches remember the rows and content version they last saw per
  neighbour relation, so a re-gather after a sync ships deltas instead
  of full relations.

Answering side — :meth:`PeerNode.answer` materialises the gathered
sub-network as a local view :class:`~repro.core.system.PeerSystem` and
drives a cached :class:`~repro.core.session.PeerQuerySession` over it,
so every registered answer method (``auto``/``asp``/``rewrite``/
``model``/``lav``/``transitive``) runs unchanged against node-local
state.  Views, sessions, and :class:`~repro.core.results.QueryResult`
objects are cached per system version — a *content-derived* fingerprint,
so cache entries stay valid across process restarts; :meth:`update_instance`
(called by :meth:`PeerNetwork.sync <repro.net.network.PeerNetwork.sync>`)
moves the node to a new version, records the change as a delta in the
store, and drops stale entries.

Durability — construct with ``data_dir`` and the node survives
restarts: its facts live in a
:class:`~repro.storage.durable.DurableFactStore` (append-only delta
logs + snapshots, write-through, reloaded on construction; on-disk
state wins over the ``instance`` argument), while the answer cache
(keyed by content version + answering configuration) and the
neighbour-fetch cache are flushed to ``answers.json``/``fetched.json``
on :meth:`close` — so a cleanly closed node answers known queries from
disk, and even the first post-restart gather after an update syncs by
delta.  A reloaded node returns answers,
``solution_count``, and ``method_used`` identical to a freshly built
node — the differential suite in ``tests/net`` locks that in.

Because the accessible sub-network is exactly the data Definition 3's
global instance contributes to this peer's solutions (for systems whose
peers are all reachable from the queried root — every paper workload and
:func:`~repro.workloads.synthetic.topology_system` family), the view
answers are tuple-for-tuple identical to the global session's.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

from ..core.results import CERTAIN, ExchangeStats, QueryRequest, QueryResult
from ..core.session import PeerQuerySession
from ..core.system import DataExchange, Peer, PeerSystem
from ..core.trust import TrustLevel, TrustRelation
from ..datalog.terms import Constant
from ..relational.instance import DatabaseInstance
from ..relational.query import And, Cmp, Exists, Or, Query, RelAtom, _Truth
from ..storage import (
    DurableFactStore,
    FactStore,
    MemoryFactStore,
    StorageError,
    merge_relation_rows,
    row_sort_key,
)
from ..routing import (
    NeighbourDigests,
    RoutingIndex,
    SubtreeDigest,
    aggregate_bytes,
    build_subtree,
    digest_bytes,
    subsystem_fingerprint,
)
from ..obs.trace import Span, TraceContext, new_id
from ..storage.durable import write_json_atomic
from .errors import (
    DeadlineExceeded,
    HopBudgetExceeded,
    NetworkError,
    PeerUnreachableError,
    ProtocolError,
)
from .protocol import (
    SUBSYSTEM,
    Answer,
    AnswerQuery,
    Failure,
    FetchRelation,
    Message,
    PeerQuery,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import PeerNetwork

__all__ = ["PeerNode"]

#: cap on persisted answer-cache entries (oldest dropped first), so a
#: long-lived data directory cannot grow without bound across syncs
_MAX_PERSISTED_ANSWERS = 512

#: what one persisted answer entry holds, and the fields that key it
_ANSWER_KEY = ("version", "query", "method", "semantics",
               "include_local_ics")
_ANSWER_FIELDS = _ANSWER_KEY + ("answers", "solution_count", "method_used",
                                "method_requested")

#: the shared falsy context untraced operations run under
_UNTRACED = TraceContext()


def _serve_span_name(message: Message) -> str:
    """How a served request's span is labelled in the trace."""
    if isinstance(message, FetchRelation):
        return f"serve:fetch:{message.relation}"
    if isinstance(message, PeerQuery):
        return "serve:gather"
    if isinstance(message, AnswerQuery):
        return "serve:answer"
    return f"serve:{type(message).__name__.lower()}"


def _dec_key(dec: DataExchange) -> object:
    """A content key for deduplicating relayed DECs.

    Serialisable constraints key on their canonical dict form (stable
    across processes, so wire-decoded copies of one DEC collapse);
    exotic constraint classes outside the io codec fall back to object
    identity — exactly the old in-process behaviour.
    """
    from ..core.io import constraint_to_dict
    try:
        return (dec.owner, dec.other,
                json.dumps(constraint_to_dict(dec.constraint),
                           sort_keys=True))
    except Exception:
        return (dec.owner, dec.other, id(dec))


class PeerNode:
    """One peer served from its own (optionally durable) local state."""

    def __init__(self, peer: Peer, instance: DatabaseInstance,
                 decs: Iterable[DataExchange],
                 trust_edges: Iterable[tuple[str, TrustLevel, str]], *,
                 version: str = "",
                 default_method: str = "auto",
                 include_local_ics: bool = True,
                 data_dir: Optional[Union[str, Path]] = None,
                 snapshot_every: int = 64,
                 routing: bool = False,
                 tracing: bool = False) -> None:
        self.peer = peer
        self.name = peer.name
        self.decs = tuple(decs)
        self.trust_edges = tuple(trust_edges)
        self.default_method = default_method
        self.include_local_ics = include_local_ics
        self.network: Optional["PeerNetwork"] = None  # set on registration
        self.data_dir = Path(data_dir) if data_dir is not None else None
        if self.data_dir is None:
            self.store: FactStore = MemoryFactStore(instance)
        else:
            # on-disk state (if any) wins over the seed instance: a
            # restarted node resumes from what it last persisted
            self.store = DurableFactStore(self.data_dir / "store",
                                          peer.schema, initial=instance,
                                          snapshot_every=snapshot_every)
        self._version = version
        # all caches are keyed (or valid only) per system version.
        # Views and sessions key on the relevance scope that gathered
        # them: () is the full (unscoped) view, valid for any query; a
        # constants tuple keys a scoped view valid only for queries
        # over exactly those constants
        self._views: dict[tuple, tuple[PeerSystem, ExchangeStats]] = {}
        self._sessions: dict[tuple, PeerQuerySession] = {}
        # the complete peer set of the last unscoped gather — the
        # global-safety gate for relevance scoping (static topology:
        # sync rejects topology changes, so this never goes stale)
        self._known_subsystem_peers: frozenset = frozenset()
        self._answers: dict[tuple, QueryResult] = {}
        self._persisted: dict[tuple, dict] = {}
        # last rows + content version seen per (neighbour, relation)
        self._fetched: dict[tuple[str, str], tuple[str, frozenset]] = {}
        self._fetch_lock = threading.Lock()
        self._lock = threading.RLock()
        #: the learned routing state, or None when the node floods
        self.routing: Optional[RoutingIndex] = (
            RoutingIndex(peer.name) if routing else None)
        #: whether root answers on this node open a distributed trace;
        #: served requests carrying a trace id are honoured regardless
        #: (the requester opted in and pays the span bytes)
        self.tracing = tracing
        # the trace context of the operation running on this thread —
        # thread-local because a node serves many requesters at once
        self._trace_ctx = threading.local()
        self._digest_cache: Optional[NeighbourDigests] = None
        if self.data_dir is not None:
            self._load_persisted()

    # ------------------------------------------------------------------
    # Topology as seen locally
    # ------------------------------------------------------------------
    def neighbours(self) -> tuple[str, ...]:
        """Peers this node's own DECs point at, sorted."""
        return tuple(sorted({exchange.other for exchange in self.decs}))

    @property
    def instance(self) -> DatabaseInstance:
        """The node's current local data (owned by :attr:`store`)."""
        return self.store.instance

    def version(self) -> str:
        return self._version

    def stamp_version(self, version: str) -> None:
        """Set the token identifying the node's *current* content.

        Used by :meth:`PeerNetwork.from_system
        <repro.net.network.PeerNetwork.from_system>` right after
        construction, once it knows whether the stores actually hold
        the system's data (a durable node may have resumed different
        content from disk) — stamping must never assert a version the
        data does not have, or answer caches would alias distinct data.
        """
        with self._lock:
            self._version = version

    def update_instance(self, instance: DatabaseInstance,
                        version: str) -> None:
        """Swap in new local data (a new system version).

        The change lands in the store as a normalised, logged delta —
        which is what lets this node answer neighbours' subsequent
        fetches with deltas — and all view/session caches for older
        versions are dropped.  A no-op update (same content, same
        version) keeps every cache warm.
        """
        with self._lock:
            delta = self.store.replace(instance)
            if delta.empty and version == self._version:
                return
            self._version = version
            self._views = {}
            self._sessions = {}
            # version-keyed entries for other versions can never be hit
            # again (versions are content-derived); prune them so a
            # long-lived node does not grow without bound across syncs
            self._answers = {key: value
                             for key, value in self._answers.items()
                             if key[0] == version}

    # ------------------------------------------------------------------
    # Serving: the message handler registered on the transport
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Message:
        """Serve one request from local state; never raises
        :class:`~repro.net.errors.NetworkError` — failures travel back
        as typed :class:`~repro.net.protocol.Failure` replies.

        A message carrying a ``trace_id`` is served under a span: the
        serve duration is recorded, every span this node (and anything
        it contacted) produced for the trace is drained from the shared
        recorder, and the lot rides back piggybacked on the reply — so
        the requester reassembles the full cross-process tree.  The
        untraced path pays one truthiness check.
        """
        recorder = self._recorder()
        if not message.trace_id or recorder is None:
            return self._dispatch(message)
        ctx = TraceContext(message.trace_id, message.span_id,
                           message.parent_span_id)
        span_id = new_id()
        previous = getattr(self._trace_ctx, "ctx", None)
        self._trace_ctx.ctx = ctx.descend(span_id)
        start = time.monotonic()
        try:
            reply = self._dispatch(message)
        finally:
            self._trace_ctx.ctx = previous
        recorder.record(Span(ctx.trace_id, span_id, ctx.span_id,
                             _serve_span_name(message), self.name,
                             start, time.monotonic() - start))
        spans = recorder.drain(ctx.trace_id)
        if spans and isinstance(reply, (Answer, Failure)):
            reply = dataclasses.replace(reply,
                                        spans=reply.spans + spans)
        return reply

    def _current_trace(self) -> TraceContext:
        return getattr(self._trace_ctx, "ctx", None) or _UNTRACED

    def _recorder(self):
        """The network-shared span recorder (None when detached)."""
        return self.network.spans if self.network is not None else None

    def _trace_fields(self, ctx: TraceContext) -> dict:
        """The trace fields to stamp on an outgoing request: a fresh
        span id for its round trip, parented under the current span.
        Empty (all-default) when untraced."""
        if not ctx:
            return {}
        return {"trace_id": ctx.trace_id, "span_id": new_id(),
                "parent_span_id": ctx.span_id}

    def _dispatch(self, message: Message) -> Message:
        try:
            if isinstance(message, FetchRelation):
                return self._serve_fetch(message)
            if isinstance(message, PeerQuery):
                return self._serve_peer_query(message)
            if isinstance(message, AnswerQuery):
                return self._serve_answer_query(message)
        except DeadlineExceeded as exc:
            return self._failure(message, "deadline-exceeded", str(exc))
        except HopBudgetExceeded as exc:
            return self._failure(message, "hop-budget-exhausted", str(exc))
        except PeerUnreachableError as exc:
            return self._failure(message, "peer-unreachable", str(exc))
        except ProtocolError as exc:
            return self._failure(message, "protocol", str(exc))
        except NetworkError as exc:
            return self._failure(message, "network", str(exc))
        return self._failure(
            message, "unsupported-message",
            f"node {self.name!r} cannot serve "
            f"{type(message).__name__} messages")

    def _failure(self, message: Message, code: str,
                 detail: str) -> Failure:
        return Failure(sender=self.name, target=message.sender,
                       in_reply_to=message.correlation_id,
                       code=code, detail=detail)

    def _serve_fetch(self, message: FetchRelation) -> Message:
        if message.relation not in self.peer.schema.names:
            return self._failure(
                message, "unknown-relation",
                f"peer {self.name!r} does not own relation "
                f"{message.relation!r}")
        # one atomic read: a concurrent sync must never let the reply
        # stamp an older version than the rows/chain it ships
        current, chain, rows = self.store.fetch_state(
            message.relation, message.known_version)
        # piggyback digests only when the requester is behind this
        # version — a steady-state empty-delta probe carries none
        digests = None
        if self.routing is not None and message.known_version != current:
            digests = self._own_digests()
            if digests is not None and digests.version != current:
                digests = None  # raced a concurrent sync; don't mislead
        if chain is not None:
            inserted, deleted = merge_relation_rows(
                chain, message.relation)
            payload = {
                "insert": tuple(sorted(inserted, key=row_sort_key)),
                "delete": tuple(sorted(deleted, key=row_sort_key)),
            }
            return Answer(sender=self.name, target=message.sender,
                          in_reply_to=message.correlation_id,
                          payload=payload, version=current,
                          delta=True, digests=digests)
        return Answer(sender=self.name, target=message.sender,
                      in_reply_to=message.correlation_id,
                      payload=tuple(sorted(rows, key=row_sort_key)),
                      version=current, digests=digests)

    def _serve_answer_query(self, message: AnswerQuery) -> Message:
        """Serve a full query answer (the wire runtime's client RPC).

        The node resolves the query, gathers its view, and answers
        exactly as a local caller of :meth:`answer` would; the whole
        :class:`~repro.core.results.QueryResult` travels back as the
        reply payload.  Answering failures (bad query text, unknown
        method) surface as typed :class:`Failure` replies rather than
        killing the connection.
        """
        from ..core.errors import P2PError
        from ..relational.errors import RelationalError
        try:
            result = self.answer(message.query,
                                 method=message.method or None,
                                 semantics=message.semantics)
        except NetworkError:
            raise  # mapped onto Failure codes by handle()
        except (P2PError, RelationalError) as exc:
            return self._failure(message, "bad-request", str(exc))
        return Answer(sender=self.name, target=message.sender,
                      in_reply_to=message.correlation_id, payload=result)

    def _serve_peer_query(self, message: PeerQuery) -> Message:
        if message.kind != SUBSYSTEM:
            return self._failure(
                message, "unsupported-message",
                f"unknown PeerQuery kind {message.kind!r}")
        constants = (tuple(message.constants)
                     if self.routing is not None else ())
        if self.network is not None:
            # a served gather is an operation of its own: the *serving*
            # node's network budget bounds it (the requester's budget
            # bounds its wait independently)
            with self.network.operation_deadline():
                payload = self._gather(message.hop_budget,
                                       message.visited, constants)
        else:
            payload = self._gather(message.hop_budget, message.visited,
                                   constants)
        aggregate = payload.pop("aggregate", None)
        version = ""
        digests = None
        attach = None
        aggregate_token = ""
        if self.routing is not None:
            if aggregate is not None:
                # always stamp the current subtree token; ship the bits
                # only when the requester's quoted token is behind AND
                # the requester can use them — the query is scoped
                # (constants to prune against) or a quoted token shows
                # it maintains an aggregate for this subtree.  Unscoped
                # token-less gathers can never prune by disjointness,
                # so shipping bits there is pure overhead.
                aggregate_token = aggregate.token
                if message.aggregate_token != aggregate.token:
                    if message.constants or message.aggregate_token:
                        attach = aggregate
                elif (constants and aggregate.safe
                        and aggregate.disjoint_from(constants)):
                    # tier A — the requester holds this exact aggregate
                    # (token-confirmed in this gather) and the subtree
                    # is provably irrelevant to the query: acknowledge
                    # instead of relaying the payload
                    return Answer(
                        sender=self.name, target=message.sender,
                        in_reply_to=message.correlation_id,
                        payload={"irrelevant": True,
                                 "stats": payload["stats"]},
                        aggregate_token=aggregate_token)
            version = self._subsystem_version()
            if version and message.digest_version != version:
                digests = self._subsystem_digests()
                if digests is not None and digests.version != version:
                    digests = None  # raced a concurrent sync
            token = subsystem_fingerprint(payload)
            if token and message.known_subsystem == token:
                # the requester's cached copy of this payload is still
                # byte-identical (the token is a content hash of it):
                # ship only the fresh gather stats
                payload = {"unchanged": True, "stats": payload["stats"]}
            elif message.known_instances:
                # the payload changed, but individual relayed instances
                # the requester already holds may not have: replace the
                # fingerprint-confirmed ones with dedup markers
                payload = self._dedup_instances(payload,
                                                message.known_instances)
        return Answer(sender=self.name, target=message.sender,
                      in_reply_to=message.correlation_id,
                      payload=payload, version=version, digests=digests,
                      aggregate=attach, aggregate_token=aggregate_token)

    @staticmethod
    def _dedup_instances(payload: Mapping, known: Mapping) -> Mapping:
        """Replace relayed instances whose content the requester claims
        to already hold (its ``known_instances`` fingerprints match)
        with ``{"same": fingerprint}`` markers.  Shallow-copied — the
        gather's own payload stays intact for this node's caches."""
        deduped = {}
        hits = 0
        for name, instance in payload["instances"].items():
            fingerprint = known.get(name, "")
            if fingerprint and instance.fingerprint() == fingerprint:
                deduped[name] = {"same": fingerprint}
                hits += 1
            else:
                deduped[name] = instance
        if not hits:
            return payload
        return {**payload, "instances": deduped}

    # ------------------------------------------------------------------
    # Query-relevance scoping (multi-hop subtree pruning)
    # ------------------------------------------------------------------
    @staticmethod
    def _prune_safe_parts(local_ics, decs, trust) -> bool:
        """Whether one peer's static shape is *prune-safe*.

        Prune-safe means its data can only flow through the system as
        monotone, key-preserving row shipping: every owned DEC is a
        full identity :class:`~repro.relational.constraints.
        InclusionDependency` (same positions on both sides, covering
        every column — no existential witnesses, first column intact),
        every owned trust edge is ``less`` (imports union, nothing is
        repaired against the importer), and there are no local ICs
        (nothing deletes or couples tuples after import).  Under these
        conditions a query selecting on first-column constants depends
        only on rows keyed by those constants, so a subtree digest
        disjoint from them licenses omitting the subtree."""
        from ..relational.constraints import InclusionDependency
        if tuple(local_ics):
            return False
        for _owner, level, _other in trust:
            if str(level) != "less":
                return False
        for dec in decs:
            constraint = dec.constraint
            if not isinstance(constraint, InclusionDependency):
                return False
            positions = constraint.child_positions
            if (not positions
                    or positions != constraint.parent_positions
                    or positions != tuple(range(len(positions)))
                    or len(positions) != len(
                        constraint.antecedent[0].terms)
                    or len(positions) != len(
                        constraint.consequent[0].terms)):
                return False
        return True

    def _prune_safe_own(self) -> bool:
        return self._prune_safe_parts(self.peer.local_ics, self.decs,
                                      self.trust_edges)

    def _relevance(self, formula) -> Optional[tuple[frozenset,
                                                    frozenset]]:
        """``(atom-bound variables, first-column constants)`` of a
        formula in the prunable fragment — or ``None`` outside it.

        The fragment is positive and constant-keyed: conjunction,
        disjunction, existentials, comparisons, and relation atoms
        whose first term is a wire-safe constant over this peer's own
        schema.  Negation, implication, and universals are out — their
        truth can depend on rows *absent* from a scoped view.  Bound
        variables compose as union under ``And``, intersection under
        ``Or`` (a variable is only safe if every branch grounds it in
        an atom — otherwise a branch would enumerate the active domain,
        which a scoped view shrinks)."""
        if isinstance(formula, RelAtom):
            if not formula.terms:
                return None
            first = formula.terms[0]
            if not isinstance(first, Constant):
                return None
            if not isinstance(first.value, (str, int, float, bool)):
                return None
            if formula.relation not in self.peer.schema.names:
                return None
            return (frozenset(formula.free_variables()),
                    frozenset({first.value}))
        if isinstance(formula, (Cmp, _Truth)):
            return frozenset(), frozenset()
        if isinstance(formula, And):
            bound: set = set()
            constants: set = set()
            for part in formula.parts:
                result = self._relevance(part)
                if result is None:
                    return None
                bound |= result[0]
                constants |= result[1]
            return frozenset(bound), frozenset(constants)
        if isinstance(formula, Or):
            shared: Optional[frozenset] = None
            constants = set()
            for part in formula.parts:
                result = self._relevance(part)
                if result is None:
                    return None
                shared = (result[0] if shared is None
                          else shared & result[0])
                constants |= result[1]
            return frozenset(shared or ()), frozenset(constants)
        if isinstance(formula, Exists):
            result = self._relevance(formula.sub)
            if result is None:
                return None
            if not set(formula.variables) <= result[0]:
                return None
            return result[0] - set(formula.variables), result[1]
        return None

    def _scope_constants(self, parsed: Query) -> tuple:
        """The first-column constants a routed gather may prune
        against for this query — ``()`` means *never scope*.

        Scoping requires every gate, each independently conservative:
        routing on; a complete peer set recorded from a prior unscoped
        gather with every peer's description prune-safe (a retained
        peer with richer constraints could couple its constant-keyed
        rows to a pruned subtree's rows, so safety must hold
        *globally*, not just along the pruned branch); and the query
        inside the prunable fragment with every variable atom-bound.
        Anything short of that returns ``()`` and the gather floods
        exactly as before."""
        if self.routing is None:
            return ()
        known = self._known_subsystem_peers
        if not known or not self._prune_safe_own():
            return ()
        for name in known:
            if name == self.name:
                continue
            description = self.routing.description(name)
            if description is None or not self._prune_safe_parts(
                    description.peer.local_ics, description.decs,
                    description.trust):
                return ()
        result = self._relevance(parsed.formula)
        if result is None:
            return ()
        bound, constants = result
        if not constants or not parsed.formula.free_variables() <= bound:
            return ()
        return tuple(sorted(constants,
                            key=lambda v: (type(v).__name__, str(v))))

    @staticmethod
    def _subtree_covered(index: RoutingIndex, child: str, claimed: set,
                         aggregate: SubtreeDigest) -> bool:
        """Whether ``aggregate`` covers everything reachable through
        ``child`` *in this gather's context*.

        An aggregate's ``peers`` describe the subtree as it looked from
        the context that built it; a different ``visited`` set changes
        what is reachable through the same neighbour.  The walk follows
        static DEC targets (descriptions never go stale), stops at
        peers this gather already claims (another branch gathers them),
        and fails closed on any peer the aggregate does not cover or
        the index cannot describe."""
        covered = set(aggregate.peers)
        seen = {child}
        frontier = [child]
        while frontier:
            current = frontier.pop()
            if current not in covered:
                return False
            description = index.description(current)
            if description is None:
                return False
            for target in description.targets:
                if target in claimed or target in seen:
                    continue
                seen.add(target)
                frontier.append(target)
        return True

    # ------------------------------------------------------------------
    # The hop-by-hop sub-network gather
    # ------------------------------------------------------------------
    def _gather(self, hop_budget: int, visited: tuple[str, ...],
                constants: tuple = ()) -> dict:
        """Describe this node's accessible sub-network.

        Returns a payload mapping with ``peers``/``instances`` (the
        *other* gathered peers' data — never this node's own, which the
        requester pulls with :class:`~repro.net.protocol.FetchRelation`),
        ``decs``, ``trust``, and the aggregated ``stats`` of every
        message this subtree cost.  ``visited`` carries the peers other
        branches already claimed, so diamonds are not re-fetched and
        cycles terminate; ``hop_budget`` bounds the residual depth and
        raises :class:`~repro.net.errors.HopBudgetExceeded` when the
        sub-network is deeper than allowed.

        Claiming covers ancestors and the current node's own pending
        neighbours only, so a peer reachable through two *non-sibling*
        branches of a diamond is gathered once per branch — duplicated
        traffic (merged away below), accepted to keep branches fully
        concurrent with no cross-branch coordination; stacked diamonds
        amplify it, so very dense graphs should prefer a wider
        ``hop_budget``-bounded topology or a routing layer (see the
        ROADMAP's sharding note).

        With :attr:`routing` enabled, the gather consults the learned
        :class:`~repro.routing.index.RoutingIndex` to elide provably
        redundant messages — synthesizing leaf-context subsystem
        replies from static descriptions, substituting token-confirmed
        cached payloads for ``unchanged`` acknowledgements, and
        skipping fetches whose cached rows (or digest-proven emptiness)
        are confirmed current *in this same gather*.  Every pending
        neighbour still receives at least one message, and anything
        unconfirmed falls back to the flooding behaviour, so answers
        and fault observability are identical in both modes.

        ``constants`` scopes the gather to a query (see
        :meth:`_scope_constants`; always empty unless every safety gate
        passed at the querying root).  A scoped gather may skip *whole
        subtrees*: zero-message when a stored
        :class:`~repro.routing.aggregate.SubtreeDigest` is current at
        this system version, safe, disjoint from the constants, and
        covers the neighbour's reachable set in this context; and by a
        tiny ``{"irrelevant": True}`` acknowledgement when the
        contacted neighbour itself proves the same from its fresh
        aggregate against the token this node quoted.  Either way the
        gather also *builds* the aggregate it hands back up
        (``payload["aggregate"]``, popped by callers): its own full
        store digests unioned with every child subtree's — a scoped
        gather still aggregates full content, so tokens stamp
        identically at any scope.
        """
        if self.network is None:
            raise ProtocolError(
                f"node {self.name!r} is not attached to a network")
        trace = self._current_trace()
        index = self.routing
        if index is None:
            constants = ()
        else:
            index.ingest_log(self.network.exchange_log)
        version_at_start = self._version
        covered = set(visited) | {self.name}
        pending = [n for n in self.neighbours() if n not in covered]
        payload: dict = {
            "peers": {self.name: self.peer},
            "instances": {},
            "decs": list(self.decs),
            "trust": list(self.trust_edges),
            "stats": ExchangeStats(),
        }
        if not pending:
            if index is not None:
                payload["aggregate"] = build_subtree(
                    self.name, self._aggregate_own_digests(), (),
                    safe_root=self._prune_safe_own(),
                    version=version_at_start)
            return payload
        if hop_budget <= 0:
            raise HopBudgetExceeded(
                f"hop budget exhausted at {self.name!r} with unexplored "
                f"neighbours {pending}", peer=self.name)
        claimed = tuple(visited) + (self.name,) + tuple(pending)
        # productivity ordering permutes claimed across gathers; cache
        # contexts key on the *set*, which is what child gathers see.
        # A scoped gather prunes subtrees out of its payload, so its
        # cached payloads must never serve an unscoped (or differently
        # scoped) gather: the constants become part of the context key.
        context = frozenset(claimed)
        if constants:
            context = context | frozenset(
                ("constant", value) for value in constants)
        pruned = 0
        subtrees_pruned = 0

        # tier B — zero-message subtree prunes: a stored aggregate
        # current at this exact system version, safe all the way down,
        # disjoint from the query constants, and covering the
        # neighbour's reachable set in this context proves the whole
        # branch cannot contribute; the neighbour stays claimed (its
        # subtree is accounted irrelevant, not someone else's job).
        skipped: set[str] = set()
        child_aggs: dict[str, Optional[SubtreeDigest]] = {}
        tier_b = 0
        claimed_set = set(claimed)
        if index is not None and constants:
            for neighbour in pending:
                held = index.prunable_subtree(neighbour, constants,
                                              version_at_start)
                if held is None or not self._subtree_covered(
                        index, neighbour, claimed_set, held):
                    continue
                skipped.add(neighbour)
                child_aggs[neighbour] = held
                tier_b += 1
                subtrees_pruned += 1

        # phase 1 — concurrent fan-out: each unvisited neighbour
        # describes (and relays) its own sub-network.  A routed gather
        # synthesizes the reply of any neighbour whose DEC targets are
        # all claimed (its gather would find nothing pending and answer
        # from static state alone) and contacts the rest in descending
        # learned-productivity order, quoting the digest version and
        # subsystem token it already holds.
        subs: dict[str, Mapping] = {}
        contact: list[str] = []
        for neighbour in pending:
            if neighbour in skipped:
                subs[neighbour] = {"peers": {}, "instances": {},
                                   "decs": [], "trust": [],
                                   "stats": ExchangeStats()}
                continue
            synthesized = (index.synthesize(neighbour, context)
                           if index is not None else None)
            if synthesized is not None:
                subs[neighbour] = synthesized
                pruned += 1
            else:
                contact.append(neighbour)
        order = index.order(contact) if index is not None else contact
        held: dict[str, dict] = {}
        quoted_aggs: dict[str, SubtreeDigest] = {}
        queries = []
        for neighbour in order:
            digest_version = known_subsystem = ""
            known_instances = None
            aggregate_token = ""
            if index is not None:
                digest_version = index.digest_version(neighbour)
                known_subsystem, entry = index.recall_subsystem(
                    neighbour, context)
                if entry is not None:
                    held[neighbour] = entry
                    # claim the relayed instances we hold, so a changed
                    # reply can dedup the ones that did not move
                    known_instances = {
                        name: instance.fingerprint()
                        for name, instance
                        in entry["instances"].items()} or None
                else:
                    known_subsystem = ""
                quoted = index.aggregate_for(neighbour)
                if quoted is not None:
                    # quote the subtree token we hold: a current child
                    # omits the aggregate bits (and may acknowledge the
                    # whole subtree irrelevant under a scoped gather)
                    aggregate_token = quoted.token
                    quoted_aggs[neighbour] = quoted
            queries.append(PeerQuery(
                sender=self.name, target=neighbour,
                hop_budget=hop_budget - 1, visited=claimed,
                digest_version=digest_version,
                known_subsystem=known_subsystem,
                known_instances=known_instances,
                constants=constants,
                aggregate_token=aggregate_token,
                **self._trace_fields(trace)))
        subsystem_answers = dict(zip(
            order, self.network.fan_out(self.name, queries)))
        stats = payload["stats"]
        stats += ExchangeStats(requests=len(queries))
        fresh_versions: dict[str, str] = {}
        routing_overhead = 0
        for neighbour in order:
            answer = subsystem_answers[neighbour]
            sub = answer.payload
            if index is not None:
                if answer.digests is not None:
                    index.observe_digests(answer.digests)
                    # piggybacked routing state is paid-for traffic:
                    # account it like any other payload bytes
                    routing_overhead += digest_bytes(answer.digests)
                if answer.version:
                    fresh_versions[neighbour] = answer.version
                if answer.aggregate is not None:
                    index.observe_aggregate(neighbour, answer.aggregate)
                    routing_overhead += aggregate_bytes(answer.aggregate)
                    child_aggs[neighbour] = answer.aggregate
                elif answer.aggregate_token:
                    # the child quoted our token back as current:
                    # re-stamp the stored aggregate to this version
                    child_aggs[neighbour] = index.confirm_aggregate(
                        neighbour, answer.aggregate_token,
                        version_at_start)
            if isinstance(sub, Mapping) and sub.get("irrelevant"):
                if quoted_aggs.get(neighbour) is None:
                    raise ProtocolError(
                        f"{neighbour!r} acknowledged a subtree "
                        f"aggregate {self.name!r} never sent")
                # tier A — the contacted child proved its whole subtree
                # disjoint from the query constants against the token
                # we quoted: skip its relayed payload and its fetches
                sub = {"peers": {}, "instances": {}, "decs": [],
                       "trust": [], "stats": sub["stats"]}
                skipped.add(neighbour)
                subtrees_pruned += 1
            elif isinstance(sub, Mapping) and sub.get("unchanged"):
                entry = held.get(neighbour)
                if entry is None:
                    raise ProtocolError(
                        f"{neighbour!r} acknowledged a subsystem token "
                        f"{self.name!r} never sent")
                sub = {**entry, "stats": sub["stats"]}
                pruned += 1
            else:
                sub = self._restore_instances(neighbour, sub,
                                              held.get(neighbour))
                if index is not None:
                    index.learn_topology(sub)
                    token = subsystem_fingerprint(sub)
                    if token:
                        index.remember_subsystem(neighbour, context,
                                                 token, sub)
            subs[neighbour] = sub
        for neighbour in pending:  # canonical order, mode-independent
            sub = subs[neighbour]
            payload["peers"].update(sub["peers"])
            payload["instances"].update(sub["instances"])
            payload["decs"].extend(sub["decs"])
            payload["trust"].extend(sub["trust"])
            # relayed data travelled one hop further to reach us
            sub_stats: ExchangeStats = sub["stats"]
            stats += dataclasses.replace(
                sub_stats,
                max_hops=sub_stats.max_hops + 1 if sub_stats.max_hops
                else 0)

        # phase 2 — concurrent fan-out: pull each direct neighbour's
        # relation contents (deeper peers' data arrived relayed above).
        # Each fetch names the content version this node last saw for
        # that relation, so providers reply with versioned deltas when
        # they still hold the chain — full relations otherwise.  A
        # routed gather elides a fetch only on a same-gather version
        # confirmation: cached rows already at the confirmed version,
        # or a digest at the confirmed version proving the relation
        # empty — never on an unconfirmed (possibly stale) digest.
        fetches = []
        bases: list[Optional[frozenset]] = []
        data: dict[str, dict[str, frozenset]] = {n: {} for n in pending}
        for neighbour in pending:
            if neighbour in skipped:
                continue
            confirmed = fresh_versions.get(neighbour, "")
            digests = (index.digests_for(neighbour)
                       if index is not None and confirmed else None)
            if digests is not None and digests.version != confirmed:
                digests = None
            for relation in sorted(
                    payload["peers"][neighbour].schema.names):
                with self._fetch_lock:
                    cached = self._fetched.get((neighbour, relation))
                if confirmed and cached and cached[0] == confirmed:
                    data[neighbour][relation] = cached[1]
                    pruned += 1
                    continue
                if digests is not None:
                    digest = digests.digest_for(relation)
                    if digest is not None and digest.row_count == 0:
                        empty = frozenset()
                        with self._fetch_lock:
                            self._fetched[(neighbour, relation)] = \
                                (confirmed, empty)
                        data[neighbour][relation] = empty
                        pruned += 1
                        continue
                    if (constants and digest is not None
                            and digest.disjoint_from(constants)):
                        # relevance elision: the confirmed-fresh digest
                        # proves no row keyed by a query constant, and
                        # the scoped view only needs those.  The fetch
                        # cache is NOT updated — it must keep holding
                        # the relation's *actual* rows, not the scoped
                        # emptiness
                        data[neighbour][relation] = frozenset()
                        pruned += 1
                        continue
                fetches.append(FetchRelation(
                    sender=self.name, target=neighbour,
                    relation=relation, purpose="subsystem gather",
                    known_version=cached[0] if cached else "",
                    **self._trace_fields(trace)))
                bases.append(cached[1] if cached else None)
        fetch_answers = self.network.fan_out(self.name, fetches)
        tuples_moved = bytes_moved = 0
        fetched_versions: dict[str, set] = {}
        for request, base, answer in zip(fetches, bases, fetch_answers):
            if index is not None and answer.digests is not None:
                index.observe_digests(answer.digests)
                routing_overhead += digest_bytes(answer.digests)
            rows, moved = self._integrate_fetch(request, base, answer)
            data[request.target][request.relation] = rows
            tuples_moved += moved
            bytes_moved += answer.bytes_estimate
            fetched_versions.setdefault(request.target,
                                        set()).add(answer.version)
        for neighbour in pending:
            if neighbour in skipped:
                continue
            payload["instances"][neighbour] = DatabaseInstance(
                payload["peers"][neighbour].schema, data[neighbour])
        if index is not None:
            # synthesized (leaf-context) neighbours never answer a
            # PeerQuery, so no aggregate arrives for them; build their
            # singleton aggregate from the digests their own fetch
            # replies just confirmed, or the subtree chain above this
            # node could never form over warm paths
            for neighbour in pending:
                if child_aggs.get(neighbour) is not None:
                    continue
                description = index.description(neighbour)
                if (description is None
                        or not description.targets <= claimed_set):
                    continue
                versions = fetched_versions.get(neighbour)
                if versions is None or len(versions) != 1:
                    continue
                confirmed = next(iter(versions))
                digests = index.digests_for(neighbour)
                if (not confirmed or digests is None
                        or digests.version != confirmed):
                    continue
                singleton = build_subtree(
                    neighbour, digests, (),
                    safe_root=self._prune_safe_parts(
                        description.peer.local_ics, description.decs,
                        description.trust),
                    version=version_at_start)
                if singleton is not None:
                    child_aggs[neighbour] = singleton
                    index.observe_aggregate(neighbour, singleton)
            payload["aggregate"] = build_subtree(
                self.name, self._aggregate_own_digests(),
                [child_aggs.get(neighbour) for neighbour in pending],
                safe_root=self._prune_safe_own(),
                version=version_at_start)
        payload["stats"] = stats + ExchangeStats(
            requests=len(fetches), tuples_transferred=tuples_moved,
            bytes_estimate=bytes_moved + routing_overhead, max_hops=1,
            neighbours_pruned=pruned,
            neighbours_contacted=len(pending) - tier_b,
            subtrees_pruned=subtrees_pruned)
        return payload

    def _restore_instances(self, neighbour: str, sub: Mapping,
                           entry: Optional[Mapping]) -> Mapping:
        """Expand ``{"same": fingerprint}`` dedup markers in a relayed
        payload back into the instances this node's cached subsystem
        copy holds.  A marker the cache cannot verify — no cached
        entry, an unknown peer, or a fingerprint mismatch — is a
        protocol violation: silently keeping it would corrupt the
        merged view, and this node only invites markers it can expand.
        """
        instances = sub.get("instances", {})
        if not any(isinstance(instance, Mapping)
                   for instance in instances.values()):
            return sub
        cached = (entry or {}).get("instances", {})
        restored = {}
        for name, instance in instances.items():
            if not isinstance(instance, Mapping):
                restored[name] = instance
                continue
            have = cached.get(name)
            if have is None or have.fingerprint() != instance.get(
                    "same"):
                raise ProtocolError(
                    f"{neighbour!r} deduplicated the instance of "
                    f"{name!r} against a fingerprint {self.name!r} "
                    f"does not hold")
            restored[name] = have
        return {**sub, "instances": restored}

    def _integrate_fetch(self, request: FetchRelation,
                         base: Optional[frozenset],
                         answer: Answer) -> tuple[frozenset, int]:
        """Turn one fetch reply into the relation's full rows.

        Delta replies are applied to the rows this node held at the
        ``known_version`` it asked about; full replies replace them.
        Either way the fetch cache remembers the new rows under the
        provider's stamped version for the next gather.
        """
        if answer.delta:
            if base is None:
                raise ProtocolError(
                    f"{request.target!r} sent a delta for "
                    f"{request.relation!r} but {self.name!r} holds no "
                    f"base rows at version {request.known_version!r}")
            payload = answer.payload
            inserted = frozenset(payload.get("insert", ()))
            deleted = frozenset(payload.get("delete", ()))
            rows = frozenset((base - deleted) | inserted)
            moved = len(inserted) + len(deleted)
        else:
            rows = frozenset(answer.payload)
            moved = len(rows)
        if answer.version:
            with self._fetch_lock:
                self._fetched[(request.target, request.relation)] = \
                    (answer.version, rows)
        return rows, moved

    # ------------------------------------------------------------------
    # Routing digests (piggybacked on Answers when routing is enabled)
    # ------------------------------------------------------------------
    def _own_digests(self) -> Optional[NeighbourDigests]:
        """This node's per-relation digests at its current store
        version (cached per version; ``None`` if a concurrent sync kept
        racing the consistent read)."""
        for _attempt in range(3):
            version = self.store.version()
            cached = self._digest_cache
            if cached is not None and cached.version == version:
                return cached
            tables = {}
            consistent = True
            for relation in sorted(self.peer.schema.names):
                current, _chain, rows = self.store.fetch_state(relation)
                if current != version:
                    consistent = False
                    break
                tables[relation] = rows
            if not consistent:
                continue
            digests = NeighbourDigests.from_tables(self.name, version,
                                                   tables)
            self._digest_cache = digests
            return digests
        return None

    def _subsystem_digests(self) -> Optional[NeighbourDigests]:
        """Digests to piggyback on subsystem replies.  The sharded node
        overrides this to ``None``: its store holds only a slice, and a
        slice digest (e.g. ``row_count == 0`` with rows on sibling
        shards) would misdescribe the logical peer — slice digests
        travel on fetch replies instead, composed by the
        :class:`~repro.shard.router.ShardRouter`."""
        return self._own_digests()

    def _subsystem_version(self) -> str:
        """The store version stamped on subsystem replies (the token
        requesters confirm fetch elisions against).  The sharded node
        overrides this to ``""`` — its slice version never describes
        the logical peer, so requesters must always fetch."""
        return self.store.version()

    def _aggregate_own_digests(self) -> Optional[NeighbourDigests]:
        """The per-relation digests subtree aggregates union for this
        node's own data.  A plain node's store holds the whole peer, so
        its own digests serve directly; the sharded node overrides this
        with the router-composed *logical* bundle captured during its
        last self-merge — or ``None``, which degrades the whole subtree
        (no aggregate rather than a slice digest misdescribing the
        peer)."""
        return self._own_digests()

    def _complete_own_instance(self) -> tuple[DatabaseInstance,
                                              ExchangeStats]:
        """The node's own contribution to its view, plus its cost.

        A plain node holds its entire peer's data locally, so the view
        uses the store's instance for free.  The sharded node
        (:class:`~repro.shard.node.ShardedPeerNode`) overrides this to
        reassemble the *logical* instance from every sibling shard
        before answering — answer sets are not unions across data
        partitions, so the view must see the whole peer.
        """
        return self.instance, ExchangeStats()

    # ------------------------------------------------------------------
    # The local view and the answering surface
    # ------------------------------------------------------------------
    def local_view(self) -> PeerSystem:
        """The node's materialised view: a :class:`PeerSystem` assembled
        from the gathered sub-network (cached per version)."""
        return self._view_and_cost()[0]

    def _view_key(self, constants: tuple) -> tuple:
        """Which view entry answers a query scoped to ``constants``.

        A held full view is always preferred — it is a superset of any
        scoped view, sound for every query, and keeps warm-cache
        behaviour identical to flooding.  Otherwise the scope keys its
        own entry (a scoped view is only valid for queries over exactly
        those constants)."""
        return () if not constants or () in self._views else constants

    def _view_and_cost(self, constants: tuple = ()
                       ) -> tuple[PeerSystem, ExchangeStats]:
        with self._lock:
            key = self._view_key(constants)
            held = self._views.get(key)
            if held is None:
                hop_budget = (self.network.hop_budget
                              if self.network is not None else 8)
                if self.network is not None:
                    with self.network.operation_deadline():
                        payload = self._gather(hop_budget, (), key)
                else:
                    payload = self._gather(hop_budget, (), key)
                payload.pop("aggregate", None)
                own_instance, own_cost = self._complete_own_instance()
                payload["instances"][self.name] = own_instance
                payload["stats"] = payload["stats"] + own_cost
                peers = payload["peers"]
                # branches that race to the same peer through a diamond
                # may relay its DECs twice; the merge dedups by content
                # (identity is not enough once DECs cross a wire
                # transport, where every branch decodes fresh objects)
                seen: set = set()
                decs = [dec for dec in payload["decs"]
                        if (key2 := _dec_key(dec)) not in seen
                        and not seen.add(key2)]
                if key:
                    # a scoped view omits pruned subtrees, so DECs
                    # pointing into them must go too (the system
                    # constructor rejects edges to absent peers; the
                    # dropped edges only imported provably irrelevant
                    # rows)
                    decs = [dec for dec in decs
                            if dec.owner in peers and dec.other in peers]
                trust = TrustRelation(
                    {(owner, level, other)
                     for owner, level, other in payload["trust"]
                     if owner in peers and other in peers})
                view = PeerSystem(
                    peers.values(), payload["instances"],
                    decs, trust, enforce_local_ics=False)
                if not key:
                    self._known_subsystem_peers = frozenset(peers)
                held = (view, payload["stats"])
                self._views[key] = held
            return held

    def _view_session(self, constants: tuple = ()) -> PeerQuerySession:
        with self._lock:
            key = self._view_key(constants)
            session = self._sessions.get(key)
            if session is None:
                session = PeerQuerySession(
                    self._view_and_cost(constants)[0],
                    default_method=self.default_method,
                    include_local_ics=self.include_local_ics)
                self._sessions[key] = session
            return session

    def answer(self, query: Union[Query, str], *,
               method: Optional[str] = None,
               semantics: str = CERTAIN) -> QueryResult:
        """Answer a query over this node's network view.

        The result is the view session's — same methods, same planner,
        same provenance — with the exchange stats replaced by the *real*
        message traffic of the gather that built the view (zero on a
        warm view) and ``elapsed`` covering gather plus answering.
        Cached per ``(version, query, method, semantics)``; with a
        ``data_dir`` the cache is flushed to disk on :meth:`close`, so
        a cleanly restarted node serves previously answered queries
        without a single message.
        """
        parsed = QueryRequest(self.name, query).resolved_query()
        key = (self._version, str(parsed), method or self.default_method,
               semantics)
        # the whole answer path runs under the node lock: the view
        # session is single-threaded state, exactly like a real node's
        # process (serving fetches/gathers for *other* peers never takes
        # this lock, so held-while-gathering cannot deadlock)
        with self._lock:
            cached = self._answers.get(key)
            if cached is None and self._persisted:
                stored = self._persisted.get(
                    key + (self.include_local_ics,))
                if stored is not None:
                    cached = self._revive_answer(parsed, stored)
                    self._answers[key] = cached
            if cached is not None:
                return dataclasses.replace(cached, from_cache=True,
                                           exchange=ExchangeStats(),
                                           elapsed=0.0, trace=(),
                                           timings=None)
            start = time.perf_counter()
            constants = self._scope_constants(parsed)
            had_view = self._view_key(constants) in self._views
            # serving a traced AnswerQuery inherits the requester's
            # context; a root answer on a tracing node opens its own
            ctx = self._current_trace()
            recorder = self._recorder()
            if not ctx and self.tracing and recorder is not None:
                ctx = TraceContext.root()
            if ctx and recorder is not None:
                gather_cost, result, spans, timings = \
                    self._answer_traced(ctx, recorder, parsed,
                                        constants, method, semantics)
            else:
                gather_cost = self._view_and_cost(constants)[1]
                result = self._view_session(constants).answer(
                    self.name, parsed, method=method,
                    semantics=semantics)
                spans, timings = (), None
            elapsed = time.perf_counter() - start
            result = dataclasses.replace(
                result,
                exchange=gather_cost if not had_view else ExchangeStats(),
                elapsed=elapsed, trace=spans, timings=timings)
            self._answers[key] = result
            return result

    def _answer_traced(self, ctx: TraceContext, recorder, parsed: Query,
                       constants: tuple, method: Optional[str],
                       semantics: str):
        """The traced answer path: an ``answer`` span with ``gather``
        and ``eval`` children, plus every span the gather's requests
        produced, drained into the result's trace."""
        answer_id = new_id()
        inner = ctx.descend(answer_id)
        previous = getattr(self._trace_ctx, "ctx", None)
        answer_start = time.monotonic()
        try:
            gather_id = new_id()
            self._trace_ctx.ctx = inner.descend(gather_id)
            gather_start = time.monotonic()
            try:
                gather_cost = self._view_and_cost(constants)[1]
            finally:
                gather_s = time.monotonic() - gather_start
                self._trace_ctx.ctx = inner
            recorder.record(Span(ctx.trace_id, gather_id, answer_id,
                                 "gather", self.name, gather_start,
                                 gather_s))
            eval_start = time.monotonic()
            result = self._view_session(constants).answer(
                self.name, parsed, method=method, semantics=semantics)
            eval_s = time.monotonic() - eval_start
            recorder.record(Span(ctx.trace_id, new_id(), answer_id,
                                 "eval", self.name, eval_start, eval_s))
        finally:
            self._trace_ctx.ctx = previous
        total_s = time.monotonic() - answer_start
        recorder.record(Span(ctx.trace_id, answer_id, ctx.span_id,
                             "answer", self.name, answer_start,
                             total_s))
        spans = recorder.drain(ctx.trace_id)
        timings = {"gather_s": round(gather_s, 6),
                   "eval_s": round(eval_s, 6),
                   "total_s": round(total_s, 6)}
        return gather_cost, result, spans, timings

    def explain(self, query: Union[Query, str],
                candidate: Optional[tuple] = None):
        """Definition-5 certification evidence over the network view."""
        return self._view_session().explain(self.name, query, candidate)

    # ------------------------------------------------------------------
    # Persistence (answers + fetch cache under the data directory)
    # ------------------------------------------------------------------
    def _revive_answer(self, parsed: "Query", stored: dict) -> QueryResult:
        return QueryResult(
            peer=self.name,
            query=parsed,
            answers=frozenset(tuple(row) for row in stored["answers"]),
            semantics=stored["semantics"],
            method_requested=stored["method_requested"],
            method_used=stored["method_used"],
            solution_count=stored["solution_count"],
        )

    def _load_persisted(self) -> None:
        answers_path = self.data_dir / "answers.json"
        if answers_path.is_file():
            try:
                with open(answers_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                payload = {}
            for entry in payload.get("entries", []):
                try:
                    # include_local_ics changes what a key *means*: an
                    # entry computed under the other setting is kept
                    # (and re-persisted), never served.  Fields outside
                    # _ANSWER_FIELDS (older files name the FO engine
                    # that computed the entry) change nothing and are
                    # dropped
                    entry = {field: entry[field]
                             for field in _ANSWER_FIELDS}
                    key = tuple(entry[field] for field in _ANSWER_KEY)
                    self._persisted[key] = entry
                except (KeyError, TypeError):
                    continue  # skip malformed entries, keep the rest
        fetched_path = self.data_dir / "fetched.json"
        if fetched_path.is_file():
            try:
                with open(fetched_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                payload = {}
            for entry in payload.get("entries", []):
                try:
                    rows = frozenset(tuple(row)
                                     for row in entry["rows"])
                    self._fetched[(entry["peer"], entry["relation"])] = \
                        (entry["version"], rows)
                except (KeyError, TypeError):
                    continue

    def _persist_answers(self) -> None:
        if self.data_dir is None:
            return
        entries = list(self._persisted.values())
        seen = set(self._persisted)
        for key, result in self._answers.items():
            if key + (self.include_local_ics,) in seen or result.failed:
                continue
            entries.append({
                "version": key[0], "query": key[1], "method": key[2],
                "semantics": key[3],
                "include_local_ics": self.include_local_ics,
                "answers": [list(row) for row in sorted(
                    result.answers, key=row_sort_key)],
                "solution_count": result.solution_count,
                "method_used": result.method_used,
                "method_requested": result.method_requested,
            })
        if len(entries) > _MAX_PERSISTED_ANSWERS:
            entries = entries[-_MAX_PERSISTED_ANSWERS:]
        self._write_json(self.data_dir / "answers.json",
                         {"format": 1, "peer": self.name,
                          "entries": entries})

    def _persist_fetch_cache(self) -> None:
        if self.data_dir is None:
            return
        with self._fetch_lock:
            snapshot = dict(self._fetched)
        entries = [{"peer": peer, "relation": relation,
                    "version": version,
                    "rows": [list(row) for row in sorted(
                        rows, key=row_sort_key)]}
                   for (peer, relation), (version, rows)
                   in sorted(snapshot.items())]
        self._write_json(self.data_dir / "fetched.json",
                         {"format": 1, "entries": entries})

    @staticmethod
    def _write_json(path: Path, payload: dict) -> None:
        try:
            write_json_atomic(path, payload)
        except (StorageError, OSError):
            # non-JSON-safe values (exotic domains) or a full disk:
            # answer/fetch-cache persistence is best-effort — the node
            # still answers, it just re-computes after a restart
            return

    def close(self) -> None:
        """Flush persistent state (answers, fetch cache, store meta)."""
        with self._lock:
            self._persist_answers()
            self._persist_fetch_cache()
            self.store.close()

    def __repr__(self) -> str:
        return (f"PeerNode({self.name!r}, "
                f"{len(self.decs)} DECs, neighbours="
                f"{list(self.neighbours())})")
