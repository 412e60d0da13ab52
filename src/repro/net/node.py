"""An independent peer node: local data, local answering, typed messages.

A :class:`PeerNode` is one peer of a :class:`~repro.core.system.PeerSystem`
running as its own process-like unit.  It holds only what the paper lets
a peer know locally: its :class:`~repro.core.system.Peer` (schema + local
ICs), its own facts — owned by a versioned
:class:`~repro.storage.base.FactStore` rather than a bare instance — the
DECs *it owns* (Σ(P, ·)), and its own trust edges.  Everything else is
learned by exchanging protocol messages with neighbours.

Serving side — :meth:`PeerNode.handle` answers from local state alone: a
:class:`~repro.net.protocol.FetchRelation` with the relation's rows (a
*versioned delta* — insertions and deletions since that version — when
the requester names a ``known_version`` the store still holds the chain
for), an :class:`~repro.net.protocol.AnswerQuery` with a whole
:class:`~repro.core.results.QueryResult`, and a
:class:`~repro.net.protocol.PeerQuery` (``kind="subsystem"``) with a
description of the node's accessible sub-network, gathered hop by hop.

The gather is Example 2's "P1 will first issue a query to P2 to retrieve
the tuples in R2; next, a query is issued to P3", relayed: distant
peers' data reaches the requester through intermediates, never from a
global store.  :meth:`PeerNode._gather` drives it in phases, one method
each:

1. *subtree prune* (tier B) — a query-scoped gather skips, without a
   message, each neighbour whose stored subtree aggregate proves its
   whole branch irrelevant;
2. *subsystem fan-out* — every other unvisited neighbour describes (and
   relays) its own sub-network, concurrently;
3. *reply integration* — full replies (their ``{"same": fp}`` markers
   for unmoved relayed instances expanded), ``unchanged``
   acknowledgements of a cached payload, and ``irrelevant``
   acknowledgements of a whole subtree (tier A);
4. the *merge*, in canonical neighbour order;
5. *fetch planning* — one fetch per direct-neighbour relation, naming
   the version last seen, minus those a same-gather confirmation makes
   unnecessary (cached rows, an empty or a disjoint digest);
6. *fetch integration* — deltas applied to the cached rows, full
   replies replacing them;
7. the *aggregate build* — the subtree digest handed back up.

Every decision that reads routing state is a
:class:`~repro.routing.index.RoutingIndex` method.  A node without
routing consults :data:`~repro.routing.index.FLOODING` instead, which
knows and learns nothing: flooding is the same phases with nothing
elided, and every contacted neighbour receives at least one message in
both modes.

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
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Union

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
    build_subtree,
    subsystem_fingerprint,
)
from ..routing.aggregate import prune_safe
from ..routing.digest import digests_at
from ..routing.index import FLOODING, distinct_decs
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


def _no_subsystem(stats: ExchangeStats) -> dict:
    """What a pruned subtree contributes: nothing but its cost."""
    return {"peers": {}, "instances": {}, "decs": [], "trust": [],
            "stats": stats}


class _Gather:
    """One gather's working state, threaded through its phases."""

    def __init__(self, index, version: str, claimed: tuple,
                 pending: list, constants: tuple,
                 trace: TraceContext) -> None:
        self.index = index  # the node's RoutingIndex, or FLOODING
        self.version = version  # the system version the gather began at
        self.claimed = claimed  # visited, this node and its pending
        self.pending = pending  # the unvisited neighbours, sorted
        self.constants = constants
        self.trace = trace
        # cache contexts key on the claimed *set*, which is what child
        # gathers see.  A scoped gather prunes subtrees out of its
        # payload, so its cached payloads must never serve an unscoped
        # (or differently scoped) gather: the constants join the key
        self.context = frozenset(claimed) | frozenset(
            ("constant", value) for value in constants)
        self.skipped: set[str] = set()  # subtrees pruned, tier A or B
        self.aggregates: dict[str, Optional[SubtreeDigest]] = {}
        self.subs: dict[str, Mapping] = {}
        self.confirmed: dict[str, str] = {}  # version a reply stamped
        self.fetched: dict[str, set] = {}  # versions fetches returned
        self.stats = ExchangeStats()  # what the merged subtrees cost
        # what this node's own messages cost
        self.requests = self.tuples = self.bytes = 0
        self.pruned = 0  # messages elided
        self.subtrees = 0  # subtrees pruned


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
        with self._span(recorder, ctx, _serve_span_name(message)):
            reply = self._dispatch(message)
        spans = recorder.drain(ctx.trace_id)
        if spans and isinstance(reply, (Answer, Failure)):
            reply = dataclasses.replace(reply,
                                        spans=reply.spans + spans)
        return reply

    @contextmanager
    def _span(self, recorder, ctx: TraceContext,
              name: str) -> Iterator[list]:
        """Run the body as a span ``name`` under ``ctx``: the body sees
        the span as its current trace context, and on success the span
        is recorded and its duration (seconds) left in the yielded
        list."""
        span_id = new_id()
        previous = getattr(self._trace_ctx, "ctx", None)
        self._trace_ctx.ctx = ctx.descend(span_id)
        start = time.monotonic()
        duration: list = []
        try:
            yield duration
        finally:
            self._trace_ctx.ctx = previous
        duration.append(time.monotonic() - start)
        recorder.record(Span(ctx.trace_id, span_id, ctx.span_id, name,
                             self.name, start, duration[0]))

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
            digests = digests_at(self._own_digests(), current)
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
        routed = self.routing is not None
        constants = tuple(message.constants) if routed else ()
        # a served gather is an operation of its own: the *serving*
        # node's network budget bounds it (the requester's budget
        # bounds its wait independently)
        with self._attached().operation_deadline():
            payload = self._gather(message.hop_budget, message.visited,
                                   constants)
        aggregate = payload.pop("aggregate", None)
        version = ""
        digests = attach = None
        aggregate_token = ""
        if routed:
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
            version = self.store.version()
            if message.digest_version != version:
                digests = digests_at(self._own_digests(), version)
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
    def _prune_safe_own(self) -> bool:
        return prune_safe(self.peer.local_ics, self.decs, self.trust_edges)

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
        if (not known or not self._prune_safe_own()
                or not self.routing.all_prune_safe(known - {self.name})):
            return ()
        result = self._relevance(parsed.formula)
        if result is None:
            return ()
        bound, constants = result
        if not constants or not parsed.formula.free_variables() <= bound:
            return ()
        return tuple(sorted(constants,
                            key=lambda v: (type(v).__name__, str(v))))

    # ------------------------------------------------------------------
    # The hop-by-hop sub-network gather
    # ------------------------------------------------------------------
    def _attached(self) -> "PeerNetwork":
        """The network this node is registered on; a detached node
        cannot gather."""
        if self.network is None:
            raise ProtocolError(
                f"node {self.name!r} is not attached to a network")
        return self.network

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
        traffic (merged away in the view), accepted to keep branches
        fully concurrent with no cross-branch coordination.

        ``constants`` scopes the gather to a query (see
        :meth:`_scope_constants`; always empty unless every safety gate
        passed at the querying root), which lets the phases prune whole
        subtrees.  With routing on, the payload also carries the
        ``aggregate`` this node hands back up (popped by callers): its
        own full store digests unioned with every child subtree's — a
        scoped gather still aggregates full content, so tokens stamp
        identically at any scope.
        """
        index = FLOODING if self.routing is None else self.routing
        index.ingest_log(self._attached().exchange_log)
        claimed = (*visited, self.name)
        pending = [name for name in self.neighbours() if name not in claimed]
        g = _Gather(index, self._version, (*claimed, *pending), pending,
                    constants, self._current_trace())
        payload: dict = {
            "peers": {self.name: self.peer},
            "instances": {},
            "decs": list(self.decs),
            "trust": list(self.trust_edges),
            "stats": ExchangeStats(),
        }
        if pending:
            if hop_budget <= 0:
                raise HopBudgetExceeded(
                    f"hop budget exhausted at {self.name!r} with "
                    f"unexplored neighbours {pending}", peer=self.name)
            tier_b = self._prune_subtrees(g)
            self._fan_out_subsystems(g, hop_budget - 1)
            self._merge(g, payload)
            fetches, bases, rows = self._plan_fetches(g, payload["peers"])
            self._integrate_fetches(g, payload, fetches, bases, rows)
            payload["stats"] = g.stats + ExchangeStats(
                requests=g.requests, tuples_transferred=g.tuples,
                bytes_estimate=g.bytes, max_hops=1,
                neighbours_pruned=g.pruned,
                neighbours_contacted=len(pending) - tier_b,
                subtrees_pruned=g.subtrees)
        if self.routing is not None:
            payload["aggregate"] = self._subtree_aggregate(g)
        return payload

    @staticmethod
    def _prune_subtrees(g: _Gather) -> int:
        """Tier B — zero-message subtree prunes: a stored aggregate
        current at this exact system version, safe all the way down,
        disjoint from the query constants, and covering the neighbour's
        reachable set in this context proves the whole branch cannot
        contribute (:meth:`RoutingIndex.prune_subtrees`).  The neighbour
        stays claimed: its subtree is accounted irrelevant, not someone
        else's job.  Returns how many were pruned."""
        pruned = g.index.prune_subtrees(g.pending, g.constants, g.version,
                                        frozenset(g.claimed))
        g.skipped.update(pruned)
        g.aggregates.update(pruned)
        g.subtrees += len(pruned)
        return len(pruned)

    def _fan_out_subsystems(self, g: _Gather, hop_budget: int) -> None:
        """Concurrent fan-out: each unvisited neighbour describes (and
        relays) its own sub-network.  A pruned subtree contributes
        nothing, and a neighbour whose DEC targets are all claimed has
        its reply synthesized from its static description (its own
        gather would find nothing pending); the rest are asked in the
        index's order, quoting what the index holds for them."""
        contact = []
        for neighbour in g.pending:
            if neighbour in g.skipped:
                g.subs[neighbour] = _no_subsystem(ExchangeStats())
            elif (sub := g.index.synthesize(neighbour, g.context)) is not None:
                g.subs[neighbour] = sub
                g.pruned += 1
            else:
                contact.append(neighbour)
        order = g.index.order(contact)
        queries, held = [], []
        for neighbour in order:
            hints, entry, quoted = g.index.query_hints(neighbour, g.context)
            held.append((entry, quoted))
            queries.append(PeerQuery(
                sender=self.name, target=neighbour, hop_budget=hop_budget,
                visited=g.claimed, constants=g.constants, **hints,
                **self._trace_fields(g.trace)))
        answers = self.network.fan_out(self.name, queries)
        g.requests += len(queries)
        for neighbour, answer, (entry, quoted) in zip(order, answers, held):
            g.subs[neighbour] = self._integrate_reply(g, neighbour, answer,
                                                      entry, quoted)

    def _integrate_reply(self, g: _Gather, neighbour: str, answer: Answer,
                         entry: Optional[Mapping],
                         quoted: Optional[SubtreeDigest]) -> Mapping:
        """One subsystem reply, as the sub-network it stands for.

        ``irrelevant`` (tier A: the child proved its whole subtree
        disjoint from the query constants against the aggregate token
        ``quoted``) stands for nothing, and the neighbour's fetches are
        skipped; ``unchanged`` stands for the cached payload ``entry``
        whose token was quoted; a full reply has its ``{"same": fp}``
        markers expanded from ``entry`` and is learned by the index.
        """
        overhead, g.aggregates[neighbour] = g.index.observe_reply(
            neighbour, answer, g.version)
        g.bytes += overhead
        if answer.version:
            g.confirmed[neighbour] = answer.version
        sub = answer.payload
        if isinstance(sub, Mapping) and sub.get("irrelevant"):
            if quoted is None:
                raise ProtocolError(
                    f"{neighbour!r} acknowledged a subtree aggregate "
                    f"{self.name!r} never sent")
            g.skipped.add(neighbour)
            g.subtrees += 1
            return _no_subsystem(sub["stats"])
        if isinstance(sub, Mapping) and sub.get("unchanged"):
            if entry is None:
                raise ProtocolError(
                    f"{neighbour!r} acknowledged a subsystem token "
                    f"{self.name!r} never sent")
            g.pruned += 1
            return {**entry, "stats": sub["stats"]}
        sub = self._restore_instances(neighbour, sub, entry)
        g.index.learn_subsystem(neighbour, g.context, sub)
        return sub

    @staticmethod
    def _merge(g: _Gather, payload: dict) -> None:
        """Union the sub-networks into ``payload`` in canonical,
        mode-independent neighbour order; relayed data travelled one hop
        further to reach this node."""
        for neighbour in g.pending:
            sub = g.subs[neighbour]
            payload["peers"].update(sub["peers"])
            payload["instances"].update(sub["instances"])
            payload["decs"].extend(sub["decs"])
            payload["trust"].extend(sub["trust"])
            hops = sub["stats"].max_hops
            g.stats += dataclasses.replace(
                sub["stats"], max_hops=hops + 1 if hops else 0)

    def _plan_fetches(self, g: _Gather, peers: Mapping
                      ) -> tuple[list, list, dict]:
        """One fetch per relation of each direct neighbour whose subtree
        was not pruned (deeper peers' data arrived relayed), naming the
        content version this node last saw so the provider can reply
        with a delta.  Fetches :meth:`_elided_rows` proves unnecessary
        are not sent.  Returns the fetches, the cached rows each one's
        delta applies to, and the rows known so far per neighbour."""
        fetches, bases = [], []
        rows: dict[str, dict[str, frozenset]] = {n: {} for n in g.pending}
        for neighbour in g.pending:
            if neighbour in g.skipped:
                continue
            confirmed = g.confirmed.get(neighbour, "")
            digests = g.index.confirmed_digests(neighbour, confirmed)
            for relation in sorted(peers[neighbour].schema.names):
                with self._fetch_lock:
                    cached = self._fetched.get((neighbour, relation))
                known = self._elided_rows(g.constants, neighbour, relation,
                                          confirmed, digests, cached)
                if known is not None:
                    rows[neighbour][relation] = known
                    g.pruned += 1
                    continue
                fetches.append(FetchRelation(
                    sender=self.name, target=neighbour,
                    relation=relation, purpose="subsystem gather",
                    known_version=cached[0] if cached else "",
                    **self._trace_fields(g.trace)))
                bases.append(cached[1] if cached else None)
        return fetches, bases, rows

    def _elided_rows(self, constants: tuple, neighbour: str, relation: str,
                     confirmed: str, digests: Optional[NeighbourDigests],
                     cached: Optional[tuple]) -> Optional[frozenset]:
        """The rows a fetch would bring, when this gather already proves
        them — else ``None``.  Only a same-gather version confirmation
        counts, never a possibly stale digest: cached rows at the
        ``confirmed`` version; the empty relation a ``digests`` at that
        version proves empty; or, for a scoped gather, no rows at all
        when that digest holds no row keyed by a query constant (the
        scoped view needs only those; the fetch cache keeps the
        relation's actual rows)."""
        if confirmed and cached and cached[0] == confirmed:
            return cached[1]
        digest = (digests.digest_for(relation)
                  if digests is not None else None)
        if digest is None:
            return None
        if digest.row_count == 0:
            with self._fetch_lock:
                self._fetched[(neighbour, relation)] = (confirmed,
                                                        frozenset())
            return frozenset()
        if constants and digest.disjoint_from(constants):
            return frozenset()
        return None

    def _integrate_fetches(self, g: _Gather, payload: dict, fetches: list,
                           bases: list, rows: dict) -> None:
        """Send the fetches concurrently, apply each reply
        (:meth:`_integrate_fetch`), and add every unpruned neighbour's
        instance to ``payload``."""
        answers = self.network.fan_out(self.name, fetches)
        g.requests += len(fetches)
        for request, base, answer in zip(fetches, bases, answers):
            g.bytes += (g.index.observe_digests(answer.digests)
                        + answer.bytes_estimate)
            relation_rows, moved = self._integrate_fetch(request, base,
                                                         answer)
            rows[request.target][request.relation] = relation_rows
            g.tuples += moved
            g.fetched.setdefault(request.target, set()).add(answer.version)
        for neighbour in g.pending:
            if neighbour not in g.skipped:
                payload["instances"][neighbour] = DatabaseInstance(
                    payload["peers"][neighbour].schema, rows[neighbour])

    def _subtree_aggregate(self, g: _Gather) -> Optional[SubtreeDigest]:
        """The aggregate this node hands back up: its own store digests
        unioned with every child subtree's.  A neighbour whose reply was
        synthesized sends no aggregate; its one-peer aggregate comes
        from the digests its fetch replies just confirmed
        (:meth:`RoutingIndex.singleton_aggregate`)."""
        claimed = frozenset(g.claimed)
        for neighbour in g.pending:
            versions = g.fetched.get(neighbour, ())
            if g.aggregates.get(neighbour) is None and len(versions) == 1:
                g.aggregates[neighbour] = g.index.singleton_aggregate(
                    neighbour, claimed, next(iter(versions)), g.version)
        return build_subtree(
            self.name, self._own_digests(),
            [g.aggregates.get(neighbour) for neighbour in g.pending],
            safe_root=self._prune_safe_own(), version=g.version)

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
                network = self._attached()
                with network.operation_deadline():
                    payload = self._gather(network.hop_budget, (), key)
                payload["instances"][self.name] = self.instance
                peers = payload["peers"]
                # branches that race to the same peer through a diamond
                # may relay its DECs twice; the merge dedups by content
                # (identity is not enough once DECs cross a wire
                # transport, where every branch decodes fresh objects)
                decs = distinct_decs(payload["decs"])
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
        with self._span(recorder, ctx, "answer") as total_s:
            inner = self._current_trace()
            with self._span(recorder, inner, "gather") as gather_s:
                gather_cost = self._view_and_cost(constants)[1]
            with self._span(recorder, inner, "eval") as eval_s:
                result = self._view_session(constants).answer(
                    self.name, parsed, method=method, semantics=semantics)
        spans = recorder.drain(ctx.trace_id)
        timings = {"gather_s": round(gather_s[0], 6),
                   "eval_s": round(eval_s[0], 6),
                   "total_s": round(total_s[0], 6)}
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
        for entry in self._persisted_entries("answers.json"):
            try:
                # include_local_ics changes what a key *means*: an
                # entry computed under the other setting is kept (and
                # re-persisted), never served.  Fields outside
                # _ANSWER_FIELDS (older files name the FO engine that
                # computed the entry) change nothing and are dropped
                entry = {field: entry[field] for field in _ANSWER_FIELDS}
                key = tuple(entry[field] for field in _ANSWER_KEY)
                self._persisted[key] = entry
            except (KeyError, TypeError):
                continue  # skip malformed entries, keep the rest
        for entry in self._persisted_entries("fetched.json"):
            try:
                rows = frozenset(tuple(row) for row in entry["rows"])
                self._fetched[(entry["peer"], entry["relation"])] = \
                    (entry["version"], rows)
            except (KeyError, TypeError):
                continue

    def _persisted_entries(self, name: str) -> list:
        """The ``entries`` of one persisted JSON file under the data
        directory; none when it is missing or unreadable."""
        try:
            with open(self.data_dir / name, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return []
        return payload.get("entries", [])

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
