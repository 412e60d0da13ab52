"""Typed protocol messages for the peer network runtime.

The wire vocabulary is deliberately tiny — four message shapes cover the
paper's whole query-answering narrative (Example 2: "P1 will first issue
a query to P2 to retrieve the tuples in R2; next, a query is issued to
P3 ..."):

* :class:`FetchRelation` — "send me the contents of your relation R";
* :class:`PeerQuery` — "describe your accessible sub-network" (the
  hop-by-hop gather behind transitive answering) — carries the hop
  budget and the per-branch visited set that make cyclic accessibility
  graphs terminate;
* :class:`AnswerQuery` — "answer this query from your own view" (the
  client-facing RPC of the cross-process wire runtime: a
  :class:`~repro.wire.session.RemoteNetworkSession` sends one to the
  queried peer's server process, which gathers and answers locally);
* :class:`Answer` — a successful reply, correlated to its request;
* :class:`Failure` — a typed error reply (unknown relation, exhausted
  hop budget), also correlated.

Every message carries a process-unique ``correlation_id``; replies quote
it in ``in_reply_to`` so transports may deliver out of order.  Payloads
hold immutable in-process objects (tuples, :class:`~repro.core.system.Peer`
instances); the cross-process transport serialises them with the
:mod:`repro.wire.codec` framing built on the :mod:`repro.core.io` dict
codecs — :func:`payload_bytes` estimates the serialized size for the
traffic accounting of the *in-process* transports (the wire transport
records the exact encoded frame size instead).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..core.messaging import estimate_bytes

__all__ = [
    "Message",
    "FetchRelation",
    "PeerQuery",
    "AnswerQuery",
    "Answer",
    "Failure",
    "GetStatus",
    "SUBSYSTEM",
    "payload_bytes",
]

#: the one PeerQuery kind today: gather the accessible sub-network.
SUBSYSTEM = "subsystem"

_CORRELATION = itertools.count(1)


def _next_correlation() -> int:
    return next(_CORRELATION)


@dataclass(frozen=True, kw_only=True)
class Message:
    """Base envelope: who is talking to whom, under which correlation.

    The three trace fields are optional observability hints (the codec
    omits them when empty, so untraced frames are byte-identical to the
    pre-tracing wire format and old peers decode-and-ignore them):
    ``trace_id`` names the distributed trace this message belongs to,
    ``span_id`` is the span id the *requester* pre-allocated for this
    request's round trip, and ``parent_span_id`` is the span the
    request was issued under.  A serving peer records its own spans
    with ``span_id`` as their parent, so the reassembled tree nests
    server time under the client's request span without any cross-
    process clock agreement.
    """

    sender: str
    target: str
    correlation_id: int = field(default_factory=_next_correlation)
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""


@dataclass(frozen=True, kw_only=True)
class FetchRelation(Message):
    """Request the contents of one of the target's own relations.

    ``known_version`` is the content version
    (:meth:`~repro.storage.base.FactStore.version`) of the target's
    data the requester already holds rows for; when the target's store
    still retains the delta chain from that version it replies with a
    versioned delta instead of the full relation (see
    :attr:`Answer.delta`).  Empty means "send everything".
    """

    relation: str
    purpose: str = ""
    known_version: str = ""


@dataclass(frozen=True, kw_only=True)
class PeerQuery(Message):
    """Request a hop-by-hop description of the target's sub-network.

    ``hop_budget`` bounds how many further hops the target may take;
    ``visited`` lists the peers already covered on this branch, so
    cyclic accessibility graphs terminate without revisiting.

    The two routing fields are optional hints (old peers ignore them,
    the codec omits them when empty): ``digest_version`` names the
    :class:`~repro.routing.digest.NeighbourDigests` version the
    requester already holds for the target, so the target only
    piggybacks fresh digests; ``known_subsystem`` is the
    :func:`~repro.routing.index.subsystem_fingerprint` content token of
    the target's last full subsystem payload the requester cached — a
    target whose freshly gathered payload hashes to the same token may
    answer with a tiny ``{"unchanged": True}`` payload instead of
    re-relaying its whole subtree.

    ``known_instances`` refines the same idea per relayed peer: a
    mapping of peer name to the
    :meth:`~repro.relational.instance.DatabaseInstance.fingerprint` of
    the instance the requester's cached payload holds for that peer.
    A target whose *changed* gather still carries a byte-identical
    instance for one of those peers may replace it with a
    ``{"same": fingerprint}`` marker, which the requester expands back
    from its cache — so a one-leaf edit stops re-relaying every
    untouched instance along the whole path.  Like the other hints it
    is optional and omitted from the wire when empty.

    ``constants`` scopes the gather to a query: the first-column
    constants the query selects on, extracted by the requesting root
    when every body atom pins its first argument.  A target holding a
    *safe* subtree aggregate disjoint from them may answer with a tiny
    ``{"irrelevant": True}`` acknowledgement instead of relaying its
    subtree; ``aggregate_token`` quotes the
    :class:`~repro.routing.aggregate.SubtreeDigest` content token the
    requester already holds for the target, so aggregates only travel
    when the requester is behind.  Empty means unscoped / no aggregate
    held — both degrade to PR 8 behaviour.
    """

    kind: str = SUBSYSTEM
    hop_budget: int = 8
    visited: tuple[str, ...] = ()
    digest_version: str = ""
    known_subsystem: str = ""
    known_instances: Any = None
    constants: tuple = ()
    aggregate_token: str = ""


@dataclass(frozen=True, kw_only=True)
class AnswerQuery(Message):
    """Request a full query answer computed at the target peer.

    The target resolves the query in its own language, gathers its
    accessible sub-network (over whatever transport its network runs
    on), answers from the materialised view, and replies with an
    :class:`Answer` whose payload is the complete
    :class:`~repro.core.results.QueryResult`.  ``query`` is the textual
    form (``"q(X, Y) := R1(X, Y)"``); ``method`` empty means the node's
    default method; ``semantics`` is ``"certain"`` or ``"possible"``.
    """

    query: str
    method: str = ""
    semantics: str = "certain"


@dataclass(frozen=True, kw_only=True)
class Answer(Message):
    """A successful reply.  ``payload`` depends on the request kind:
    a tuple of rows for :class:`FetchRelation` (or a
    ``{"insert": rows, "delete": rows}`` mapping when ``delta`` is
    set), a subsystem-description mapping for :class:`PeerQuery`.

    ``version`` stamps relation replies with the provider's current
    content version so the requester can cache rows and ask for deltas
    next time; ``delta`` marks the payload as a change set relative to
    the requester's ``known_version`` rather than the full relation.

    ``digests`` optionally piggybacks the provider's
    :class:`~repro.routing.digest.NeighbourDigests` (its per-relation
    content summaries under its current store version) so requesters
    learn routing state from traffic they paid for anyway.
    ``aggregate`` does the same one level up: the provider's
    :class:`~repro.routing.aggregate.SubtreeDigest` over everything
    reachable through it, attached to subsystem replies only when the
    requester's quoted ``aggregate_token`` is behind;
    ``aggregate_token`` always names the provider's *current* subtree
    token on routed subsystem replies, so a matching requester can
    re-confirm its stored aggregate without the bits travelling again.
    All three fields are forward-tolerant: peers predating them decode
    and ignore them.

    ``spans`` piggybacks the provider's completed trace spans
    (:class:`~repro.obs.trace.Span`) back to the requester on traced
    exchanges — the requester folds them into its own recorder, so the
    root's :class:`~repro.obs.trace.TraceCollector` sees the whole
    cross-process tree.  Empty (the untraced default) costs nothing on
    the wire.
    """

    in_reply_to: int
    payload: Any = None
    bytes_estimate: int = 0
    version: str = ""
    delta: bool = False
    digests: Any = None
    aggregate: Any = None
    aggregate_token: str = ""
    spans: tuple = ()

    def __post_init__(self) -> None:
        if self.bytes_estimate == 0:
            estimate = payload_bytes(self.payload)
            if self.digests is not None:
                from ..routing.digest import digest_bytes
                estimate += digest_bytes(self.digests)
            if self.aggregate is not None:
                from ..routing.aggregate import aggregate_bytes
                estimate += aggregate_bytes(self.aggregate)
            if self.aggregate_token:
                estimate += len(self.aggregate_token)
            if self.spans:
                from ..obs.trace import span_bytes
                estimate += span_bytes(self.spans)
            object.__setattr__(self, "bytes_estimate", estimate)


@dataclass(frozen=True, kw_only=True)
class Failure(Message):
    """A typed error reply.  ``code`` matches the
    :class:`~repro.core.results.QueryError` vocabulary
    (``"unknown-relation"``, ``"hop-budget-exhausted"``,
    ``"peer-unreachable"``...).  ``spans`` mirrors
    :attr:`Answer.spans`: even a failed hop reports where its time
    went."""

    in_reply_to: int
    code: str
    detail: str = ""
    spans: tuple = ()


@dataclass(frozen=True, kw_only=True)
class GetStatus(Message):
    """Ask a running server process for its live metrics.

    Served by :class:`~repro.wire.server.PeerServer` directly (metrics
    are properties of the serving process — its event loop, transport
    pools, and routing caches — not of the peer's data), replying with
    an :class:`Answer` whose payload is ``{"status": {...}}``: the peer
    name and a merged :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
    In-process transports route it to :meth:`PeerNode.handle`, which
    answers ``unsupported-message`` — status is a wire-runtime concept.
    """


def payload_bytes(payload: Any) -> int:
    """Estimate the serialized size of a reply payload.

    Rows are costed with the shared :func:`estimate_bytes`; subsystem
    descriptions cost the sum of their instances' rows plus a small flat
    overhead per described peer/constraint.
    """
    from ..core.results import QueryResult
    if payload is None:
        return 0
    if isinstance(payload, QueryResult):
        # a served query answer: costs its answer rows plus a flat
        # envelope for the provenance fields
        return estimate_bytes(payload.answers) + 64
    if isinstance(payload, (tuple, list, frozenset, set)):
        return estimate_bytes(payload)
    if isinstance(payload, Mapping) and set(payload) <= {"insert",
                                                         "delete"}:
        # a versioned relation delta: costs only the changed rows
        return (estimate_bytes(payload.get("insert", ()))
                + estimate_bytes(payload.get("delete", ())) + 16)
    if isinstance(payload, Mapping) and payload.get("unchanged"):
        # a subsystem-unchanged acknowledgement: a flat flag + stats
        return 8
    if isinstance(payload, Mapping) and payload.get("irrelevant"):
        # a subtree-irrelevant acknowledgement: a flat flag + stats
        return 8
    if isinstance(payload, Mapping):
        total = 0
        for instance in payload.get("instances", {}).values():
            if isinstance(instance, Mapping):
                # a {"same": fingerprint} dedup marker: only the
                # fingerprint travels, never the instance's rows
                total += 24
                continue
            for relation in instance.relations():
                total += estimate_bytes(instance.tuples(relation))
        total += 64 * len(payload.get("peers", {}))
        total += 32 * len(payload.get("decs", ()))
        total += 16 * len(payload.get("trust", ()))
        return total
    return len(str(payload))
