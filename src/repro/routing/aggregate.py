"""Hop-by-hop aggregated subtree digests.

PR 8's :class:`~repro.routing.digest.NeighbourDigests` describe one
*direct* neighbour; on deep topologies a gather still pays one full
round-trip per edge before it learns that a whole branch holds nothing
relevant.  A :class:`SubtreeDigest` fixes that: when a node answers a
subsystem gather it unions its **own** per-relation digests with the
aggregates its children returned, producing one digest bundle covering
*everything reachable through it*.  The result is stamped with a
content token (:func:`subtree_token`) playing the same role the
``subsystem_fingerprint`` content token plays for cached payloads, and
piggybacked up the tree only when the requester's quoted token is
behind — exactly the staleness discipline of the flat digests.

**Soundness contract.**  Every aggregate keeps the digest layer's
no-false-negatives guarantee: :meth:`SubtreeDigest.disjoint_from`
returning ``True`` proves that *no relation at any peer in the subtree*
holds a row whose first column equals one of the query's constants.
Whether that proof licenses skipping the subtree is a separate,
stricter question answered by the ``safe`` flag, computed bottom-up:

* every DEC owned by a subtree node is a full positional
  :class:`~repro.core.constraints.InclusionDependency` (identity column
  map, so imported rows keep their first column unchanged),
* every trust edge owned by a subtree node is ``less`` (imports are
  unioned, never repaired against the importer's data), and
* no subtree node carries local ICs.

Under those conditions a subtree whose aggregate is disjoint from the
query constants cannot contribute, remove, or rewrite any
constant-keyed tuple at the gathering root, so omitting it leaves the
answer tuple-identical.  Anything richer — EGDs, typed TGCs, ``same``
trust, local ICs — flips ``safe`` off for every ancestor aggregate, and
the gather degrades to PR 8 behaviour (which degrades to flooding).
Missing, stale, or width-incompatible pieces degrade the same way: the
builders return ``None`` rather than guess (all-or-nothing).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .digest import NeighbourDigests, RelationDigest

__all__ = [
    "SubtreeDigest",
    "aggregate_bytes",
    "build_subtree",
    "prune_safe",
    "subtree_token",
]


def prune_safe(local_ics, decs, trust) -> bool:
    """Whether one peer's static shape is *prune-safe*.

    Prune-safe means its data can only flow through the system as
    monotone, key-preserving row shipping: every owned DEC is a full
    identity :class:`~repro.relational.constraints.InclusionDependency`
    (same positions on both sides, covering every column — no
    existential witnesses, first column intact), every owned trust edge
    is ``less`` (imports union, nothing is repaired against the
    importer), and there are no local ICs (nothing deletes or couples
    tuples after import).  Under these conditions a query selecting on
    first-column constants depends only on rows keyed by those
    constants, so a subtree digest disjoint from them licenses omitting
    the subtree."""
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
                or len(positions) != len(constraint.antecedent[0].terms)
                or len(positions) != len(
                    constraint.consequent[0].terms)):
            return False
    return True


def subtree_token(root: str, peers: Sequence[str], safe: bool,
                  relations: Sequence[RelationDigest]) -> str:
    """Content token of an *entire* subtree's aggregate.

    Plays the same role the ``subsystem_fingerprint`` content token
    plays for PR 8's cached payloads — equal tokens prove equal content
    — but is computed over the aggregate's own parts rather than a
    gather payload.  That matters: payloads are relevance-scoped, so
    their fingerprints vary with the query's constants, while the
    aggregate always unions *full* store digests and must stamp
    identically whatever scope rebuilt it.  Every constituent
    :class:`~repro.routing.digest.RelationDigest` carries its slice's
    content fingerprint (and composed fingerprints are built in sorted
    child order), so any row changing anywhere in the subtree — and any
    safety flip — changes the token.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{root}|{int(safe)}|{','.join(peers)}"
                  .encode("utf-8"))
    for digest in relations:
        hasher.update(
            f"|{digest.relation}|{digest.row_count}"
            f"|{digest.fingerprint}|{digest.nbits}|{digest.k}"
            f"|{digest.bits:x}".encode("utf-8"))
    return "agg-" + hasher.hexdigest()[:16]


@dataclass(frozen=True)
class SubtreeDigest:
    """Union digest of everything reachable through one neighbour.

    ``root`` is the subtree's entry point (the neighbour that built it);
    ``peers`` lists every peer the aggregate covers, sorted; ``token``
    is the :func:`subtree_token` content stamp consumers must confirm
    in-gather before trusting the bits; ``version`` is the *global*
    system version the builder observed — non-empty only when every
    constituent part carried the same stamp, which is what licenses the
    zero-message prune (see :meth:`~repro.routing.index.RoutingIndex`);
    ``safe`` is the bottom-up prune-safety flag from the module
    docstring; ``relations`` union one digest per relation name across
    the whole subtree.
    """

    root: str
    peers: tuple[str, ...] = ()
    token: str = ""
    version: str = ""
    safe: bool = False
    relations: tuple[RelationDigest, ...] = ()

    def digest_for(self, relation: str) -> Optional[RelationDigest]:
        for digest in self.relations:
            if digest.relation == relation:
                return digest
        return None

    def disjoint_from(self, values: Iterable[object]) -> bool:
        """``True`` proves no peer in the subtree stores a row whose
        first column equals any of ``values``, in *any* relation.

        Checking every relation (not just the query's) is deliberate:
        DECs propagate rows between differently-named relations along
        the tree, so a constant hiding anywhere in the subtree could
        surface under the query's relation at the root.
        """
        values = list(values)
        return all(digest.disjoint_from(values)
                   for digest in self.relations)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"root": self.root, "peers": list(self.peers),
                "token": self.token, "version": self.version,
                "safe": self.safe,
                "relations": [digest.to_dict()
                              for digest in self.relations]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SubtreeDigest":
        return cls(root=data["root"], peers=tuple(data["peers"]),
                   token=data["token"], version=data.get("version", ""),
                   safe=bool(data.get("safe", False)),
                   relations=tuple(RelationDigest.from_dict(entry)
                                   for entry in data["relations"]))


def build_subtree(root: str, own: Optional[NeighbourDigests],
                  children: Sequence[Optional[SubtreeDigest]], *,
                  safe_root: bool,
                  version: str) -> Optional[SubtreeDigest]:
    """Union a node's own digests with its children's aggregates.

    All-or-nothing: if the node's own digests are unavailable (a store
    race kept the consistent read failing) or *any* child
    aggregate is missing, the whole subtree has no aggregate — a partial
    union could prove a false absence, which the no-false-negatives
    contract forbids.  ``version`` is stamped only when every child
    aggregate carries the same stamp (a child caught mid-sync would
    otherwise smuggle pre-sync bits under a post-sync stamp); ``safe``
    requires ``safe_root`` *and* every child subtree safe.
    """
    if own is None or any(child is None for child in children):
        return None
    parts = sorted((child for child in children),
                   key=lambda child: child.root)
    merged: dict[str, RelationDigest] = {
        digest.relation: digest for digest in own.relations}
    peers = {root}
    safe = bool(safe_root)
    stamped = version
    try:
        for child in parts:
            peers.update(child.peers)
            safe = safe and child.safe
            if child.version != version:
                stamped = ""
            for digest in child.relations:
                held = merged.get(digest.relation)
                merged[digest.relation] = (digest if held is None
                                           else held.merge(digest))
    except ValueError:
        # incompatible digest parameters (non power-of-two width ratio,
        # differing hash counts) — degrade rather than mis-merge
        return None
    covered = tuple(sorted(peers))
    relations = tuple(merged[name] for name in sorted(merged))
    return SubtreeDigest(
        root=root, peers=covered,
        token=subtree_token(root, covered, safe, relations),
        version=stamped, safe=safe, relations=relations)


def aggregate_bytes(aggregate: Optional[SubtreeDigest]) -> int:
    """Serialized-size estimate of a piggybacked aggregate, mirroring
    :func:`~repro.routing.digest.digest_bytes` for the in-process
    transports' traffic accounting (the wire transport counts exact
    frame bytes)."""
    if aggregate is None:
        return 0
    total = 32 + len(aggregate.root) + len(aggregate.token)
    total += len(aggregate.version)
    total += sum(len(peer) + 4 for peer in aggregate.peers)
    for digest in aggregate.relations:
        total += (digest.nbits + 3) // 4
        total += len(digest.relation) + len(digest.fingerprint) + 24
    return total
