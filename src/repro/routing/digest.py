"""Bloom-style content digests for peer relations.

A :class:`RelationDigest` summarises one relation of a peer's
:class:`~repro.storage.tables.FactTable`: a small bit array over the
relation's **first-column** values, the exact row count, and the
relation's content fingerprint (already content-derived, so a digest
invalidates for free whenever the data changes).  A
:class:`NeighbourDigests` bundles one digest per relation under the
provider's store version — the token every consumer must match before
trusting any digest (see :mod:`repro.routing.index`).

**The no-false-negatives guarantee.**  Membership bits are set for every
value actually stored, so :meth:`RelationDigest.may_contain` can return
``False`` only for values that are *provably absent* — it never lies
about a present value.  Consequently :meth:`RelationDigest.disjoint_from`
returning ``True`` for a set of query constants proves the relation
holds **no** row whose first column equals any of them: the relation
cannot contribute a matching tuple.  The reverse direction is
deliberately weak — ``may_contain`` may return ``True`` for absent
values (a false positive merely costs a contact that finds nothing).
The seeded property suite in ``tests/routing/test_digest.py`` pins both
directions.

Hashing uses ``blake2b`` over the canonical
:func:`~repro.storage.tables.encode_value` encoding — never Python's
salted builtin ``hash`` — so digests are stable across processes and
restarts, and two peers always agree on a value's bit positions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..storage.tables import FactTable, encode_value

__all__ = [
    "DIGEST_BITS",
    "DIGEST_HASHES",
    "DIGEST_MAX_BITS",
    "RelationDigest",
    "NeighbourDigests",
    "adaptive_nbits",
    "digest_bytes",
    "digests_at",
]

#: minimum bit-array width; 128 bits keeps a digest smaller than two
#: rows while staying useful up to a few dozen distinct keys
DIGEST_BITS = 128
#: hash functions per value (double hashing: h1 + i*h2)
DIGEST_HASHES = 2
#: adaptive-width cap — a digest never exceeds 128 hex characters
DIGEST_MAX_BITS = 1024
#: adaptive sizing target: ~8 bits per stored row keeps the two-hash
#: false-positive rate around (1-e^(-2/8))^2 ≈ 4.9% at any scale
_BITS_PER_ROW = 8


def adaptive_nbits(row_count: int) -> int:
    """Power-of-two width scaled to the relation, in
    [:data:`DIGEST_BITS`, :data:`DIGEST_MAX_BITS`].

    Power-of-two widths are what keeps mixed-width digests mergeable:
    any two legal widths divide each other, so the wider array folds
    onto the narrower one exactly (see :meth:`RelationDigest.merge`).
    """
    nbits = DIGEST_BITS
    while nbits < DIGEST_MAX_BITS and nbits < row_count * _BITS_PER_ROW:
        nbits *= 2
    return nbits


def _bit_positions(value: object, nbits: int, k: int) -> list[int]:
    """The ``k`` bit positions of one value (classic double hashing)."""
    raw = hashlib.blake2b(encode_value(value).encode("utf-8"),
                          digest_size=16).digest()
    h1 = int.from_bytes(raw[:8], "big")
    # force h2 odd so the probe sequence cannot degenerate for any nbits
    h2 = int.from_bytes(raw[8:], "big") | 1
    return [(h1 + i * h2) % nbits for i in range(k)]


@dataclass(frozen=True)
class RelationDigest:
    """One relation's summary: membership bits + row count + fingerprint.

    ``bits`` is the bit array as an int (bit ``i`` set ⇔ some stored
    row's first column hashes to position ``i``); ``row_count`` is exact;
    ``fingerprint`` is the relation's content hash (a one-relation
    :meth:`~repro.storage.tables.FactTable.fingerprint`).
    """

    relation: str
    row_count: int
    fingerprint: str
    bits: int = 0
    nbits: int = DIGEST_BITS
    k: int = DIGEST_HASHES

    @classmethod
    def from_rows(cls, relation: str, rows: Iterable[tuple], *,
                  nbits: Optional[int] = None,
                  k: int = DIGEST_HASHES) -> "RelationDigest":
        rows = list(rows)
        if nbits is None:
            nbits = adaptive_nbits(len(rows))
        bits = 0
        for row in rows:
            if not row:
                continue
            for position in _bit_positions(row[0], nbits, k):
                bits |= 1 << position
        fingerprint = FactTable({relation: rows}).fingerprint()
        return cls(relation=relation, row_count=len(rows),
                   fingerprint=fingerprint, bits=bits, nbits=nbits, k=k)

    # ------------------------------------------------------------------
    def may_contain(self, value: object) -> bool:
        """``False`` proves no stored row has ``value`` in column 0."""
        if self.row_count == 0:
            return False
        return all(self.bits >> position & 1
                   for position in _bit_positions(value, self.nbits,
                                                  self.k))

    def disjoint_from(self, values: Iterable[object]) -> bool:
        """``True`` proves the relation holds no row whose first column
        equals any of ``values`` — it cannot contribute a match."""
        return not any(self.may_contain(value) for value in values)

    def fold_to(self, nbits: int) -> "RelationDigest":
        """Shrink the bit array to a width that divides this one by a
        power of two, preserving membership *exactly*.

        A value's position at width ``m`` is ``h mod m``; since
        ``(h mod 2a) mod a == h mod a``, OR-folding the upper half onto
        the lower half at each halving keeps every set position set at
        the narrower width — so ``may_contain`` can only gain false
        positives, never lose a present value, and the
        no-false-negatives guarantee survives the fold.
        """
        if nbits == self.nbits:
            return self
        if (nbits <= 0 or self.nbits % nbits
                or (self.nbits // nbits) & (self.nbits // nbits - 1)):
            raise ValueError(
                f"cannot fold a {self.nbits}-bit digest to {nbits} bits:"
                " the ratio must be a power of two")
        bits, width = self.bits, self.nbits
        while width > nbits:
            width //= 2
            bits = (bits & ((1 << width) - 1)) | (bits >> width)
        return RelationDigest(
            relation=self.relation, row_count=self.row_count,
            fingerprint=self.fingerprint, bits=bits, nbits=nbits,
            k=self.k)

    def merge(self, other: "RelationDigest") -> "RelationDigest":
        """Union of two disjoint slices of the same relation (subtree
        aggregation composes digests this way): bits OR together, row
        counts add exactly, fingerprints compose positionally.

        Widths may differ — adaptive sizing makes that the common case —
        as long as one divides the other by a power of two: the wider
        digest folds onto the narrower width first (:meth:`fold_to`
        preserves no-false-negatives), so the union is as precise as its
        smallest input.  Differing hash counts or incompatible widths
        still refuse.
        """
        if self.relation != other.relation or self.k != other.k:
            raise ValueError(
                f"cannot merge digests of {self.relation!r}/"
                f"{other.relation!r} with differing parameters")
        if self.nbits != other.nbits:
            narrow = min(self.nbits, other.nbits)
            wide, kept = ((self, other) if self.nbits > other.nbits
                          else (other, self))
            wide = wide.fold_to(narrow)  # raises if widths incompatible
            return (kept.merge(wide) if kept is self
                    else wide.merge(kept))
        return RelationDigest(
            relation=self.relation,
            row_count=self.row_count + other.row_count,
            fingerprint=f"merge({self.fingerprint},{other.fingerprint})",
            bits=self.bits | other.bits, nbits=self.nbits, k=self.k)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        width = (self.nbits + 3) // 4
        return {"relation": self.relation, "count": self.row_count,
                "fingerprint": self.fingerprint,
                "bits": format(self.bits, f"0{width}x"),
                "nbits": self.nbits, "k": self.k}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RelationDigest":
        return cls(relation=data["relation"], row_count=data["count"],
                   fingerprint=data["fingerprint"],
                   bits=int(data["bits"], 16),
                   nbits=data.get("nbits", DIGEST_BITS),
                   k=data.get("k", DIGEST_HASHES))


@dataclass(frozen=True)
class NeighbourDigests:
    """Every relation digest of one peer, under one store version.

    ``version`` is the provider's
    :meth:`~repro.storage.base.FactStore.version` at digest time.
    Consumers must confirm the provider is still *at* this
    version in the same gather before acting on any digest — a stale
    digest is only ever a reason to contact, never to skip.
    """

    peer: str
    version: str
    relations: tuple[RelationDigest, ...] = ()

    @classmethod
    def from_tables(cls, peer: str, version: str,
                    tables: Mapping[str, Iterable[tuple]]
                    ) -> "NeighbourDigests":
        digests = tuple(RelationDigest.from_rows(relation,
                                                 tables[relation])
                        for relation in sorted(tables))
        return cls(peer=peer, version=version, relations=digests)

    def digest_for(self, relation: str) -> Optional[RelationDigest]:
        for digest in self.relations:
            if digest.relation == relation:
                return digest
        return None

    def to_dict(self) -> dict:
        return {"peer": self.peer, "version": self.version,
                "relations": [digest.to_dict()
                              for digest in self.relations]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "NeighbourDigests":
        return cls(peer=data["peer"], version=data["version"],
                   relations=tuple(RelationDigest.from_dict(entry)
                                   for entry in data["relations"]))


def digests_at(digests: Optional[NeighbourDigests],
               version: str) -> Optional[NeighbourDigests]:
    """``digests`` if they were taken at ``version``; ``None`` when there
    are none, no version to check against, or a sync raced the read."""
    if digests is None or not version or digests.version != version:
        return None
    return digests


def digest_bytes(digests: Optional[NeighbourDigests]) -> int:
    """Serialized-size estimate of a piggybacked digest bundle, for the
    in-process transports' traffic accounting (the wire transport counts
    exact frame bytes)."""
    if digests is None:
        return 0
    total = 24 + len(digests.peer) + len(digests.version)
    for digest in digests.relations:
        total += (digest.nbits + 3) // 4
        total += len(digest.relation) + len(digest.fingerprint) + 24
    return total
