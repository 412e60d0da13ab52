"""Relation-to-predicate naming for the ASP specifications.

The paper writes source relations ``R1`` and their virtual (solution-level)
versions ``R'1``.  Program predicates must start lowercase, so relation
``R1`` maps to source predicate ``r1`` and primed predicate ``r1_p``
(read: "R1-prime").  The map is bijective and validated: two relations may
not collide after lowercasing, and the source, primed, final and
active-domain predicates are pairwise disjoint — where a derived name is
already taken (relation ``A_p``'s source is ``a_p``, relation ``Dom``'s is
``dom``), it gets a numeric suffix instead.  Generated auxiliary names stay
clear of all of them (:meth:`NameMap.reserved_predicates`).
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import SystemError_

__all__ = ["NameMap"]

_VALID = re.compile(r"\A[A-Za-z][A-Za-z0-9_]*\Z")

PRIMED_SUFFIX = "_p"
FINAL_SUFFIX = "_f"
DOMAIN = "dom"


def _fresh(base: str, taken: set[str]) -> str:
    """``base``, or ``base`` with the first free counter, now taken."""
    name, counter = base, 0
    while name in taken:
        counter += 1
        name = f"{base}{counter}"
    taken.add(name)
    return name


def _lookup(predicates: dict[str, str], relation: str) -> str:
    try:
        return predicates[relation]
    except KeyError:
        raise SystemError_(f"unmapped relation {relation!r}") from None


class NameMap:
    """Bijective relation <-> predicate naming."""

    def __init__(self, relations: Iterable[str]) -> None:
        self._source: dict[str, str] = {}
        self._relation_of_source: dict[str, str] = {}
        ordered = sorted(set(relations))
        for relation in ordered:
            if not _VALID.match(relation):
                raise SystemError_(
                    f"relation name {relation!r} cannot be mapped to a "
                    f"program predicate (letters, digits, underscores "
                    f"only, starting with a letter)")
            pred = relation[0].lower() + relation[1:]
            if pred in self._relation_of_source:
                raise SystemError_(
                    f"relations {self._relation_of_source[pred]!r} and "
                    f"{relation!r} collide on predicate name {pred!r}")
            self._source[relation] = pred
            self._relation_of_source[pred] = relation
        taken = set(self._relation_of_source)
        #: the active-domain predicate of unguarded existential witnesses
        self.domain = _fresh(DOMAIN, taken)
        self._primed: dict[str, str] = {}
        self._final: dict[str, str] = {}
        for relation in ordered:
            pred = self._source[relation]
            self._primed[relation] = _fresh(pred + PRIMED_SUFFIX, taken)
            self._final[relation] = _fresh(pred + FINAL_SUFFIX, taken)
        self._relation_of_primed = {pred: relation for relation, pred
                                    in self._primed.items()}
        self._relation_of_final = {pred: relation for relation, pred
                                   in self._final.items()}

    def source(self, relation: str) -> str:
        """Predicate holding the material (source) tuples."""
        return _lookup(self._source, relation)

    def primed(self, relation: str) -> str:
        """Predicate holding the virtual, solution-level tuples (R')."""
        return _lookup(self._primed, relation)

    def final(self, relation: str) -> str:
        """Predicate of the second repair layer (Section 3.2's "more
        flexible alternative": solutions re-repaired w.r.t. local ICs)."""
        return _lookup(self._final, relation)

    def relation_of_primed(self, predicate: str) -> str | None:
        """Reverse lookup for decoding answer sets."""
        return self._relation_of_primed.get(predicate)

    def relation_of_final(self, predicate: str) -> str | None:
        return self._relation_of_final.get(predicate)

    def relation_of_source(self, predicate: str) -> str | None:
        return self._relation_of_source.get(predicate)

    def reserved_predicates(self) -> set[str]:
        return (set(self._relation_of_source)
                | set(self._relation_of_primed)
                | set(self._relation_of_final)
                | {self.domain})
