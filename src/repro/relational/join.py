"""The one conjunctive join: atoms compiled onto slot environments.

Both evaluators join atoms against :class:`~repro.relational.indexes.
TupleIndex` relations through this module: the relational planner's
atom scans (:mod:`repro.relational.planner`) and the Datalog grounder's
rule bodies (:mod:`repro.datalog.grounding`).

An *environment* is a tuple of values indexed by *slot*.  A
:class:`Scope` says, at compile time, which slot holds each bound term;
the constants take the first slots, so a constant is read like a bound
variable.  An :class:`AtomStep` compiles one atom once, into the columns
that probe the index (each with the slot holding its value), the columns
whose values a row appends (one C-level getter; a row binding distinct
fresh variables in column order passes through whole), and the columns
checked against an earlier column of the same row (a repeated variable,
as in ``R(X, X)``).  Nothing at run time hashes or compares a variable.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .indexes import TupleIndex

__all__ = ["AtomStep", "Scope", "picker"]


def picker(slots: Sequence[int]):
    """A getter taking the values at ``slots`` out of a tuple, as a
    tuple: a slice where the slots run consecutively (a whole tuple
    comes back as itself), ``itemgetter`` otherwise."""
    slots = tuple(slots)
    start = slots[0] if slots else 0
    if slots == tuple(range(start, start + len(slots))):
        return itemgetter(slice(start, start + len(slots)))
    return itemgetter(*slots)


class Scope:
    """Which environment slot holds each bound term, and how many slots
    the environment has.  Compile-time only, and never changed in place:
    :meth:`bind` appends variables, :meth:`without` forgets them (a
    quantifier shadowing an outer variable binds it afresh)."""

    __slots__ = ("slots", "width")

    def __init__(self, slots: Mapping[object, int], width: int) -> None:
        self.slots = dict(slots)
        self.width = width

    @classmethod
    def of_constants(cls, constants: Iterable[object]) -> "Scope":
        return cls({}, 0).bind(dict.fromkeys(constants))

    def bind(self, variables: Iterable[object]) -> "Scope":
        scope = Scope(self.slots, self.width)
        for variable in variables:
            scope.slots[variable] = scope.width
            scope.width += 1
        return scope

    def without(self, variables: Iterable[object]) -> "Scope":
        scope = Scope(self.slots, self.width)
        for variable in variables:
            scope.slots.pop(variable, None)
        return scope


class AtomStep:
    """One atom compiled against the scope before it; :attr:`scope` is
    the scope after it, and :attr:`fresh` the variables it binds."""

    __slots__ = ("probe", "repeats", "pick", "fresh", "scope")

    def __init__(self, terms: Sequence[object], scope: Scope) -> None:
        probe, binds, repeats = [], [], []
        first: dict[object, int] = {}
        for column, term in enumerate(terms):
            if term in scope.slots:
                probe.append((column, scope.slots[term]))
            elif term in first:
                repeats.append((column, first[term]))
            else:
                first[term] = column
                binds.append(column)
        self.probe, self.repeats = tuple(probe), tuple(repeats)
        self.pick = picker(binds)
        self.fresh = tuple(first)
        self.scope = scope.bind(self.fresh)

    def lookup(self, relation: TupleIndex, env: tuple) -> Collection[tuple]:
        """The rows of ``relation`` agreeing with every probe column (a
        live bucket, maybe: copy it before changing ``relation``)."""
        if not self.probe:
            return relation.rows
        if len(self.probe) == 1:
            (column, slot), = self.probe
            return relation.column(column).get(env[slot], ())
        return relation.matching({column: env[slot]
                                  for column, slot in self.probe})

    def extend(self, env: tuple, rows: Iterable[tuple],
               probed: bool = True) -> Iterator[tuple]:
        """``env`` extended by each of ``rows`` that binds consistently;
        rows not from :meth:`lookup` are checked on the probe columns."""
        pick, repeats = self.pick, self.repeats
        probe = () if probed else self.probe
        for row in rows:
            if (not repeats or all(row[column] == row[other]
                                   for column, other in repeats)) and (
                    not probe or all(row[column] == env[slot]
                                     for column, slot in probe)):
                yield env + pick(row)
