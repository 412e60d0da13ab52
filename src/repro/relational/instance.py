"""Database instances, Σ(r), the distance Δ, and the ≤_r order.

Implements Definition 1 of the paper:

* ``Σ(r)`` — the set of ground atomic facts of an instance;
* ``Δ(r1, r2)`` — the symmetric difference ``(Σ(r1)∖Σ(r2)) ∪ (Σ(r2)∖Σ(r1))``;
* ``r1 ≤_r r2``  iff  ``Δ(r, r1) ⊆ Δ(r, r2)``.

Instances are immutable: mutation-style methods return new instances, which
keeps repair search and solution enumeration free of aliasing bugs.

Each instance also carries lazily-built per-relation/per-column hash
indexes (:class:`~repro.relational.indexes.TupleIndex`, from
:meth:`DatabaseInstance.index`) that the indexed evaluation planner's
atom scans probe.  Functional updates (:meth:`with_facts`,
:meth:`without_facts`) maintain the already-built indexes *incrementally*
instead of rebuilding them, and relations untouched by an update share
their index object with the parent instance (safe: identical row sets,
and lazy column builds are deterministic), as do :meth:`restrict`,
:meth:`combine` and :meth:`gather`.

Fact storage itself lives one layer down, in
:class:`~repro.storage.tables.FactTable` — an immutable
relation→rows mapping shared with the versioned
:class:`~repro.storage.base.FactStore` backends.  The instance is the
schema-validating, index-carrying view over one such table, and its
:meth:`fingerprint` (the table's content hash) is the restart-stable
version token the storage and network layers key on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Union

from ..storage.tables import FactTable, row_sort_key
from .errors import InstanceError
from .indexes import TupleIndex
from .schema import DatabaseSchema

__all__ = ["Fact", "DatabaseInstance", "canonical_order"]


class Fact:
    """A ground database atom ``relation(values...)``.

    ``values`` are raw Python scalars (str/int) — the relational layer does
    not wrap them in logic terms; conversion happens at the Datalog border.
    """

    __slots__ = ("relation", "values", "_hash")

    def __init__(self, relation: str, values: Iterable[object]) -> None:
        values = tuple(values)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((relation, values)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Fact is immutable")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Fact) and self.relation == other.relation
                and self.values == other.values)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Fact({self.relation!r}, {self.values!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.relation}({inner})"

    def __lt__(self, other: "Fact") -> bool:
        return (self.relation, _sort_key(self.values)) < \
            (other.relation, _sort_key(other.values))


def _sort_key(values: tuple) -> tuple:
    return tuple((0, v) if isinstance(v, int) else (1, str(v))
                 for v in values)


_NO_ROWS: frozenset = frozenset()


def canonical_order(instances: Iterable["DatabaseInstance"]
                    ) -> list["DatabaseInstance"]:
    """``instances`` in one content-determined order, the same under every
    hash seed: by relation name, then by each relation's sorted rows
    (:func:`~repro.storage.tables.row_sort_key`).  Each key is computed
    once per instance; lists of zero or one instance are returned as is.
    """
    instances = list(instances)
    if len(instances) < 2:
        return instances
    return sorted(instances, key=_content_key)


def _content_key(instance: "DatabaseInstance") -> tuple:
    data = instance.fact_table()
    return tuple((name, sorted(map(row_sort_key, data[name])))
                 for name in sorted(data))


class DatabaseInstance:
    """An immutable instance: relation name -> frozenset of value tuples.

    The schema is carried along and enforced (arity checks on
    construction).  Relations present in the schema but without tuples are
    empty, not missing.
    """

    __slots__ = ("schema", "_data", "_hash", "_indexes", "_adom")

    def __init__(self, schema: DatabaseSchema,
                 data: Optional[Mapping[str, Iterable[tuple]]] = None
                 ) -> None:
        table: dict[str, frozenset] = {name: frozenset()
                                       for name in schema.names}
        if data:
            for name, rows in data.items():
                if name not in schema:
                    raise InstanceError(
                        f"relation {name!r} not in schema")
                arity = schema.arity(name)
                frozen = frozenset(map(tuple, rows))
                if set(map(len, frozen)) - {arity}:
                    row = next(row for row in frozen if len(row) != arity)
                    raise InstanceError(
                        f"tuple {row} has arity {len(row)}, relation "
                        f"{name!r} expects {arity}")
                table[name] = frozen
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_data", FactTable(table))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_indexes", {})
        object.__setattr__(self, "_adom", None)

    @classmethod
    def _derived(cls, schema: DatabaseSchema,
                 data: Union[FactTable, dict[str, frozenset]],
                 indexes: dict[str, TupleIndex]) -> "DatabaseInstance":
        """Internal constructor for functional updates: rows come from an
        already-validated instance, so arity checks are skipped and the
        (incrementally maintained) indexes are carried over."""
        if not isinstance(data, FactTable):
            data = FactTable(data)
        instance = object.__new__(cls)
        object.__setattr__(instance, "schema", schema)
        object.__setattr__(instance, "_data", data)
        object.__setattr__(instance, "_hash", None)
        object.__setattr__(instance, "_indexes", indexes)
        object.__setattr__(instance, "_adom", None)
        return instance

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DatabaseInstance is immutable")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def tuples(self, relation: str) -> frozenset:
        try:
            return self._data[relation]
        except KeyError:
            raise InstanceError(f"unknown relation {relation!r}") from None

    def __contains__(self, fact: Fact) -> bool:
        rows = self._data.get(fact.relation)
        return rows is not None and fact.values in rows

    def relations(self) -> tuple[str, ...]:
        return tuple(self._data)

    def facts(self) -> set[Fact]:
        """Σ(r): the set of ground atomic facts (Definition 1)."""
        return {Fact(name, row)
                for name, rows in self._data.items() for row in rows}

    def size(self) -> int:
        return self._data.size()

    def is_empty(self) -> bool:
        return self.size() == 0

    def fact_table(self) -> FactTable:
        """The underlying immutable fact storage (shared, never copied)."""
        return self._data

    def fingerprint(self) -> str:
        """The restart-stable content hash of the stored facts.

        Deterministic across processes (unlike ``hash``), cached on the
        shared :class:`~repro.storage.tables.FactTable` — this is the
        version token the storage layer and the peer runtime exchange.
        """
        return self._data.fingerprint()

    def active_domain(self) -> set:
        """All values occurring anywhere in the instance (cached)."""
        cached = self._adom
        if cached is None:
            domain: set = set()
            for rows in self._data.values():
                for row in rows:
                    domain.update(row)
            cached = frozenset(domain)
            object.__setattr__(self, "_adom", cached)
        return set(cached)

    # ------------------------------------------------------------------
    # Index layer
    # ------------------------------------------------------------------
    def index(self, relation: str) -> TupleIndex:
        """The (lazily built, cached) tuple index for one relation."""
        cached = self._indexes.get(relation)
        if cached is None:
            rows = self._data.get(relation)
            if rows is None:
                raise InstanceError(f"unknown relation {relation!r}")
            cached = self._indexes[relation] = TupleIndex(rows)
        return cached

    # ------------------------------------------------------------------
    # Definition 1: distance and order
    # ------------------------------------------------------------------
    def delta(self, other: "DatabaseInstance") -> set[Fact]:
        """Δ(self, other): symmetric difference of fact sets.

        Computed relation by relation: only rows of relations whose
        contents differ become facts.
        """
        ours, theirs = self._data, other._data
        result: set[Fact] = set()
        for name in ours.keys() | theirs.keys():
            rows = ours.get(name, _NO_ROWS)
            other_rows = theirs.get(name, _NO_ROWS)
            if rows is not other_rows:
                result.update(Fact(name, row) for row in rows ^ other_rows)
        return result

    def insertions_from(self, base: "DatabaseInstance") -> set[Fact]:
        """Facts of ``self`` missing from ``base`` (Σ(self) ∖ Σ(base))."""
        return self.facts() - base.facts()

    def deletions_from(self, base: "DatabaseInstance") -> set[Fact]:
        """Facts of ``base`` missing from ``self``."""
        return base.facts() - self.facts()

    @staticmethod
    def closer_or_equal(origin: "DatabaseInstance",
                        first: "DatabaseInstance",
                        second: "DatabaseInstance") -> bool:
        """``first ≤_origin second``: Δ(origin, first) ⊆ Δ(origin, second)."""
        return origin.delta(first) <= origin.delta(second)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def _derive_indexes(self, touched: Mapping[str, frozenset]
                        ) -> dict[str, TupleIndex]:
        """Carry built indexes into a derived instance: untouched
        relations share the index object; touched relations get an
        incrementally updated copy (only if already built)."""
        indexes: dict[str, TupleIndex] = {}
        for name, idx in self._indexes.items():
            new_rows = touched.get(name)
            if new_rows is None:
                indexes[name] = idx
                continue
            clone = idx.copy()
            clone.apply_delta(insertions=new_rows - self._data[name],
                              deletions=self._data[name] - new_rows)
            indexes[name] = clone
        return indexes

    def with_facts(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        """New instance with ``facts`` added."""
        additions: dict[str, set] = {}
        for fact in facts:
            additions.setdefault(fact.relation, set()).add(fact.values)
        if not additions:
            return self
        schema = self.schema
        for name, rows in additions.items():
            if name not in self._data:
                raise InstanceError(f"unknown relation {name!r}")
            arity = schema.arity(name)
            for row in rows:
                if len(row) != arity:
                    raise InstanceError(
                        f"tuple {row} has arity {len(row)}, relation "
                        f"{name!r} expects {arity}")
        touched = {name: self._data[name] | frozenset(rows)
                   for name, rows in additions.items()}
        data = dict(self._data)
        data.update(touched)
        return DatabaseInstance._derived(schema, data,
                                         self._derive_indexes(touched))

    def without_facts(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        """New instance with ``facts`` removed (absent facts are ignored)."""
        removals: dict[str, set] = {}
        for fact in facts:
            removals.setdefault(fact.relation, set()).add(fact.values)
        if not removals:
            return self
        touched = {name: self._data[name] - removals[name]
                   for name in removals if name in self._data}
        data = dict(self._data)
        data.update(touched)
        return DatabaseInstance._derived(self.schema, data,
                                         self._derive_indexes(touched))

    def apply_change(self, insertions: Iterable[Fact],
                     deletions: Iterable[Fact]) -> "DatabaseInstance":
        return self.with_facts(insertions).without_facts(deletions)

    # ------------------------------------------------------------------
    # Restriction and combination (Definition 3)
    # ------------------------------------------------------------------
    def restrict(self, names: Iterable[str]) -> "DatabaseInstance":
        """r|S': restriction to a subschema (Definition 3(c))."""
        names = list(names)
        sub_schema = self.schema.restrict(names)
        data = {name: self._data[name] for name in names}
        indexes = {name: idx for name, idx in self._indexes.items()
                   if name in data}
        return DatabaseInstance._derived(sub_schema, data, indexes)

    def combine(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Union of instances over disjoint schemas (Definition 3(b))."""
        schema = self.schema.disjoint_union(other.schema)
        data = dict(self._data)
        data.update(other._data)
        indexes = dict(self._indexes)
        indexes.update(other._indexes)
        return DatabaseInstance._derived(schema, data, indexes)

    @classmethod
    def gather(cls, sources: Mapping[str, "DatabaseInstance"]
               ) -> "DatabaseInstance":
        """The instance of the named relations, each taken from the
        instance ``sources`` maps it to: the union of their restrictions
        (Definition 3(b) and (c)), sharing rows and built indexes
        instead of checking the rows again."""
        schema = DatabaseSchema(source.schema.relation(name)
                                for name, source in sources.items())
        data = {name: source._data[name] for name, source in sources.items()}
        indexes = {name: source._indexes[name]
                   for name, source in sources.items()
                   if name in source._indexes}
        return cls._derived(schema, data, indexes)

    def replace_relations(self, replacement: Mapping[str, Iterable[tuple]]
                          ) -> "DatabaseInstance":
        """New instance with whole relations swapped out."""
        data = dict(self._data)
        for name, rows in replacement.items():
            if name not in data:
                raise InstanceError(f"unknown relation {name!r}")
            arity = self.schema.arity(name)
            frozen = frozenset(tuple(row) for row in rows)
            for row in frozen:
                if len(row) != arity:
                    raise InstanceError(
                        f"tuple {row} has arity {len(row)}, relation "
                        f"{name!r} expects {arity}")
            data[name] = frozen
        indexes = {name: idx for name, idx in self._indexes.items()
                   if name not in replacement}
        return DatabaseInstance._derived(self.schema, data, indexes)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DatabaseInstance)
                and self.schema == other.schema
                and self._data == other._data)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.schema,
                           frozenset(self._data.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        return f"DatabaseInstance({self.size()} tuples)"

    def __str__(self) -> str:
        parts = []
        for name in sorted(self._data):
            for row in sorted(self._data[name], key=_sort_key):
                parts.append(str(Fact(name, row)))
        return "{" + ", ".join(parts) + "}"

    def sorted_facts(self) -> list[Fact]:
        """All facts in a stable display order."""
        return sorted(self.facts())

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts())
