"""The shared hash-index layer behind indexed query evaluation.

Every evaluation mechanism in the reproduction needs the same primitive:
*given some bound columns, which tuples of a relation agree with them?*
One module asks it: the shared join (:mod:`repro.relational.join`),
whose atom steps probe these indexes for the FO planner's scans
(:mod:`repro.relational.planner`, and through it constraint checking in
:mod:`repro.relational.constraints`) and for the ASP grounder's rule
bodies (:mod:`repro.datalog.grounding`).  Answering it by scanning the
whole relation (or worse, by enumerating ``product(domain, repeat=k)``)
makes first-order evaluation exponential in the number of unbound
variables regardless of instance shape.

:class:`TupleIndex` provides the primitive: a mutable set of equal-arity
tuples with per-column hash indexes that are

* **lazy** — a column index is built on first use and cached;
* **incremental** — :meth:`add` and :meth:`discard` update every built
  column index in O(built columns), so derived instances and the
  grounder's growing possible-set never rebuild from scratch;
* **exact** — :meth:`matching` filters on *all* bound columns (probing
  the smallest bucket first), so callers get precisely the agreeing
  tuples and need no re-verification pass.

The index is value-agnostic: rows are tuples of hashable keys.  Both the
relational layer and the Datalog grounder store raw Python scalars.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

__all__ = ["TupleIndex"]

_EMPTY: frozenset = frozenset()


class TupleIndex:
    """A set of equal-arity tuples with lazy per-column hash indexes."""

    __slots__ = ("rows", "_by_column")

    def __init__(self, rows: Iterable[tuple] = ()) -> None:
        self.rows: set[tuple] = set(rows)
        # column position -> {value: set of rows with that value there}
        self._by_column: dict[int, dict[object, set[tuple]]] = {}

    # ------------------------------------------------------------------
    # Set protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: tuple) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (f"TupleIndex({len(self.rows)} rows, "
                f"{sorted(self._by_column)} indexed)")

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add(self, row: tuple) -> bool:
        """Insert ``row``; update every built column index.  Returns
        whether the row was new."""
        if row in self.rows:
            return False
        self.rows.add(row)
        for position, column in self._by_column.items():
            column.setdefault(row[position], set()).add(row)
        return True

    def discard(self, row: tuple) -> bool:
        """Remove ``row`` if present; update every built column index."""
        if row not in self.rows:
            return False
        self.rows.remove(row)
        for position, column in self._by_column.items():
            bucket = column.get(row[position])
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del column[row[position]]
        return True

    def apply_delta(self, insertions: Iterable[tuple] = (),
                    deletions: Iterable[tuple] = ()) -> None:
        """Replay a batch of row changes through the incremental path.

        Deletions run first (delta replay may delete and re-insert the
        same row; the net effect must be presence), and every built
        column index is maintained row by row — this is the primitive
        the storage layer leans on when a reloaded peer replays its
        delta log instead of rebuilding indexes from scratch.
        """
        for row in deletions:
            self.discard(row)
        for row in insertions:
            self.add(row)

    def copy(self) -> "TupleIndex":
        """Independent copy carrying the already-built column indexes
        (buckets are copied, so the clones diverge safely)."""
        clone = TupleIndex.__new__(TupleIndex)
        clone.rows = set(self.rows)
        clone._by_column = {
            position: {value: set(bucket)
                       for value, bucket in column.items()}
            for position, column in self._by_column.items()}
        return clone

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def column(self, position: int) -> dict[object, set[tuple]]:
        """The hash index for one column (built on first use)."""
        built = self._by_column.get(position)
        if built is None:
            built = {}
            for row in self.rows:
                built.setdefault(row[position], set()).add(row)
            self._by_column[position] = built
        return built

    def distinct_count(self, position: int) -> int:
        """Number of distinct values in one column."""
        return len(self.column(position))

    def estimate(self, positions: Iterable[int]) -> float:
        """Estimated number of rows matching a lookup that binds the
        given columns (uniformity assumption; used for join ordering)."""
        size = len(self.rows)
        if not size:
            return 0.0
        best = float(size)
        for position in positions:
            distinct = self.distinct_count(position)
            if distinct:
                best = min(best, size / distinct)
        return best

    def matching(self, bound: Mapping[int, object]) -> list[tuple]:
        """Exactly the rows agreeing with every ``position: value`` pair.

        Probes the bound column with the smallest bucket and filters the
        remaining bound columns inline.  Returns a snapshot list, so
        callers may mutate the index mid-iteration (the grounder derives
        into the relation it is scanning).
        """
        if not bound:
            return list(self.rows)
        best_bucket: Optional[set] = None
        for position, value in bound.items():
            bucket = self.column(position).get(value, _EMPTY)
            if not bucket:
                return []
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_bucket = bucket
        assert best_bucket is not None
        if len(bound) == 1:
            return list(best_bucket)
        return [row for row in best_bucket
                if all(row[position] == value
                       for position, value in bound.items())]
