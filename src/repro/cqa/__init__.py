"""Database repairs over single databases — the [1]/[8] baseline.

The paper builds its peer-to-peer semantics on the repair framework of
Arenas, Bertossi & Chomicki: Definition 1 (repairs as ≤_r-minimal
consistent instances) is quoted verbatim.  This package provides
:func:`repairs` — repair enumeration with *fixed predicates* and
insertion-based fixes for referential constraints (the generalisation
Definition 4 needs).
"""

from .repairs import RepairProblem, RepairResult, is_repair, repairs

__all__ = ["RepairProblem", "RepairResult", "repairs", "is_repair"]
