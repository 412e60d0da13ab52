"""Database repairs (Definition 1) with fixed predicates.

A *repair* of an instance ``r`` w.r.t. a set of integrity constraints is a
consistent instance ``r'`` that is ≤_r-minimal, i.e. whose symmetric
difference Δ(r, r') is subset-minimal (Arenas, Bertossi & Chomicki [1],
quoted as Definition 1 in the paper).

This engine generalises the classical notion with the two knobs the P2P
semantics needs (Definition 4):

* **changeable relations** — facts of other relations are *fixed*: they can
  neither be deleted nor inserted (the more-trusted peer's data, and the
  data of peers not mentioned in the DECs);
* **insertions** — TGD violations can be fixed either by deleting an
  antecedent fact or by inserting consequent facts for some existential
  witness (rule (9) of the paper); EGD and denial violations admit only
  deletions (no attribute updates, matching the paper's tuple-based Δ).

The search branches over the fixes of one violation at a time, never
un-does its own changes (a minimal repair never inserts and deletes the
same fact), and finally keeps the Δ-minimal consistent outcomes.  It is
exponential in the worst case — consistent query answering is Π^p_2-hard,
as Section 3.2 of the paper recalls — so use it as the *reference*
semantics; the ASP translation scales better.

Completeness caveat: existential witnesses are drawn from the (finite)
active domain.  For the paper's DEC class — witnesses guarded by a fixed
relation, as in rule (9) — this is exact.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..relational.constraints import (
    Constraint,
    DenialConstraint,
    EqualityGeneratingConstraint,
    TupleGeneratingConstraint,
    Violation,
)
from ..relational.instance import DatabaseInstance, Fact

__all__ = ["RepairProblem", "RepairResult", "repairs", "is_repair"]


class RepairProblem:
    """A repair task: instance + constraints + which relations may change.

    Parameters:
        instance: the (possibly inconsistent) database.
        constraints: the ICs to restore.
        changeable: relations whose facts may be inserted/deleted
            (default: all relations of the instance).
        witness_domain: value pool for unguarded existential witnesses
            (default: the instance's active domain).
        max_changes: hard bound on |Δ| per branch (safety valve).
    """

    def __init__(self, instance: DatabaseInstance,
                 constraints: Sequence[Constraint],
                 changeable: Optional[Iterable[str]] = None,
                 witness_domain: Optional[Sequence[object]] = None,
                 max_changes: int = 64) -> None:
        self.instance = instance
        self.constraints = tuple(constraints)
        if changeable is None:
            self.changeable = frozenset(instance.relations())
        else:
            self.changeable = frozenset(changeable)
        self.witness_domain = tuple(witness_domain) \
            if witness_domain is not None else None
        self.max_changes = max_changes


class RepairResult:
    """All repairs plus bookkeeping for tests and benchmarks."""

    def __init__(self, repairs: list[DatabaseInstance],
                 explored_states: int, candidates: int) -> None:
        self.repairs = repairs
        self.explored_states = explored_states
        self.candidates = candidates

    def __iter__(self):
        return iter(self.repairs)

    def __len__(self) -> int:
        return len(self.repairs)


def _first_violation(instance: DatabaseInstance,
                     constraints: Sequence[Constraint]
                     ) -> Optional[Violation]:
    for constraint in constraints:
        found = constraint.violations(instance)
        if found:
            return min(found, key=lambda v: (v.constraint.name,
                                             v.antecedent_facts))
    return None


def _fix_options(problem: RepairProblem, instance: DatabaseInstance,
                 violation: Violation, inserted: frozenset[Fact],
                 deleted: frozenset[Fact]
                 ) -> list[tuple[tuple[Fact, ...], tuple[Fact, ...]]]:
    """Possible fixes as (insertions, deletions) pairs, deterministic."""
    options: list[tuple[tuple[Fact, ...], tuple[Fact, ...]]] = []
    constraint = violation.constraint
    # deletion fixes: any changeable antecedent fact not inserted by us
    for fact in violation.antecedent_facts:
        if fact.relation in problem.changeable and fact not in inserted:
            options.append(((), (fact,)))
    # insertion fixes: TGD witness options
    if isinstance(constraint, TupleGeneratingConstraint):
        for _tau, inserts in constraint.witness_options(
                instance, violation.assignment,
                insertable=set(problem.changeable),
                witness_domain=problem.witness_domain):
            if not inserts:
                continue
            if any(fact in deleted for fact in inserts):
                continue
            options.append((inserts, ()))
    return options


def repairs(problem: RepairProblem, *,
            max_repairs: Optional[int] = None) -> RepairResult:
    """All ≤_r-minimal repairs of ``problem.instance``.

    Returns an empty result when no consistent instance is reachable under
    the changeable-relation restrictions (the P2P layer maps this to "the
    peer has no solutions").
    """
    original = problem.instance
    seen_states: set[tuple[frozenset[Fact], frozenset[Fact]]] = set()
    candidates: dict[DatabaseInstance, set[Fact]] = {}
    explored = 0

    stack: list[tuple[DatabaseInstance, frozenset[Fact], frozenset[Fact]]]
    stack = [(original, frozenset(), frozenset())]
    while stack:
        instance, inserted, deleted = stack.pop()
        state = (inserted, deleted)
        if state in seen_states:
            continue
        seen_states.add(state)
        explored += 1
        violation = _first_violation(instance, problem.constraints)
        if violation is None:
            candidates.setdefault(instance, set(inserted | deleted))
            continue
        if len(inserted) + len(deleted) >= problem.max_changes:
            continue  # pruned: this branch cannot fix within budget
        for ins, dels in _fix_options(problem, instance, violation,
                                      inserted, deleted):
            new_instance = instance.apply_change(ins, dels)
            stack.append((new_instance,
                          inserted | frozenset(ins),
                          deleted | frozenset(dels)))

    # Keep Δ-minimal candidates only.
    minimal: list[DatabaseInstance] = []
    deltas = {inst: inst.delta(original) for inst in candidates}
    for inst, delta in deltas.items():
        if any(other_delta < delta
               for other, other_delta in deltas.items() if other != inst):
            continue
        minimal.append(inst)
    minimal.sort(key=lambda i: (len(deltas[i]), str(i)))
    if max_repairs is not None:
        minimal = minimal[:max_repairs]
    return RepairResult(minimal, explored, len(candidates))


def is_repair(original: DatabaseInstance, candidate: DatabaseInstance,
              constraints: Sequence[Constraint],
              changeable: Optional[Iterable[str]] = None) -> bool:
    """Exact check of the repair conditions for ``candidate``:

    consistency, fixed relations untouched — minimality is NOT checked here
    (use :func:`repairs` or compare Δs); this is the building block the
    property tests compose.
    """
    if changeable is not None:
        fixed = set(original.relations()) - set(changeable)
        for relation in fixed:
            if original.tuples(relation) != candidate.tuples(relation):
                return False
    return all(c.holds_in(candidate) for c in constraints)
