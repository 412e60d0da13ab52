"""Integrity and data-exchange constraints.

The paper's constraints all fall into three classical families:

* **Tuple-generating constraints** (TGDs) — the referential exchange
  constraints of Section 3, form (2)/(3)::

      ∀x̄ ∃ȳ (RQ(x̄) ∧ ... → RP(z̄, ȳ) ∧ ...)

  with arbitrary mixes of the two peers' relations on both sides, built-in
  conditions, and existential variables in the consequent
  (:class:`TupleGeneratingConstraint`; :class:`InclusionDependency` is the
  ``ȳ = ∅`` convenience case, like Σ(P1,P2) of Example 1).

* **Equality-generating constraints** (EGDs) — e.g. Σ(P1,P3) of Example 1,
  ``∀xyz (R1(x,y) ∧ R3(x,z) → y = z)``, and local functional dependencies
  (:class:`EqualityGeneratingConstraint`, :class:`FunctionalDependency`,
  :class:`KeyConstraint`).

* **Denial constraints** — ``← body`` program constraints used for local
  ICs in Section 3.2 (:class:`DenialConstraint`).

Each constraint can check satisfaction, enumerate ground *violations*, and
(for TGDs) enumerate *witness options*: the possible existential-variable
bindings together with the facts that would have to be inserted — exactly
the information the repair engine (and the ASP program builders) need to
implement rules (6)–(9) of the paper.

Checking goes through the indexed evaluation planner by default
(antecedent matching and witness search become selectivity-ordered index
joins), and every layer above ``relational`` uses it.  The checking
methods also take ``evaluator="naive"``, the reference active-domain
evaluator; the crosscheck suites assert both give identical verdicts.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from ..datalog.terms import Comparison, Constant, Term, Variable
from .errors import ConstraintError
from .instance import DatabaseInstance, Fact
from .planner import QueryPlanner
from .query import (
    And,
    Cmp,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    RelAtom,
    TRUE,
    bindings,
    evaluation_domain,
    holds,
)

__all__ = [
    "Violation",
    "Constraint",
    "TupleGeneratingConstraint",
    "InclusionDependency",
    "EqualityGeneratingConstraint",
    "FunctionalDependency",
    "KeyConstraint",
    "DenialConstraint",
]


class Violation:
    """One ground violation of a constraint.

    ``assignment`` binds the constraint's universal variables;
    ``antecedent_facts`` are the matched ground facts (the candidates for
    deletion-based repairs).
    """

    __slots__ = ("constraint", "assignment", "antecedent_facts", "_hash")

    def __init__(self, constraint: "Constraint",
                 assignment: dict[Variable, object],
                 antecedent_facts: tuple[Fact, ...]) -> None:
        items = tuple(sorted(((v.name, value) for v, value
                              in assignment.items())))
        object.__setattr__(self, "constraint", constraint)
        object.__setattr__(self, "assignment", dict(assignment))
        object.__setattr__(self, "antecedent_facts",
                           tuple(sorted(antecedent_facts)))
        object.__setattr__(self, "_hash",
                           hash((id(constraint), items,
                                 self.antecedent_facts)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Violation is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Violation)
                and self.constraint is other.constraint
                and self.antecedent_facts == other.antecedent_facts
                and self.assignment == other.assignment)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        facts = ", ".join(str(f) for f in self.antecedent_facts)
        return f"Violation({self.constraint.name}: {facts})"


def _coerce_atoms(atoms: Iterable[object]) -> tuple[RelAtom, ...]:
    out = []
    for atom in atoms:
        if not isinstance(atom, RelAtom):
            raise ConstraintError(f"expected RelAtom, got {atom!r}")
        out.append(atom)
    return tuple(out)


def _coerce_conditions(conditions: Iterable[object]) -> tuple[Cmp, ...]:
    out = []
    for condition in conditions:
        if isinstance(condition, Cmp):
            out.append(condition)
        elif isinstance(condition, Comparison):
            out.append(Cmp(condition.op, condition.left, condition.right))
        else:
            raise ConstraintError(
                f"expected comparison condition, got {condition!r}")
    return tuple(out)


class Constraint:
    """Abstract base: a named, first-order expressible constraint.

    Checking methods accept ``evaluator="planner"`` (default, indexed)
    or ``evaluator="naive"`` (reference active-domain evaluation).
    """

    name: str

    def holds_in(self, instance: DatabaseInstance, *,
                 evaluator: str = "planner") -> bool:
        raise NotImplementedError

    def violations(self, instance: DatabaseInstance, *,
                   evaluator: str = "planner") -> list[Violation]:
        raise NotImplementedError

    def relations(self) -> set[str]:
        raise NotImplementedError

    def to_formula(self) -> Formula:
        """The constraint as a closed FO sentence (for cross-validation)."""
        raise NotImplementedError


def _antecedent_formula(atoms: Sequence[RelAtom],
                        conditions: Sequence[Cmp]) -> Formula:
    parts: list[Formula] = list(atoms) + list(conditions)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _formula_bindings(formula: Formula, instance: DatabaseInstance,
                      env: dict[Variable, object], evaluator: str,
                      planners: Optional[dict] = None
                      ) -> Iterator[dict[Variable, object]]:
    """Satisfying extensions of ``env`` via the selected evaluator.

    ``planners`` is an optional per-call cache mapping formulas to
    :class:`QueryPlanner` instances, so repeated checks of the same
    formula against the same instance (the ``holds_for`` loop inside
    ``violations``) reuse compiled plans and indexes.
    """
    if evaluator == "naive":
        domain = evaluation_domain(instance, formula)
        return bindings(formula, instance, env, domain)
    if evaluator != "planner":
        raise ConstraintError(
            f"unknown evaluator {evaluator!r}; choose 'planner' or 'naive'")
    planner = None if planners is None else planners.get(formula)
    if planner is None:
        planner = QueryPlanner(instance,
                               evaluation_domain(instance, formula))
        if planners is not None:
            planners[formula] = planner
    return planner.bindings(formula, env)


def _antecedent_matches(instance: DatabaseInstance,
                        atoms: Sequence[RelAtom],
                        conditions: Sequence[Cmp],
                        evaluator: str = "planner",
                        planners: Optional[dict] = None
                        ) -> Iterator[dict[Variable, object]]:
    formula = _antecedent_formula(atoms, conditions)
    seen: set[tuple] = set()
    variables = sorted(formula.free_variables(), key=lambda v: v.name)
    for env in _formula_bindings(formula, instance, {}, evaluator,
                                 planners):
        key = tuple(env.get(v) for v in variables)
        if key in seen:
            continue
        seen.add(key)
        yield env


def _ground_fact(atom: RelAtom, env: dict[Variable, object]) -> Fact:
    values = []
    for term in atom.terms:
        if isinstance(term, Constant):
            values.append(term.value)
        else:
            assert isinstance(term, Variable)
            if term not in env:
                raise ConstraintError(
                    f"variable {term} of {atom} unbound; constraint unsafe")
            values.append(env[term])
    return Fact(atom.relation, values)


class TupleGeneratingConstraint(Constraint):
    """``∀x̄ (antecedent ∧ conditions → ∃ȳ consequent ∧ cons_conditions)``.

    Universal variables x̄ are those of the antecedent; every consequent
    variable not among them is existential.  Safety requires every
    condition/consequent-universal variable to appear in the antecedent.
    """

    def __init__(self, antecedent: Iterable[object],
                 consequent: Iterable[object],
                 conditions: Iterable[object] = (),
                 cons_conditions: Iterable[object] = (),
                 name: Optional[str] = None) -> None:
        self.antecedent = _coerce_atoms(antecedent)
        self.consequent = _coerce_atoms(consequent)
        self.conditions = _coerce_conditions(conditions)
        self.cons_conditions = _coerce_conditions(cons_conditions)
        if not self.antecedent:
            raise ConstraintError("TGD needs a non-empty antecedent")
        if not self.consequent:
            raise ConstraintError("TGD needs a non-empty consequent")
        self.universal_vars = frozenset().union(
            *(a.free_variables() for a in self.antecedent))
        for condition in self.conditions:
            if not condition.free_variables() <= self.universal_vars:
                raise ConstraintError(
                    f"condition {condition} uses non-antecedent variables")
        consequent_vars = frozenset().union(
            *(a.free_variables() for a in self.consequent))
        self.existential_vars = frozenset(
            consequent_vars - self.universal_vars)
        for condition in self.cons_conditions:
            allowed = self.universal_vars | self.existential_vars
            if not condition.free_variables() <= allowed:
                raise ConstraintError(
                    f"consequent condition {condition} uses unknown "
                    f"variables")
        self.name = name or f"tgd_{id(self):x}"

    # ------------------------------------------------------------------
    def relations(self) -> set[str]:
        return ({a.relation for a in self.antecedent}
                | {a.relation for a in self.consequent})

    def antecedent_relations(self) -> set[str]:
        return {a.relation for a in self.antecedent}

    def consequent_relations(self) -> set[str]:
        return {a.relation for a in self.consequent}

    def is_full(self) -> bool:
        """True when there are no existential variables (full TGD)."""
        return not self.existential_vars

    # ------------------------------------------------------------------
    def witnesses(self, instance: DatabaseInstance,
                  assignment: dict[Variable, object], *,
                  evaluator: str = "planner",
                  _planners: Optional[dict] = None
                  ) -> Iterator[dict[Variable, object]]:
        """Existential bindings making the consequent hold in ``instance``."""
        env = {v: assignment[v] for v in self.universal_vars
               if v in assignment}
        formula = _antecedent_formula(self.consequent,
                                      self.cons_conditions)
        for match in _formula_bindings(formula, instance, env, evaluator,
                                       _planners):
            yield {v: match[v] for v in self.existential_vars if v in match}

    def holds_for(self, instance: DatabaseInstance,
                  assignment: dict[Variable, object], *,
                  evaluator: str = "planner",
                  _planners: Optional[dict] = None) -> bool:
        """Does this antecedent match have a consequent witness?"""
        found = self.witnesses(instance, assignment, evaluator=evaluator,
                               _planners=_planners)
        return next(iter(found), None) is not None

    def witness_options(self, instance: DatabaseInstance,
                        assignment: dict[Variable, object],
                        insertable: set[str],
                        witness_domain: Optional[Iterable[object]] = None,
                        *, evaluator: str = "planner"
                        ) -> Iterator[tuple[dict, tuple[Fact, ...]]]:
        """All ways to *make* the consequent hold by inserting facts.

        Consequent atoms over non-``insertable`` relations must already
        match the instance (they constrain the existential variables, like
        ``S2(z, w)`` in rule (9)); atoms over insertable relations are
        inserted when missing.  Yields ``(tau, facts_to_insert)`` pairs.
        Existential variables not constrained by any fixed atom range over
        ``witness_domain`` (default: the instance's active domain plus the
        constraint's constants).
        """
        env = {v: assignment[v] for v in self.universal_vars
               if v in assignment}
        fixed_atoms = [a for a in self.consequent
                       if a.relation not in insertable]
        flex_atoms = [a for a in self.consequent
                      if a.relation in insertable]
        fixed_formula = _antecedent_formula(fixed_atoms, ())
        domain = evaluation_domain(instance, fixed_formula)
        seen: set[tuple] = set()
        exist_order = sorted(self.existential_vars, key=lambda v: v.name)
        for partial in _formula_bindings(fixed_formula, instance,
                                         dict(env), evaluator):
            unbound = [v for v in exist_order if v not in partial]
            if unbound:
                if witness_domain is None:
                    pool: tuple = tuple(sorted(
                        instance.active_domain()
                        | set().union(*(a.constants()
                                        for a in self.consequent)),
                        key=lambda v: (isinstance(v, str), str(v))))
                else:
                    pool = tuple(witness_domain)
                combos = product(pool, repeat=len(unbound))
            else:
                combos = iter([()])
            for combo in combos:
                tau_env = dict(partial)
                tau_env.update(zip(unbound, combo))
                tau = {v: tau_env[v] for v in exist_order}
                key = tuple(tau[v] for v in exist_order)
                if key in seen:
                    continue
                ok = True
                for condition in self.cons_conditions:
                    full = dict(env)
                    full.update(tau_env)
                    if not holds(condition, instance, full, domain):
                        ok = False
                        break
                if not ok:
                    continue
                seen.add(key)
                inserts = []
                full = dict(env)
                full.update(tau_env)
                for atom in flex_atoms:
                    fact = _ground_fact(atom, full)
                    if fact not in instance:
                        inserts.append(fact)
                yield tau, tuple(sorted(inserts))

    # ------------------------------------------------------------------
    def holds_in(self, instance: DatabaseInstance, *,
                 evaluator: str = "planner") -> bool:
        return not self.violations(instance, evaluator=evaluator)

    def violations(self, instance: DatabaseInstance, *,
                   evaluator: str = "planner") -> list[Violation]:
        found = []
        # one planner cache per call: the consequent formula's compiled
        # plan and indexes are reused across every antecedent match
        planners: dict = {}
        for env in _antecedent_matches(instance, self.antecedent,
                                       self.conditions, evaluator,
                                       planners):
            if not self.holds_for(instance, env, evaluator=evaluator,
                                  _planners=planners):
                facts = tuple(_ground_fact(a, env) for a in self.antecedent)
                universal_env = {v: env[v] for v in self.universal_vars}
                found.append(Violation(self, universal_env, facts))
        return found

    def to_formula(self) -> Formula:
        antecedent = _antecedent_formula(self.antecedent, self.conditions)
        consequent = _antecedent_formula(self.consequent,
                                         self.cons_conditions)
        if self.existential_vars:
            consequent = Exists(sorted(self.existential_vars,
                                       key=lambda v: v.name), consequent)
        implication = Implies(antecedent, consequent)
        if self.universal_vars:
            return Forall(sorted(self.universal_vars,
                                 key=lambda v: v.name), implication)
        return implication

    def __str__(self) -> str:
        return f"{self.name}: {self.to_formula()}"

    def __repr__(self) -> str:
        return f"TupleGeneratingConstraint({self.name!r})"


class InclusionDependency(TupleGeneratingConstraint):
    """``R[i1..ik] ⊆ S[j1..jk]`` — full when the positions cover S.

    ``InclusionDependency("R2", "R1")`` is the full inclusion Σ(P1,P2) of
    Example 1: every R2-tuple must appear in R1.  Position lists select
    columns; uncovered columns of ``parent`` become existential variables.
    """

    def __init__(self, child: str, parent: str,
                 child_positions: Optional[Sequence[int]] = None,
                 parent_positions: Optional[Sequence[int]] = None,
                 child_arity: Optional[int] = None,
                 parent_arity: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        if child_positions is None or parent_positions is None:
            if child_arity is None or parent_arity is None:
                if child_arity is None and parent_arity is None:
                    raise ConstraintError(
                        "give either positions or arities for an inclusion "
                        "dependency")
            child_arity = child_arity if child_arity is not None \
                else parent_arity
            parent_arity = parent_arity if parent_arity is not None \
                else child_arity
            assert child_arity is not None and parent_arity is not None
            if child_positions is None:
                child_positions = tuple(range(child_arity))
            if parent_positions is None:
                parent_positions = tuple(range(parent_arity))
        child_positions = tuple(child_positions)
        parent_positions = tuple(parent_positions)
        if len(child_positions) != len(parent_positions):
            raise ConstraintError(
                "inclusion dependency position lists differ in length")
        if child_arity is None:
            child_arity = max(child_positions) + 1
        if parent_arity is None:
            parent_arity = max(parent_positions) + 1
        child_vars = [Variable(f"X{i}") for i in range(child_arity)]
        parent_vars: list[Term] = [Variable(f"Y{i}")
                                   for i in range(parent_arity)]
        for c_pos, p_pos in zip(child_positions, parent_positions):
            parent_vars[p_pos] = child_vars[c_pos]
        super().__init__(
            antecedent=[RelAtom(child, child_vars)],
            consequent=[RelAtom(parent, parent_vars)],
            name=name or f"ind_{child}_in_{parent}")
        self.child = child
        self.parent = parent
        self.child_positions = child_positions
        self.parent_positions = parent_positions


class EqualityGeneratingConstraint(Constraint):
    """``∀x̄ (antecedent ∧ conditions → t1 = t1' ∧ ... ∧ tk = tk')``.

    Violations are antecedent matches where some equality fails; the only
    tuple-based repairs are deletions of antecedent facts (the paper never
    updates attribute values in place).
    """

    def __init__(self, antecedent: Iterable[object],
                 equalities: Iterable[tuple[object, object]],
                 conditions: Iterable[object] = (),
                 name: Optional[str] = None) -> None:
        self.antecedent = _coerce_atoms(antecedent)
        if not self.antecedent:
            raise ConstraintError("EGD needs a non-empty antecedent")
        self.conditions = _coerce_conditions(conditions)
        pairs = []
        for left, right in equalities:
            pairs.append((left if isinstance(left, Term)
                          else Constant(left),
                          right if isinstance(right, Term)
                          else Constant(right)))
        if not pairs:
            raise ConstraintError("EGD needs at least one equality")
        self.equalities = tuple(pairs)
        self.universal_vars = frozenset().union(
            *(a.free_variables() for a in self.antecedent))
        for left, right in self.equalities:
            for side in (left, right):
                if isinstance(side, Variable) \
                        and side not in self.universal_vars:
                    raise ConstraintError(
                        f"equality variable {side} not in antecedent")
        self.name = name or f"egd_{id(self):x}"

    def relations(self) -> set[str]:
        return {a.relation for a in self.antecedent}

    def _equalities_hold(self, env: dict[Variable, object]) -> bool:
        for left, right in self.equalities:
            lv = left.value if isinstance(left, Constant) else env[left]
            rv = right.value if isinstance(right, Constant) else env[right]
            if lv != rv:
                return False
        return True

    def holds_in(self, instance: DatabaseInstance, *,
                 evaluator: str = "planner") -> bool:
        return not self.violations(instance, evaluator=evaluator)

    def violations(self, instance: DatabaseInstance, *,
                   evaluator: str = "planner") -> list[Violation]:
        found = []
        for env in _antecedent_matches(instance, self.antecedent,
                                       self.conditions, evaluator):
            if not self._equalities_hold(env):
                facts = tuple(_ground_fact(a, env) for a in self.antecedent)
                universal_env = {v: env[v] for v in self.universal_vars}
                found.append(Violation(self, universal_env, facts))
        return found

    def to_formula(self) -> Formula:
        antecedent = _antecedent_formula(self.antecedent, self.conditions)
        eq_parts: list[Formula] = [Cmp("=", left, right)
                                   for left, right in self.equalities]
        conclusion = eq_parts[0] if len(eq_parts) == 1 else And(*eq_parts)
        implication = Implies(antecedent, conclusion)
        if self.universal_vars:
            return Forall(sorted(self.universal_vars,
                                 key=lambda v: v.name), implication)
        return implication

    def __str__(self) -> str:
        return f"{self.name}: {self.to_formula()}"

    def __repr__(self) -> str:
        return f"EqualityGeneratingConstraint({self.name!r})"


class FunctionalDependency(EqualityGeneratingConstraint):
    """``relation: lhs_positions -> rhs_positions``.

    ``FunctionalDependency("R1", [0], [1], arity=2)`` is the local FD of
    Section 3.2: ``∀xyz (R1(x,y) ∧ R1(x,z) → y = z)``.
    """

    def __init__(self, relation: str, lhs: Sequence[int],
                 rhs: Sequence[int], arity: int,
                 name: Optional[str] = None) -> None:
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not rhs:
            raise ConstraintError("FD needs at least one determined column")
        if set(lhs) & set(rhs):
            raise ConstraintError("FD lhs and rhs overlap")
        for position in (*lhs, *rhs):
            if not 0 <= position < arity:
                raise ConstraintError(
                    f"position {position} out of range for arity {arity}")
        first: list[Term] = [Variable(f"X{i}") for i in range(arity)]
        second: list[Term] = [Variable(f"Y{i}") for i in range(arity)]
        for position in lhs:
            second[position] = first[position]
        equalities = [(first[p], second[p]) for p in rhs]
        super().__init__(
            antecedent=[RelAtom(relation, first),
                        RelAtom(relation, second)],
            equalities=equalities,
            name=name or f"fd_{relation}_{''.join(map(str, lhs))}_to_"
                         f"{''.join(map(str, rhs))}")
        self.relation_name = relation
        self.lhs = lhs
        self.rhs = rhs
        self.arity = arity


class KeyConstraint(FunctionalDependency):
    """Key: the given positions determine all the others."""

    def __init__(self, relation: str, key_positions: Sequence[int],
                 arity: int, name: Optional[str] = None) -> None:
        key_positions = tuple(key_positions)
        rest = tuple(i for i in range(arity) if i not in key_positions)
        if not rest:
            raise ConstraintError(
                "key covers every column; the constraint is vacuous")
        super().__init__(relation, key_positions, rest, arity,
                         name=name or f"key_{relation}")
        self.key_positions = key_positions


class DenialConstraint(Constraint):
    """``← antecedent ∧ conditions`` — the body must never match."""

    def __init__(self, antecedent: Iterable[object],
                 conditions: Iterable[object] = (),
                 name: Optional[str] = None) -> None:
        self.antecedent = _coerce_atoms(antecedent)
        if not self.antecedent:
            raise ConstraintError("denial needs a non-empty antecedent")
        self.conditions = _coerce_conditions(conditions)
        self.universal_vars = frozenset().union(
            *(a.free_variables() for a in self.antecedent))
        for condition in self.conditions:
            if not condition.free_variables() <= self.universal_vars:
                raise ConstraintError(
                    f"condition {condition} uses non-antecedent variables")
        self.name = name or f"denial_{id(self):x}"

    def relations(self) -> set[str]:
        return {a.relation for a in self.antecedent}

    def holds_in(self, instance: DatabaseInstance, *,
                 evaluator: str = "planner") -> bool:
        return not self.violations(instance, evaluator=evaluator)

    def violations(self, instance: DatabaseInstance, *,
                   evaluator: str = "planner") -> list[Violation]:
        found = []
        for env in _antecedent_matches(instance, self.antecedent,
                                       self.conditions, evaluator):
            facts = tuple(_ground_fact(a, env) for a in self.antecedent)
            universal_env = {v: env[v] for v in self.universal_vars}
            found.append(Violation(self, universal_env, facts))
        return found

    def to_formula(self) -> Formula:
        antecedent = _antecedent_formula(self.antecedent, self.conditions)
        negated = Not(antecedent)
        if self.universal_vars:
            return Forall(sorted(self.universal_vars,
                                 key=lambda v: v.name), negated)
        return negated

    def __str__(self) -> str:
        return f"{self.name}: {self.to_formula()}"

    def __repr__(self) -> str:
        return f"DenialConstraint({self.name!r})"
