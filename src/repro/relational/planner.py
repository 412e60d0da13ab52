"""Index-driven evaluation planner for first-order queries.

The naive evaluator in :mod:`repro.relational.query` enumerates
``product(domain, repeat=k)`` whenever k variables are unbound, which
makes every mechanism built on it — FO rewriting, repair checking, ASP
grounding — exponential in the free-variable count regardless of the
instance's shape.  This module compiles :class:`~repro.relational.query.
Formula`/:class:`~repro.relational.query.Query` objects into executable
plans that are first-order-*cheap*:

* **selection pushdown** — constants and already-bound variables become
  hash-index lookups, never post-hoc filters over full scans;
* **greedy join ordering** — conjunctions are reordered by estimated
  bound-prefix selectivity (relation size over distinct count of the
  best bound column), with fully-bound parts scheduled immediately as
  cheap filters;
* **index-backed atom scans** — each atom is a step of the join shared
  with the Datalog grounder (:mod:`repro.relational.join`);
* **restricted domain enumeration** — ``product(domain, ...)`` survives
  only for *genuinely range-unrestricted* variables (those occurring
  solely under negation, implication, universal quantification, or
  non-equality comparisons), exactly where active-domain semantics
  requires it.

Plans run on *slot environments*: tuples whose positions are fixed at
compile time — the formula's constants, the bound variables by name,
then what each node binds.  A scan binding distinct fresh variables
passes its rows through whole, and deduplication and head projection
read slots by position, so evaluation never hashes a variable.  Each
plan reads its own evaluation domain — the active domain plus its
formula's constants, unless the planner was given one — and builds it
only as far as it reads it: its values for range-unrestricted variables
(in :func:`~repro.relational.query.evaluation_domain` order), its size
for cost estimates, and whether it is empty for the empty-domain ∃
corner.

Semantics are identical to the naive evaluator (active-domain semantics,
including the empty-domain ∃ corner and quantifier shadowing); the
differential suite in ``tests/relational/test_planner_crosscheck.py``
locks the equivalence in over randomized instances and formulas.

Entry points: :class:`QueryPlanner` (reusable across many evaluations of
the same instance; plans are cached per formula and bound-variable set)
and the convenience wrappers :func:`plan_answers`, :func:`plan_holds`,
:func:`plan_bindings`, :func:`explain_plan`.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterator, Optional, Sequence

from ..datalog.terms import Constant, Variable, compare_values
from .errors import QueryError
from .instance import DatabaseInstance
from .join import AtomStep, Scope, picker
from .query import (
    And,
    Cmp,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Query,
    RelAtom,
    _Truth,
    _domain_order,
)

__all__ = ["QueryPlanner", "plan_answers", "plan_holds", "plan_bindings",
           "explain_plan"]

Env = dict

#: cost-model ceiling so estimates never overflow into inf arithmetic.
_COST_CAP = 1e18


def _by_name(variables) -> list[Variable]:
    return sorted(variables, key=lambda v: v.name)


def _some(rows: Iterator) -> bool:
    for _ in rows:
        return True
    return False


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

class PlanNode:
    """One executable operator, compiled against a :class:`Scope`.
    ``run(env)`` yields exactly the satisfying extensions of the slot
    environment ``env``: ``env`` with the values of :attr:`out` — the
    node's free variables the scope leaves unbound — appended in order."""

    __slots__ = ("out",)

    def run(self, env: tuple) -> Iterator[tuple]:
        raise NotImplementedError

    def rows(self, env: tuple) -> Iterator[tuple]:
        """The rows of :meth:`run`, perhaps with repeats: for a consumer
        that deduplicates them itself."""
        return self.run(env)

    def describe(self) -> str:
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        return ()


class ScanAtom(PlanNode):
    """Index-backed scan of one relation atom: constants and bound
    variables probe the hash index; the remaining columns bind (with
    repeated-variable checks).  A scan probing nothing reads the
    instance's rows as they are."""

    __slots__ = ("instance", "atom", "step")

    def __init__(self, instance: DatabaseInstance, atom: RelAtom,
                 scope: Scope) -> None:
        self.instance = instance
        self.atom = atom
        self.step = AtomStep(atom.terms, scope)
        self.out = self.step.fresh

    def run(self, env: tuple) -> Iterator[tuple]:
        step = self.step
        if step.probe:
            rows = step.lookup(self.instance.index(self.atom.relation), env)
        else:
            rows = self.instance.tuples(self.atom.relation)
        return step.extend(env, rows)

    def describe(self) -> str:
        return (f"scan {self.atom} [index on {len(self.step.probe)}/"
                f"{len(self.atom.terms)} columns]")


class FilterPlan(PlanNode):
    """A fully-bound subformula evaluated as a cheap filter."""

    __slots__ = ("formula", "test", "subplans")

    def __init__(self, formula: Formula, test: Callable[[tuple], bool],
                 subplans: tuple[PlanNode, ...] = ()) -> None:
        self.formula = formula
        self.test = test
        self.subplans = subplans
        self.out = ()

    def run(self, env: tuple) -> Iterator[tuple]:
        if self.test(env):
            yield env

    def describe(self) -> str:
        return f"filter {self.formula}"

    def children(self) -> tuple[PlanNode, ...]:
        return self.subplans


class EqBindPlan(PlanNode):
    """``X = t`` with X unbound and t a constant or bound variable:
    binds directly instead of enumerating the domain."""

    __slots__ = ("source", "slot")

    def __init__(self, variable: Variable, source, slot: int) -> None:
        self.out = (variable,)
        self.source = source
        self.slot = slot

    def run(self, env: tuple) -> Iterator[tuple]:
        yield env + (env[self.slot],)

    def describe(self) -> str:
        return f"bind {self.out[0].name} = {self.source}"


class EqPairPlan(PlanNode):
    """``X = Y`` with both unbound: one domain pass, not two."""

    __slots__ = ("plan",)

    def __init__(self, plan: "_Plan", left: Variable,
                 right: Variable) -> None:
        self.plan = plan
        self.out = (left, right)

    def run(self, env: tuple) -> Iterator[tuple]:
        return (env + (value, value) for value in self.plan.domain)

    def describe(self) -> str:
        left, right = self.out
        return f"bind {left.name} = {right.name} over domain"


class EnumCheckPlan(PlanNode):
    """Last resort for range-unrestricted variables: enumerate the
    active domain and check (exactly where the semantics requires it)."""

    __slots__ = ("plan", "formula", "check")

    def __init__(self, plan: "_Plan", formula: Formula,
                 unbound: Sequence[Variable], check: PlanNode) -> None:
        self.plan = plan
        self.formula = formula
        self.out = tuple(unbound)
        self.check = check

    def run(self, env: tuple) -> Iterator[tuple]:
        return (extended for extended in self.plan.completed(
            iter((env,)), len(self.out)) if _some(self.check.run(extended)))

    def describe(self) -> str:
        names = ", ".join(v.name for v in self.out)
        return f"enumerate domain for {{{names}}} check {self.formula}"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.check,)


class AndPlan(PlanNode):
    """Pipelined join over the greedily ordered conjuncts."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[PlanNode]) -> None:
        self.steps = tuple(steps)
        self.out = tuple(v for step in self.steps for v in step.out)

    def run(self, env: tuple) -> Iterator[tuple]:
        steps = self.steps
        last = len(steps) - 1

        def recurse(position: int, current: tuple) -> Iterator[tuple]:
            if position == last:
                yield from steps[position].run(current)
                return
            for extension in steps[position].run(current):
                yield from recurse(position + 1, extension)

        return recurse(0, env)

    def describe(self) -> str:
        return f"join [{len(self.steps)} steps]"

    def children(self) -> tuple[PlanNode, ...]:
        return self.steps


def _distinct(rows: Iterator[tuple], closed: bool) -> Iterator[tuple]:
    """``rows`` without repeats; only the first when ``closed`` (the
    node binds nothing, so every row is the same)."""
    seen: set[tuple] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row
            if closed:
                return


class OrPlan(PlanNode):
    """Deduplicated union; branches binding fewer variables complete
    the missing ones over the domain (active-domain semantics).  One
    getter per branch moves its values into the union's slots."""

    __slots__ = ("plan", "branches")

    def __init__(self, plan: "_Plan", formula: Or, scope: Scope) -> None:
        self.plan = plan
        self.out = tuple(_by_name(formula.free_variables()
                                  - scope.slots.keys()))
        kept = tuple(range(scope.width))
        branches = []
        for part in formula.parts:
            branch = plan._compile(part, scope)
            after = scope.bind(branch.out)
            missing = [v for v in self.out if v not in after.slots]
            after = after.bind(missing)
            pick = picker(kept + tuple(after.slots[v] for v in self.out))
            branches.append((branch, pick, len(missing)))
        self.branches = tuple(branches)

    def rows(self, env: tuple) -> Iterator[tuple]:
        return chain.from_iterable(
            map(pick, self.plan.completed(branch.run(env), missing))
            for branch, pick, missing in self.branches)

    def run(self, env: tuple) -> Iterator[tuple]:
        return _distinct(self.rows(env), not self.out)

    def describe(self) -> str:
        return f"union [{len(self.branches)} branches, deduplicated]"

    def children(self) -> tuple[PlanNode, ...]:
        return tuple(branch for branch, _, _ in self.branches)


class ExistsPlan(PlanNode):
    """Evaluate the body (with shadowing: the quantified variables get
    slots of their own), project them out, deduplicate the
    projections."""

    __slots__ = ("plan", "formula", "subplan", "pick")

    def __init__(self, plan: "_Plan", formula: Exists,
                 scope: Scope) -> None:
        self.plan = plan
        self.formula = formula
        inner = scope.without(formula.variables)
        self.subplan = plan._compile(formula.sub, inner)
        after = inner.bind(self.subplan.out)
        self.out = tuple(_by_name(formula.free_variables()
                                  - scope.slots.keys()))
        self.pick = picker(tuple(range(scope.width))
                           + tuple(after.slots[v] for v in self.out))

    def rows(self, env: tuple) -> Iterator[tuple]:
        if self.plan.domain_is_empty():
            # no witness value exists, even when the body ignores the
            # quantified variables (matches the naive evaluator)
            return iter(())
        return map(self.pick, self.subplan.run(env))

    def run(self, env: tuple) -> Iterator[tuple]:
        return _distinct(self.rows(env), not self.out)

    def describe(self) -> str:
        names = ", ".join(v.name for v in self.formula.variables)
        return f"project out {{{names}}} (exists, deduplicated)"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.subplan,)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

class _Plan:
    """A formula compiled against one instance: the root node, the
    environment it starts from — the formula's constants (in domain
    order), then the bound variables by name — and the evaluation domain
    it reads: the planner's given one, or else the active domain plus
    the formula's constants (what :func:`~repro.relational.query.
    evaluation_domain` returns), built only as far as it is read."""

    __slots__ = ("instance", "constants", "start", "inputs", "root",
                 "scope", "_values", "_empty")

    def __init__(self, instance: DatabaseInstance, formula: Formula,
                 bound: frozenset, domain: Optional[tuple]) -> None:
        self.instance = instance
        self.constants = formula.constants()
        self._values = domain
        self._empty: Optional[bool] = None
        self.start = _domain_order(self.constants)
        self.inputs = tuple(_by_name(bound))
        scope = Scope.of_constants(map(Constant, self.start)).bind(
            self.inputs)
        self.root = self._compile(formula, scope)
        self.scope = scope.bind(self.root.out)

    def run(self, env: Env, *, distinct: bool = True) -> Iterator[tuple]:
        """The root's rows from ``env``; with repeats allowed when not
        ``distinct`` and the root binds something (a root binding
        nothing still stops at its first row)."""
        run = self.root.run if distinct or not self.root.out \
            else self.root.rows
        return run(self.start + tuple(env[v] for v in self.inputs))

    # ------------------------------------------------------------------
    # The evaluation domain, as far as it is read
    # ------------------------------------------------------------------
    @property
    def domain(self) -> tuple:
        """The domain's values, in evaluation order."""
        if self._values is None:
            self._values = _domain_order(self.instance.active_domain()
                                         | self.constants)
        return self._values

    def domain_is_empty(self) -> bool:
        if self._empty is None:  # no constant, and no row with a value
            self._empty = (not self.constants and not any(
                map(any, self.instance.fact_table().values()))
                if self._values is None else not self._values)
        return self._empty

    def completed(self, rows: Iterator[tuple], missing: int
                  ) -> Iterator[tuple]:
        """Each row extended by every combination of ``missing`` domain
        values (the rows themselves when nothing is missing)."""
        if not missing:
            return rows
        domain = self.domain
        return (row + combo for row in rows
                for combo in product(domain, repeat=missing))

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, formula: Formula, scope: Scope) -> PlanNode:
        if isinstance(formula, RelAtom):
            return ScanAtom(self.instance, formula, scope)
        if isinstance(formula, And):
            return self._compile_and(formula, scope)
        if isinstance(formula, Or):
            return OrPlan(self, formula, scope)
        if isinstance(formula, Exists):
            return ExistsPlan(self, formula, scope)
        if not isinstance(formula, (_Truth, Cmp, Not, Implies, Forall)):
            raise QueryError(f"cannot plan {formula!r}")
        unbound = _by_name(formula.free_variables() - scope.slots.keys())
        if not unbound:
            return FilterPlan(formula, *self._test(formula, scope))
        if isinstance(formula, Cmp) and formula.op == "=":
            slots = scope.slots
            left, right = formula.comparison.left, formula.comparison.right
            for variable, source in ((left, right), (right, left)):
                if variable in unbound and source in slots:
                    return EqBindPlan(variable, source, slots[source])
            if left in unbound and right in unbound and left != right:
                return EqPairPlan(self, left, right)
        return EnumCheckPlan(self, formula, unbound,
                             self._compile(formula, scope.bind(unbound)))

    def _test(self, formula: Formula, scope: Scope) -> tuple:
        """A fully bound formula as a truth test on environments, and
        the plans the test runs."""
        if isinstance(formula, _Truth):
            value = formula.value
            return (lambda env: value),
        if isinstance(formula, Cmp):
            op = formula.op
            left = scope.slots[formula.comparison.left]
            right = scope.slots[formula.comparison.right]
            return (lambda env: compare_values(op, env[left], env[right])),
        if isinstance(formula, Implies):
            premise = self._compile(formula.premise, scope)
            conclusion = self._compile(formula.conclusion, scope)
            return (lambda env: not _some(premise.run(env))
                    or _some(conclusion.run(env))), (premise, conclusion)
        if isinstance(formula, Forall):
            # ∀x̄ φ as ¬∃x̄ ¬φ, a guarded ∀x̄ (ψ → χ) as ¬∃x̄ (ψ ∧ ¬χ): the
            # guard ψ is an index-backed scan, and only quantified
            # variables outside it are enumerated over the domain
            sub = formula.sub
            formula = Exists(formula.variables,
                             And(sub.premise, Not(sub.conclusion))
                             if isinstance(sub, Implies) else Not(sub))
        else:
            formula = formula.sub
        sub = self._compile(formula, scope)
        return (lambda env: not _some(sub.run(env))), (sub,)

    def _compile_and(self, formula: And, scope: Scope) -> PlanNode:
        remaining = list(formula.parts)
        steps: list[PlanNode] = []
        while remaining:
            bound = scope.slots.keys()
            chosen = next((part for part in remaining  # filters first
                           if part.free_variables() <= bound), None)
            if chosen is None:  # cheapest binder next
                chosen = min(remaining, key=lambda part: self.estimate(
                    part, set(bound)))
            remaining.remove(chosen)
            steps.append(self._compile(chosen, scope))
            scope = scope.bind(steps[-1].out)
        return steps[0] if len(steps) == 1 else AndPlan(steps)

    # ------------------------------------------------------------------
    # Cost model (bound-prefix selectivity, uniformity assumption)
    # ------------------------------------------------------------------
    def estimate(self, formula: Formula, bound: set) -> float:
        """Rough output-cardinality estimate driving the join order."""
        if isinstance(formula, _Truth):
            return 1.0
        if isinstance(formula, RelAtom):
            index = self.instance.index(formula.relation)
            positions = [position
                         for position, term in enumerate(formula.terms)
                         if isinstance(term, Constant) or term in bound]
            return index.estimate(positions)
        if isinstance(formula, And):
            total = 1.0
            bound_now = set(bound)
            for part in formula.parts:
                total *= max(1.0, self.estimate(part, bound_now))
                bound_now |= part.free_variables()
                if total > _COST_CAP:
                    return _COST_CAP
            return total
        if isinstance(formula, Or):
            free = formula.free_variables()
            total = 0.0
            for part in formula.parts:
                missing = (free - part.free_variables()) - bound
                branch = self.estimate(part, bound)
                if missing:
                    branch *= float(len(self.domain)) ** len(missing)
                total += branch
                if total > _COST_CAP:
                    return _COST_CAP
            return total
        if isinstance(formula, Exists):
            return self.estimate(formula.sub,
                                 bound - set(formula.variables))
        # Cmp / Not / Implies / Forall: checkers over their unbound variables
        unbound = formula.free_variables() - bound
        if not unbound:
            return 1.0
        if isinstance(formula, Cmp) and formula.op == "=":
            # at least one side bindable or a single domain pass
            return float(len(self.domain))
        return min(float(len(self.domain)) ** len(unbound), _COST_CAP)


class QueryPlanner:
    """Compiles formulas into index-backed plans over one instance.

    Reuse one planner for many evaluations against the same instance:
    compiled plans are cached per ``(formula, bound-variable set)``, and
    every atom scan shares the instance's lazily-built hash indexes.

    ``domain`` is the evaluation domain; it must cover every constant of
    every formula handed to this planner (see
    :func:`repro.relational.query.evaluation_domain`).  Left ``None``,
    each plan reads that of the instance and its own formula, built only
    as far as the plan reads it (see the module docstring).
    """

    __slots__ = ("instance", "domain", "_plans")

    def __init__(self, instance: DatabaseInstance,
                 domain: Optional[tuple] = None) -> None:
        self.instance = instance
        self.domain = None if domain is None else tuple(domain)
        self._plans: dict[tuple[Formula, frozenset], _Plan] = {}

    def plan(self, formula: Formula, bound: frozenset = frozenset()
             ) -> _Plan:
        key = (formula, bound)
        cached = self._plans.get(key)
        if cached is None:
            cached = self._plans[key] = _Plan(self.instance, formula, bound,
                                              self.domain)
        return cached

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def bindings(self, formula: Formula, env: Env) -> Iterator[Env]:
        """Exactly the satisfying extensions of ``env`` binding all free
        variables of ``formula`` (no duplicates, no partials)."""
        plan = self.plan(formula, frozenset(env))
        fresh = plan.root.out
        first = plan.scope.width - len(fresh)
        return ({**env, **dict(zip(fresh, extension[first:]))}
                for extension in plan.run(env))

    def holds(self, formula: Formula, env: Env) -> bool:
        """Truth of ``formula`` under ``env`` (must bind all free
        variables)."""
        plan = self.plan(formula, frozenset(env))
        if plan.root.out:
            names = ", ".join(v.name for v in plan.root.out)
            raise QueryError(f"unbound variables {{{names}}} during "
                             f"evaluation")
        return _some(plan.run(env))

    def answers(self, query: Query) -> set[tuple]:
        """All answer tuples of ``query`` (active-domain semantics)."""
        plan = self.plan(query.formula)
        extra = [v for v in query.head if v not in plan.scope.slots]
        slots = plan.scope.bind(extra).slots
        # the set below deduplicates, so the root streams its rows as
        # they come (nested unions and projections still deduplicate)
        rows = plan.completed(plan.run({}, distinct=False), len(extra))
        return set(map(picker([slots[v] for v in query.head]), rows))

    def explain(self, formula: Formula,
                bound: frozenset = frozenset()) -> str:
        """Human-readable plan tree (for debugging and tests)."""
        lines: list[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children():
                walk(child, depth + 1)

        walk(self.plan(formula, bound).root, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------

def plan_answers(query: Query, instance: DatabaseInstance,
                 domain: Optional[tuple] = None) -> set[tuple]:
    """Indexed-planner equivalent of :meth:`Query.answers`."""
    return QueryPlanner(instance, domain).answers(query)


def plan_holds(formula: Formula, instance: DatabaseInstance, env: Env,
               domain: Optional[tuple] = None) -> bool:
    """Indexed-planner equivalent of :func:`repro.relational.query.holds`."""
    return QueryPlanner(instance, domain).holds(formula, env)


def plan_bindings(formula: Formula, instance: DatabaseInstance, env: Env,
                  domain: Optional[tuple] = None) -> Iterator[Env]:
    """Indexed-planner equivalent of
    :func:`repro.relational.query.bindings` — but exact: complete,
    duplicate-free satisfying extensions."""
    return QueryPlanner(instance, domain).bindings(formula, env)


def explain_plan(query: Query, instance: DatabaseInstance,
                 domain: Optional[tuple] = None) -> str:
    """The compiled plan for ``query`` as an indented tree."""
    return QueryPlanner(instance, domain).explain(query.formula)
