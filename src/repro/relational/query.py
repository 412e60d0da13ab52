"""First-order queries over relational instances.

The paper poses first-order queries ``Q(x̄) ∈ L(P)`` to a peer (Definition
5) and rewrites them into richer first-order formulas — Example 2 produces::

    Q'': [R1(x,y) ∧ ∀z1(R3(x,z1) ∧ ¬∃z2 R2(x,z2) → z1 = y)] ∨ R2(x,y)

so the query language here supports the full FO repertoire: relation atoms,
comparisons, ∧, ∨, ¬, →, ∃, ∀.  Evaluation uses the standard *active
domain* semantics (quantifiers range over the values occurring in the
instance plus the constants of the query).

Two evaluators share these semantics:

* ``evaluator="planner"`` (the default) — the indexed evaluation planner
  of :mod:`repro.relational.planner`: formulas are compiled into plans
  with selection pushdown, greedy join ordering by bound-prefix
  selectivity, and hash-index-backed atom scans; the active domain is
  enumerated only for genuinely range-unrestricted variables.

* ``evaluator="naive"`` — the evaluator defined in this module, kept as
  the reference the crosscheck suites compare the planner against (no
  session, node or server selects it): a candidate-generation pass
  (`bindings`) drives answer enumeration through relation atoms wherever
  possible, and every candidate is re-verified with the direct recursive
  truth test (`holds`), so the optimiser can be aggressive without
  risking soundness.  Guarded universals ``∀z (Atom ∧ ... → ...)`` are
  evaluated by enumerating the guard's matches rather than the whole
  domain; everything else unbound falls back to
  ``product(domain, repeat=k)``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..datalog.terms import Comparison, Constant, Term, Variable
from .errors import QueryError
from .instance import DatabaseInstance

__all__ = [
    "Formula",
    "RelAtom",
    "Cmp",
    "And",
    "Or",
    "Not",
    "Implies",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
    "Query",
    "evaluation_domain",
]

Env = dict[Variable, object]


class Formula:
    """Abstract base of first-order formulas."""

    __slots__ = ()

    def free_variables(self) -> set[Variable]:
        raise NotImplementedError

    def constants(self) -> set:
        raise NotImplementedError

    def relations(self) -> set[str]:
        raise NotImplementedError

    # boolean-operator sugar
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


def _coerce_term(term: object) -> Term:
    if isinstance(term, Term):
        return term
    return Constant(term)


class RelAtom(Formula):
    """A relation atom ``R(t1, ..., tn)``."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: Iterable[object]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms",
                           tuple(_coerce_term(t) for t in terms))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RelAtom is immutable")

    def free_variables(self) -> set[Variable]:
        return {t for t in self.terms if isinstance(t, Variable)}

    def constants(self) -> set:
        return {t.value for t in self.terms if isinstance(t, Constant)}

    def relations(self) -> set[str]:
        return {self.relation}

    def __eq__(self, other) -> bool:
        return (isinstance(other, RelAtom)
                and self.relation == other.relation
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.relation, self.terms))

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


class Cmp(Formula):
    """A comparison ``t1 op t2`` (op in =, !=, <, <=, >, >=)."""

    __slots__ = ("comparison",)

    def __init__(self, op: str, left: object, right: object) -> None:
        object.__setattr__(self, "comparison",
                           Comparison(op, _coerce_term(left),
                                      _coerce_term(right)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cmp is immutable")

    @property
    def op(self) -> str:
        return self.comparison.op

    def free_variables(self) -> set[Variable]:
        return self.comparison.variables()

    def constants(self) -> set:
        result = set()
        for side in (self.comparison.left, self.comparison.right):
            if isinstance(side, Constant):
                result.add(side.value)
        return result

    def relations(self) -> set[str]:
        return set()

    def __eq__(self, other) -> bool:
        return isinstance(other, Cmp) and self.comparison == other.comparison

    def __hash__(self) -> int:
        return hash(("cmp", self.comparison))

    def __str__(self) -> str:
        return str(self.comparison)


class _Junction(Formula):
    __slots__ = ("parts",)
    _symbol = "?"

    def __init__(self, *parts: Formula) -> None:
        flattened: list[Formula] = []
        for part in parts:
            if not isinstance(part, Formula):
                raise QueryError(f"expected Formula, got {part!r}")
            if type(part) is type(self):
                flattened.extend(part.parts)  # type: ignore[attr-defined]
            else:
                flattened.append(part)
        if not flattened:
            raise QueryError("empty junction")
        object.__setattr__(self, "parts", tuple(flattened))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("junctions are immutable")

    def free_variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for part in self.parts:
            result |= part.free_variables()
        return result

    def constants(self) -> set:
        result: set = set()
        for part in self.parts:
            result |= part.constants()
        return result

    def relations(self) -> set[str]:
        result: set[str] = set()
        for part in self.parts:
            result |= part.relations()
        return result

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.parts))

    def __str__(self) -> str:
        return "(" + f" {self._symbol} ".join(str(p) for p in self.parts) \
            + ")"


class And(_Junction):
    """Conjunction (n-ary, flattened)."""
    __slots__ = ()
    _symbol = "&"


class Or(_Junction):
    """Disjunction (n-ary, flattened)."""
    __slots__ = ()
    _symbol = "|"


class Not(Formula):
    """Negation."""

    __slots__ = ("sub",)

    def __init__(self, sub: Formula) -> None:
        object.__setattr__(self, "sub", sub)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Not is immutable")

    def free_variables(self) -> set[Variable]:
        return self.sub.free_variables()

    def constants(self) -> set:
        return self.sub.constants()

    def relations(self) -> set[str]:
        return self.sub.relations()

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and self.sub == other.sub

    def __hash__(self) -> int:
        return hash(("not", self.sub))

    def __str__(self) -> str:
        return f"~{self.sub}"


class Implies(Formula):
    """Implication ``premise -> conclusion``."""

    __slots__ = ("premise", "conclusion")

    def __init__(self, premise: Formula, conclusion: Formula) -> None:
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "conclusion", conclusion)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Implies is immutable")

    def free_variables(self) -> set[Variable]:
        return self.premise.free_variables() | \
            self.conclusion.free_variables()

    def constants(self) -> set:
        return self.premise.constants() | self.conclusion.constants()

    def relations(self) -> set[str]:
        return self.premise.relations() | self.conclusion.relations()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Implies)
                and self.premise == other.premise
                and self.conclusion == other.conclusion)

    def __hash__(self) -> int:
        return hash(("implies", self.premise, self.conclusion))

    def __str__(self) -> str:
        return f"({self.premise} -> {self.conclusion})"


class _Quantifier(Formula):
    __slots__ = ("variables", "sub")
    _symbol = "?"

    def __init__(self, variables: Union[Variable, Sequence[Variable]],
                 sub: Formula) -> None:
        if isinstance(variables, Variable):
            variables = (variables,)
        variables = tuple(variables)
        if not variables:
            raise QueryError("quantifier needs at least one variable")
        for v in variables:
            if not isinstance(v, Variable):
                raise QueryError(f"quantifier over non-variable {v!r}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "sub", sub)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("quantifiers are immutable")

    def free_variables(self) -> set[Variable]:
        return self.sub.free_variables() - set(self.variables)

    def constants(self) -> set:
        return self.sub.constants()

    def relations(self) -> set[str]:
        return self.sub.relations()

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.variables == other.variables
                and self.sub == other.sub)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.variables, self.sub))

    def __str__(self) -> str:
        names = " ".join(v.name for v in self.variables)
        return f"{self._symbol}{names} {self.sub}"


class Exists(_Quantifier):
    """Existential quantification."""
    __slots__ = ()
    _symbol = "exists "


class Forall(_Quantifier):
    """Universal quantification."""
    __slots__ = ()
    _symbol = "forall "


class _Truth(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("immutable")

    def free_variables(self) -> set[Variable]:
        return set()

    def constants(self) -> set:
        return set()

    def relations(self) -> set[str]:
        return set()

    def __eq__(self, other) -> bool:
        return isinstance(other, _Truth) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("truth", self.value))

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = _Truth(True)
FALSE = _Truth(False)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluation_domain(instance: DatabaseInstance,
                      formula: Formula) -> tuple:
    """Active domain: instance values plus the formula's constants."""
    return _domain_order(instance.active_domain() | formula.constants())


def _domain_order(values) -> tuple:
    """Domain values in evaluation order: ints first, then by text."""
    return tuple(sorted(values, key=lambda v: (isinstance(v, str), str(v))))


def _term_value(term: Term, env: Env):
    if isinstance(term, Constant):
        return term.value
    value = env.get(term)
    if value is None and term not in env:
        raise QueryError(f"unbound variable {term} during evaluation")
    return value


def holds(formula: Formula, instance: DatabaseInstance, env: Env,
          domain: tuple) -> bool:
    """Truth of ``formula`` under ``env`` (must bind all free variables)."""
    if isinstance(formula, _Truth):
        return formula.value
    if isinstance(formula, RelAtom):
        row = tuple(_term_value(t, env) for t in formula.terms)
        return row in instance.tuples(formula.relation)
    if isinstance(formula, Cmp):
        comparison = formula.comparison
        left = _term_value(comparison.left, env)
        right = _term_value(comparison.right, env)
        return Comparison(comparison.op, Constant(left),
                          Constant(right)).evaluate()
    if isinstance(formula, And):
        return all(holds(p, instance, env, domain) for p in formula.parts)
    if isinstance(formula, Or):
        return any(holds(p, instance, env, domain) for p in formula.parts)
    if isinstance(formula, Not):
        return not holds(formula.sub, instance, env, domain)
    if isinstance(formula, Implies):
        return (not holds(formula.premise, instance, env, domain)
                or holds(formula.conclusion, instance, env, domain))
    if isinstance(formula, Exists):
        if formula.variables and not domain:
            # empty active domain: no witness value exists, even when the
            # body ignores the quantified variables (bindings() would
            # otherwise certify a closed body without picking a witness)
            return False
        inner_env = {k: v for k, v in env.items()
                     if k not in formula.variables}  # shadowing
        return any(True for _ in bindings(formula.sub, instance, inner_env,
                                          domain))
    if isinstance(formula, Forall):
        return _forall_holds(formula, instance, env, domain)
    raise QueryError(f"cannot evaluate {formula!r}")


def _forall_holds(formula: Forall, instance: DatabaseInstance, env: Env,
                  domain: tuple) -> bool:
    """∀x̄ φ.  For the guarded shape ∀x̄ (ψ → χ) enumerate ψ's matches;
    otherwise enumerate the domain."""
    sub = formula.sub
    outer_env = {k: v for k, v in env.items()
                 if k not in formula.variables}  # shadowing
    if isinstance(sub, Implies):
        for candidate in bindings(sub.premise, instance, dict(outer_env),
                                  domain):
            full = dict(outer_env)
            full.update(candidate)
            # complete any still-unbound quantified variables over domain
            missing = [v for v in formula.variables if v not in full]
            for combo in product(domain, repeat=len(missing)):
                inner = dict(full)
                inner.update(zip(missing, combo))
                if holds(sub.premise, instance, inner, domain) and \
                        not holds(sub.conclusion, instance, inner, domain):
                    return False
        return True
    for combo in product(domain, repeat=len(formula.variables)):
        inner = dict(outer_env)
        inner.update(zip(formula.variables, combo))
        if not holds(sub, instance, inner, domain):
            return False
    return True


def bindings(formula: Formula, instance: DatabaseInstance, env: Env,
             domain: tuple) -> Iterator[Env]:
    """Generate (a superset of) the environments extending ``env`` that make
    ``formula`` true; every yielded environment is verified, so the stream
    contains exactly the satisfying extensions, possibly with duplicates
    and possibly *partial* for disjunctions whose branches bind fewer
    variables (callers complete and re-verify — see :meth:`Query.answers`).
    """
    if isinstance(formula, _Truth):
        if formula.value:
            yield dict(env)
        return
    if isinstance(formula, RelAtom):
        yield from _atom_bindings(formula, instance, env)
        return
    if isinstance(formula, Cmp):
        yield from _cmp_bindings(formula, instance, env, domain)
        return
    if isinstance(formula, And):
        yield from _and_bindings(list(formula.parts), instance, env, domain)
        return
    if isinstance(formula, Or):
        for part in formula.parts:
            yield from bindings(part, instance, env, domain)
        return
    if isinstance(formula, Exists):
        shadowed = {v: env[v] for v in formula.variables if v in env}
        inner_env = {k: v for k, v in env.items()
                     if k not in formula.variables}
        for result in bindings(formula.sub, instance, inner_env, domain):
            projected = {k: v for k, v in result.items()
                         if k not in formula.variables}
            projected.update(shadowed)
            yield projected
        return
    # checkers: Not / Implies / Forall — enumerate any unbound free vars.
    free = formula.free_variables()
    unbound = sorted((v for v in free if v not in env),
                     key=lambda v: v.name)
    for combo in product(domain, repeat=len(unbound)):
        candidate = dict(env)
        candidate.update(zip(unbound, combo))
        if holds(formula, instance, candidate, domain):
            yield candidate


def _atom_bindings(atom: RelAtom, instance: DatabaseInstance,
                   env: Env) -> Iterator[Env]:
    terms = atom.terms
    for row in instance.tuples(atom.relation):
        candidate: Optional[Env] = None
        ok = True
        for term, value in zip(terms, row):
            if isinstance(term, Constant):
                if term.value != value:
                    ok = False
                    break
            else:
                bound = (candidate or env).get(term, _MISSING)
                if bound is _MISSING:
                    if candidate is None:
                        candidate = dict(env)
                    candidate[term] = value
                elif bound != value:
                    ok = False
                    break
        if ok:
            yield candidate if candidate is not None else dict(env)


_MISSING = object()


def _cmp_bindings(formula: Cmp, instance: DatabaseInstance, env: Env,
                  domain: tuple) -> Iterator[Env]:
    comparison = formula.comparison
    left, right = comparison.left, comparison.right
    # `X = c` / `c = X` with X unbound binds directly.
    if comparison.op == "=":
        if isinstance(left, Variable) and left not in env:
            if isinstance(right, Constant) or right in env:
                candidate = dict(env)
                candidate[left] = _term_value(right, env)
                yield candidate
                return
        if isinstance(right, Variable) and right not in env:
            if isinstance(left, Constant) or left in env:
                candidate = dict(env)
                candidate[right] = _term_value(left, env)
                yield candidate
                return
    unbound = sorted({v for v in formula.free_variables() if v not in env},
                     key=lambda v: v.name)
    for combo in product(domain, repeat=len(unbound)):
        candidate = dict(env)
        candidate.update(zip(unbound, combo))
        if holds(formula, instance, candidate, domain):
            yield candidate


def _and_bindings(parts: list[Formula], instance: DatabaseInstance,
                  env: Env, domain: tuple) -> Iterator[Env]:
    """Greedy scheduling: fully-bound checkers first (cheap filters), then
    binders (atoms before quantified/disjunctive parts), domain enumeration
    as a last resort."""
    if not parts:
        yield dict(env)
        return
    bound_vars = set(env)
    checker_types = (Not, Implies, Forall, Cmp, _Truth)

    def fully_bound(f: Formula) -> bool:
        return f.free_variables() <= bound_vars

    chosen_index = None
    for index, part in enumerate(parts):
        if isinstance(part, checker_types) and fully_bound(part):
            chosen_index = index
            break
    if chosen_index is None:
        for index, part in enumerate(parts):
            if isinstance(part, RelAtom):
                chosen_index = index
                break
    if chosen_index is None:
        for index, part in enumerate(parts):
            if isinstance(part, (And, Or, Exists)):
                chosen_index = index
                break
    if chosen_index is None:
        chosen_index = 0
    part = parts[chosen_index]
    rest = parts[:chosen_index] + parts[chosen_index + 1:]
    if isinstance(part, checker_types) and fully_bound(part):
        if holds(part, instance, env, domain):
            yield from _and_bindings(rest, instance, env, domain)
        return
    for candidate in bindings(part, instance, env, domain):
        yield from _and_bindings(rest, instance, candidate, domain)


class Query:
    """A named FO query ``name(x̄) := formula`` with answer variables x̄.

    Answers are the tuples ``t̄`` over the evaluation domain for which the
    formula holds with ``x̄ := t̄`` (Definition 5 evaluates such queries
    against each solution's restriction to the peer).
    """

    __slots__ = ("name", "head", "formula")

    def __init__(self, name: str, head: Sequence[Variable],
                 formula: Formula) -> None:
        head = tuple(head)
        for v in head:
            if not isinstance(v, Variable):
                raise QueryError(f"answer terms must be variables: {v!r}")
        if len(set(head)) != len(head):
            raise QueryError("repeated answer variable")
        extra = formula.free_variables() - set(head)
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise QueryError(
                f"free variables {{{names}}} not among answer variables; "
                f"quantify them explicitly")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "formula", formula)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Query is immutable")

    @property
    def arity(self) -> int:
        return len(self.head)

    def relations(self) -> set[str]:
        return self.formula.relations()

    def answers(self, instance: DatabaseInstance,
                domain: Optional[tuple] = None, *,
                evaluator: str = "planner") -> set[tuple]:
        """All answer tuples over ``instance`` (active-domain semantics).

        ``evaluator`` selects the engine: ``"planner"`` (default)
        compiles the formula into an index-backed plan; ``"naive"``
        keeps the candidate-generation + re-verification evaluator of
        this module (the differential-testing reference).
        """
        if evaluator == "planner":
            from .planner import QueryPlanner
            return QueryPlanner(instance, domain).answers(self)
        if evaluator != "naive":
            raise QueryError(
                f"unknown evaluator {evaluator!r}; "
                f"choose 'planner' or 'naive'")
        if domain is None:
            domain = evaluation_domain(instance, self.formula)
        results: set[tuple] = set()
        seen_envs: set[tuple] = set()
        for candidate in bindings(self.formula, instance, {}, domain):
            unbound = [v for v in self.head if v not in candidate]
            base = tuple(candidate.get(v, _MISSING) for v in self.head)
            # deduplicate *all* candidate environments, including the
            # partial ones disjunction branches binding fewer variables
            # produce: the completion below depends only on ``base``, so
            # a repeat can never contribute new rows — it only re-runs
            # the |domain|^unbound product and its ``holds`` checks.
            if base in seen_envs:
                continue
            seen_envs.add(base)
            for combo in product(domain, repeat=len(unbound)):
                env = dict(candidate)
                env.update(zip(unbound, combo))
                row = tuple(env[v] for v in self.head)
                if row in results:
                    continue
                if holds(self.formula, instance, env, domain):
                    results.add(row)
        return results

    def is_true(self, instance: DatabaseInstance, *,
                evaluator: str = "planner") -> bool:
        """Boolean query evaluation (arity 0)."""
        if self.head:
            raise QueryError("is_true applies to boolean queries only")
        if evaluator == "planner":
            from .planner import QueryPlanner
            return QueryPlanner(instance).holds(self.formula, {})
        if evaluator != "naive":
            raise QueryError(
                f"unknown evaluator {evaluator!r}; "
                f"choose 'planner' or 'naive'")
        return holds(self.formula, instance, {},
                     evaluation_domain(instance, self.formula))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Query) and self.name == other.name
                and self.head == other.head
                and self.formula == other.formula)

    def __hash__(self) -> int:
        return hash((self.name, self.head, self.formula))

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        return f"{self.name}({head}) := {self.formula}"
