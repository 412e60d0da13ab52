"""Relevant (intelligent) grounding of safe programs.

Before grounding, the program is split at predicate level.  An objective
key (``p`` or ``-p``) is *deterministic* when nothing it depends on —
itself included — lies on a dependency cycle through negation or occurs
in a head with two or more literals, and its classical complement is
deterministic too.  The rules defining deterministic keys form a
stratified, disjunction-free *bottom* whose heads the rest of the program
never defines, so by the splitting-set theorem (Lifschitz & Turner 1994)
every answer set is the bottom's unique perfect model plus an answer set
of the rest, partially evaluated against that model.

Ground facts are never rules here.  They are *tables*: per objective key
and arity (``p/1`` and ``p/2`` are two predicates), a set of tuples of
raw constant values — the ``facts`` a caller hands over (a
specification's source and domain rows) plus every bodyless ground rule
of the program, lifted into the same tables.  They seed the possible
set, and grounding runs in three passes:

0. **Exact evaluation of the bottom.**  Deterministic strongly connected
   components are evaluated in dependency order, each semi-naively; a NAF
   literal always refers to a completed lower component, so it is checked
   exactly.
1. **Possible set of the rest.**  An over-approximation of the objective
   literals the remaining rules can derive in *any* answer set (ignoring
   NAF over non-deterministic atoms and treating every disjunct of a head
   as derivable), seeded with the tables and the bottom's model.
2. **Instantiation.**  Deterministic relations stay relations: they are
   kept as tables in :attr:`GroundProgram.facts`, true in every answer
   set, and none of their atoms gets an id.  Dense integer atom ids, for
   the solver, go only to the atoms of the rest: the table rows of
   non-deterministic keys (as facts) and the atoms the remaining rules
   mention.  Those rules are instantiated over the possible set so that

   * deterministic positive body literals are dropped (they are true),
   * rules with a NAF literal over a deterministic fact are dropped,
   * NAF literals whose atom is not possible are dropped (they are true),
     and
   * comparisons are evaluated and eliminated.

   A deterministic ``p``/``-p`` pair, like a constraint whose whole body
   is deterministic and true, leaves the empty constraint ``:- .``.

A stratified normal program therefore comes out as tables alone, plus the
empty constraint when it has no answer set; its one answer set is the
tables themselves.

Choice goals must be unfolded (see :mod:`repro.datalog.choice`) before
grounding; the grounder refuses programs that still contain them.

Rule bodies are joined by the same join machinery the relational
planner runs (:mod:`repro.relational.join`): each rule is compiled once
into atom steps over slot environments.  Both fixpoint loops are
semi-naive: each round only re-evaluates rule bodies in ways that touch
at least one atom discovered in the previous round (the round's new rows
replace one body atom's relation at a time).

After solving, :func:`ground_rule_over` instantiates one more positive
rule — a query program's ``ans_query`` rule — over a ground program with
the same join: its deterministic body literals join the tables and add
no id, the others join the atoms with ids.  Answering a query never
grounds the program again.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional

from ..relational.indexes import TupleIndex
from ..relational.join import AtomStep, Scope, picker
from .errors import GroundingError
from .graphs import (
    dependency_edges,
    objective_key,
    strongly_connected_components,
)
from .program import Program, Rule
from .terms import (
    Atom,
    Comparison,
    Constant,
    Literal,
    Term,
    Variable,
    compare_values,
)

__all__ = ["AtomTable", "GroundRule", "GroundProgram", "ground_program",
           "ground_rule_over"]


class AtomTable:
    """Bidirectional map between ground objective literals and dense ids."""

    __slots__ = ("_by_id", "_by_literal")

    def __init__(self) -> None:
        self._by_id: list[Literal] = []
        self._by_literal: dict[Literal, int] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, literal: Literal) -> int:
        """Intern ``literal`` (objective, ground) and return its id."""
        existing = self._by_literal.get(literal)
        if existing is not None:
            return existing
        if literal.naf:
            raise ValueError("atom table holds objective literals only")
        new_id = len(self._by_id)
        self._by_id.append(literal)
        self._by_literal[literal] = new_id
        return new_id

    def id_for(self, literal: Literal) -> Optional[int]:
        return self._by_literal.get(literal)

    def literal_for(self, atom_id: int) -> Literal:
        return self._by_id[atom_id]

    def literals(self) -> tuple[Literal, ...]:
        return tuple(self._by_id)

    def complement_pairs(self) -> list[tuple[int, int]]:
        """Pairs ``(id(p(t)), id(-p(t)))`` present in the table."""
        pairs = []
        for literal, ident in self._by_literal.items():
            if literal.positive:
                continue
            complement = self._by_literal.get(Literal(literal.atom, True))
            if complement is not None:
                pairs.append((complement, ident))
        return pairs


class GroundRule:
    """A ground rule over atom ids.

    ``head`` empty means a denial constraint.  ``pos``/``naf`` are the ids of
    the positive and NAF body literals respectively (comparisons are already
    evaluated away by the grounder).
    """

    __slots__ = ("head", "pos", "naf", "_hash")

    def __init__(self, head: tuple[int, ...], pos: tuple[int, ...],
                 naf: tuple[int, ...]) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "naf", naf)
        object.__setattr__(self, "_hash", hash((head, pos, naf)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GroundRule is immutable")

    def is_constraint(self) -> bool:
        return not self.head

    def is_fact(self) -> bool:
        return len(self.head) == 1 and not self.pos and not self.naf

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroundRule) and self.head == other.head
                and self.pos == other.pos and self.naf == other.naf)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundRule(head={self.head}, pos={self.pos}, naf={self.naf})"


class GroundProgram:
    """A ground program: rules over an :class:`AtomTable`, plus the
    deterministic relations.

    ``facts`` maps an objective key (``"p"`` or ``"-p"``) to a
    deterministic relation: a :class:`~repro.relational.indexes.TupleIndex`
    of tuples of raw constant values, true in every answer set and never
    given an atom id (treat it as read-only).  A key used with two
    arities keeps the rows of both in one relation; :meth:`relation`
    separates them.  ``table`` and ``rules`` are what the solver sees, so
    :attr:`atom_count` counts the atoms with ids only, and
    :attr:`fact_count` the deterministic rows.
    """

    __slots__ = ("table", "rules", "facts", "_fact_literals", "_by_arity")

    def __init__(self, table: AtomTable, rules: list[GroundRule],
                 facts: Optional[Mapping[str, TupleIndex]] = None) -> None:
        self.table = table
        self.rules = rules
        self.facts: dict[str, TupleIndex] = dict(facts or {})
        self._fact_literals: Optional[frozenset[Literal]] = None
        self._by_arity: dict[_Key, TupleIndex] = {}

    def relation(self, key: str, arity: int) -> Optional[TupleIndex]:
        """The deterministic rows of ``key`` with ``arity`` values (``p/1``
        and ``p/2`` are two predicates), or None when ``key`` is not
        deterministic.  Built once per key and arity."""
        found = self._by_arity.get((key, arity))
        rows = self.facts.get(key)
        if found is None and rows is not None:
            found = self._by_arity[key, arity] = (TupleIndex(
                row for row in rows if len(row) == arity)
                if set(map(len, rows.rows)) - {arity} else rows)
        return found

    @property
    def atom_count(self) -> int:
        return len(self.table)

    @property
    def fact_count(self) -> int:
        return sum(map(len, self.facts.values()))

    def fact_literals(self) -> frozenset[Literal]:
        """The deterministic rows as objective literals (built once)."""
        if self._fact_literals is None:
            self._fact_literals = frozenset(
                _key_literal(key, values)
                for key, relation in self.facts.items()
                for values in relation)
        return self._fact_literals

    def model_literals(self, model: Iterable[int]) -> frozenset[Literal]:
        """An answer set given as atom ids, as objective literals: the
        literals of its ids plus every deterministic literal."""
        return self.fact_literals().union(map(self.table.literal_for, model))

    def is_disjunctive(self) -> bool:
        return any(len(r.head) > 1 for r in self.rules)

    def pretty(self) -> str:
        """Human-readable listing (sorted; for debugging and golden tests):
        the deterministic rows as facts, then the rules."""
        lines = [f"{literal}." for literal in self.fact_literals()]
        for rule in self.rules:
            head = " v ".join(str(self.table.literal_for(h))
                              for h in rule.head)
            # sorted: atom ids, and so their order, follow the hash seed
            body_parts = sorted(str(self.table.literal_for(b))
                                for b in rule.pos)
            body_parts += sorted(f"not {self.table.literal_for(b)}"
                                 for b in rule.naf)
            if body_parts and head:
                lines.append(f"{head} :- {', '.join(body_parts)}.")
            elif head:
                lines.append(f"{head}.")
            else:
                lines.append(f":- {', '.join(body_parts)}.")
        return "\n".join(sorted(lines))


# ---------------------------------------------------------------------------
# Possible-set computation and rule instantiation
# ---------------------------------------------------------------------------

#: A relation of the grounder: an objective key and an arity, since
#: ``p/1`` and ``p/2`` are two predicates.
_Key = tuple[str, int]

#: The over-approximation of derivable literals: per relation, a
#: TupleIndex of rows of raw values, the grounder's own.  It grows while
#: grounding (a ``defaultdict``), and ``get`` reads it.
_Possible = dict[_Key, TupleIndex]


def _relation_key(literal: Literal) -> _Key:
    return objective_key(literal), literal.atom.arity


def _key_literal(key: str, values: tuple) -> Literal:
    """The objective literal of an objective key and a row of values."""
    if key.startswith("-"):
        return Literal(Atom(key[1:], values), positive=False)
    return Literal(Atom(key, values))


def _order_positive_body(rule: Rule) -> list[Literal]:
    """Greedy join order: literals sharing variables with earlier ones first."""
    remaining = list(rule.positive_body())
    if len(remaining) <= 1:
        return remaining
    ordered: list[Literal] = []
    bound: set[Variable] = set()
    while remaining:
        def score(lit: Literal) -> tuple[int, int]:
            vars_ = lit.variables()
            return (-len(vars_ & bound), len(vars_ - bound))
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def _equate(comparisons: Iterable[Comparison], scope: Scope
            ) -> tuple[Scope, list[tuple[str, int, int]], list[Comparison]]:
    """Resolve ``comparisons`` against ``scope`` to a fixpoint: an
    equality with one side unbound gives that variable the other side's
    slot (as :meth:`~repro.datalog.program.Rule.safe_variables` binds
    it), one with both sides bound becomes a check ``(op, slot, slot)``.
    Returns the scope, the checks and the comparisons left unbound."""
    slots = dict(scope.slots)
    checks: list[tuple[str, int, int]] = []
    pending = list(comparisons)
    while pending:
        deferred = []
        for comparison in pending:
            left = slots.get(comparison.left)
            right = slots.get(comparison.right)
            if left is not None and right is not None:
                checks.append((comparison.op, left, right))
            elif comparison.op == "=" and left is not None:
                slots[comparison.right] = left
            elif comparison.op == "=" and right is not None:
                slots[comparison.left] = right
            else:
                deferred.append(comparison)
        if len(deferred) == len(pending):
            break
        pending = deferred
    return Scope(slots, scope.width), checks, pending


class _RuleGrounder:
    """One rule compiled onto the shared join.  A substitution is a slot
    environment: the rule's constants, then what its positive body binds
    in join order.  Equalities with a constant seed the join (``X = a``
    gives ``X`` the slot of ``a``), the others are resolved after it, and
    heads and NAF literals are getters over the slots."""

    def __init__(self, rule: Rule) -> None:
        rule.check_safety()
        if rule.choice_goal() is not None:
            raise GroundingError(
                f"choice goal must be unfolded before grounding: {rule}")
        self.rule = rule
        constants = [term for item in (*rule.head, *rule.body)
                     for term in (item.atom.args if isinstance(item, Literal)
                                  else (item.left, item.right))
                     if isinstance(term, Constant)]
        scope = Scope.of_constants(constants)
        self.start = tuple(constant.value for constant in scope.slots)
        scope, self.checks, pending = _equate(rule.comparisons(), scope)
        ordered = _order_positive_body(rule)
        self.body: list[tuple[str, AtomStep]] = []
        for literal in ordered:
            step = AtomStep(literal.atom.args, scope)
            self.body.append((_relation_key(literal), step))
            scope = step.scope
        scope, checks, pending = _equate(pending, scope)
        if pending:
            raise GroundingError(
                f"comparison {pending[0]} not bound in rule {rule}")
        self.checks += checks
        self.scope = scope
        self.heads, self.positive, self.naf_body = (
            [(_relation_key(literal), self.getter(literal.atom.args))
             for literal in literals]
            for literals in (rule.head, ordered, rule.naf_body()))

    def getter(self, terms: Iterable[Term]):
        """The values of ``terms`` out of a substitution, as a tuple."""
        return picker([self.scope.slots[term] for term in terms])

    def blocked(self, env: tuple, possible: _Possible,
                deterministic: set[str]) -> bool:
        """True when a NAF literal's atom is a deterministic fact, so this
        instance can never fire."""
        for key, values in self.naf_body:
            if key[0] in deterministic \
                    and values(env) in possible.get(key, ()):
                return True
        return False

    def substitutions(self, possible: _Possible,
                      delta: Optional[dict[_Key, list[tuple]]] = None
                      ) -> Iterator[tuple]:
        """All substitutions making the positive body hold in ``possible``.

        When ``delta`` is given, only substitutions where at least one body
        literal matches a delta tuple are produced (semi-naive evaluation):
        the delta rows replace the relation at one pivot position at a time.
        """
        pivots = [-1] if delta is None else [
            pivot for pivot, (key, _) in enumerate(self.body) if delta.get(key)]
        return chain.from_iterable(
            self._join(0, self.start, possible, delta, pivot)
            for pivot in pivots)

    def _join(self, position: int, env: tuple, possible: _Possible,
              delta: Optional[dict[_Key, list[tuple]]], pivot: int
              ) -> Iterator[tuple]:
        if position == len(self.body):
            for op, left, right in self.checks:
                if not compare_values(op, env[left], env[right]):
                    return
            yield env
            return
        key, step = self.body[position]
        if position == pivot:
            assert delta is not None
            extensions = step.extend(env, delta[key], probed=False)
        else:
            relation = possible.get(key)
            if relation is None:
                return
            # a snapshot: the fixpoint may derive into this relation
            extensions = step.extend(env, list(step.lookup(relation, env)))
        for extension in extensions:
            yield from self._join(position + 1, extension, possible, delta,
                                  pivot)


def _complement_key(key: str) -> str:
    return key[1:] if key.startswith("-") else f"-{key}"


def _deterministic_components(rules: list[Rule],
                              tables: Iterable[str]) -> list[set[str]]:
    """The deterministic keys of ``rules`` and the fact ``tables``, as
    strongly connected components of their dependency graph in dependency
    order (a component's dependencies come before it).

    A key *branches* when it lies on a cycle through negation or occurs in
    a head with two or more literals (``p(X) v p(Y)`` adds no graph edge,
    so heads are checked directly); so does every key that depends on a
    branching key, and the classical complement of a branching key.  The
    remaining keys are deterministic.
    """
    graph, negative = dependency_edges(rules)
    for key in tables:
        graph.setdefault(key, set())
    components = strongly_connected_components(graph)
    component_of = {key: number for number, component in enumerate(components)
                    for key in component}
    branching = {head for head, body in negative
                 if component_of[head] == component_of[body]}
    for rule in rules:
        if len(rule.head) > 1:
            branching.update(objective_key(literal) for literal in rule.head)
    dependants: dict[str, list[str]] = {}
    for head, bodies in graph.items():
        for body in bodies:
            dependants.setdefault(body, []).append(head)
    pending = list(branching)
    while pending:
        key = pending.pop()
        for other in (*dependants.get(key, ()), _complement_key(key)):
            if other not in branching:
                branching.add(other)
                pending.append(other)
    return [component for component in components
            if not component & branching]


def _check_budget(atoms: int, max_atoms: int) -> None:
    if atoms > max_atoms:
        raise GroundingError(
            f"grounding exceeded {max_atoms} atoms; "
            "the program may be unintentionally large")


def _fixpoint(grounders: list[_RuleGrounder], possible: _Possible,
              deterministic: set[str], atoms: int, max_atoms: int) -> int:
    """Derive the heads of ``grounders`` into ``possible`` semi-naively
    until nothing new appears; returns the updated atom count.

    Instances blocked by a deterministic fact never fire; NAF over other
    atoms is ignored, which over-approximates.
    """
    def fire(grounder: _RuleGrounder, substs: Iterator[tuple],
             new: dict[_Key, list[tuple]]) -> None:
        for subst in substs:
            if grounder.blocked(subst, possible, deterministic):
                continue
            for key, head in grounder.heads:
                values = head(subst)
                if possible[key].add(values):
                    new.setdefault(key, []).append(values)

    # Round 0: every rule evaluated naively (bodyless rules, and rules
    # over the tables and what earlier passes derived).
    delta: dict[_Key, list[tuple]] = {}
    for grounder in grounders:
        fire(grounder, grounder.substitutions(possible), delta)
    recursive = [grounder for grounder in grounders if grounder.body]
    while delta:
        atoms += sum(len(values) for values in delta.values())
        _check_budget(atoms, max_atoms)
        next_delta: dict[_Key, list[tuple]] = {}
        for grounder in recursive:
            fire(grounder, grounder.substitutions(possible, delta),
                 next_delta)
        delta = next_delta
    return atoms


def ground_program(program: Program, *,
                   facts: Optional[Mapping[str, Iterable[tuple]]] = None,
                   max_atoms: int = 2_000_000) -> GroundProgram:
    """Ground ``program`` into a :class:`GroundProgram`.

    ``facts`` maps objective keys (``"p"``, or ``"-p"`` for classically
    negated facts) to rows of raw constant values; they are copied, never
    kept.  The program's own bodyless ground rules join them, and the
    deterministic relations come out in :attr:`GroundProgram.facts`; see
    the module docstring.  Raises :class:`GroundingError` if the program
    contains choice goals, unsafe rules, or exceeds ``max_atoms`` ground
    literals, the facts included.
    """
    if program.has_choice():
        raise GroundingError(
            "program contains choice goals; unfold them first "
            "(repro.datalog.choice.unfold_choice)")
    # The tables seed the possible set, one relation per arity.
    possible: _Possible = defaultdict(TupleIndex)
    for key, rows in (facts or {}).items():
        rows = rows if isinstance(rows, (set, frozenset)) else list(rows)
        arities = set(map(len, rows))
        for arity in arities:
            possible[key, arity] = TupleIndex(rows if len(arities) == 1 else (
                row for row in rows if len(row) == arity))
    rules: list[Rule] = []
    for rule in program:
        if rule.is_fact():
            literal = rule.head[0]
            possible[_relation_key(literal)].add(literal.atom.value_tuple())
        else:
            rules.append(rule)
    atoms = sum(map(len, possible.values()))
    _check_budget(atoms, max_atoms)
    grounders = [_RuleGrounder(rule) for rule in rules]
    components = _deterministic_components(rules,
                                           (key for key, _ in possible))
    deterministic = set().union(*components)
    component_of = {key: number for number, component in enumerate(components)
                    for key in component}
    bottom: list[list[_RuleGrounder]] = [[] for _ in components]
    residual: list[_RuleGrounder] = []
    for grounder in grounders:
        head = grounder.rule.head
        number = component_of.get(objective_key(head[0])) if head else None
        if number is None:
            residual.append(grounder)
        else:
            bottom[number].append(grounder)

    # the table rows of the other keys are facts the solver must see
    table_facts = [(key, list(relation))
                   for key, relation in possible.items()
                   if key[0] not in deterministic]

    # Pass 0: the deterministic part, exactly, one component at a time.
    for component_grounders in bottom:
        atoms = _fixpoint(component_grounders, possible, deterministic,
                          atoms, max_atoms)

    # Pass 1: possible-set fixpoint of the remaining rules.
    _fixpoint([grounder for grounder in residual
               if not grounder.rule.is_constraint()],
              possible, deterministic, atoms, max_atoms)

    # Pass 2: deterministic relations stay relations; the table rows of
    # the other keys become facts, and the remaining rules are
    # instantiated over the final possible set.
    fixed = {key: relation for key, relation in possible.items()
             if key[0] in deterministic}
    table = AtomTable()
    ground_rules: dict[GroundRule, None] = {}
    for (key, arity), relation in fixed.items():
        complement = (fixed.get((key[1:], arity)) if key.startswith("-")
                      else None)
        if complement is not None and not relation.rows.isdisjoint(
                complement.rows):
            ground_rules[GroundRule((), (), ())] = None  # p and -p: no model
            break
    for (key, _), rows in table_facts:
        for values in rows:
            fact = table.add(_key_literal(key, values))
            ground_rules.setdefault(GroundRule((fact,), (), ()))

    def intern(key: _Key, values: tuple) -> int:
        return table.add(_key_literal(key[0], values))

    for grounder in residual:
        residual_pos = [(key, values) for key, values in grounder.positive
                        if key[0] not in deterministic]
        for subst in grounder.substitutions(possible):
            if grounder.blocked(subst, possible, deterministic):
                continue  # `not fact` is false: never fires
            head_ids = [intern(key, head(subst))
                        for key, head in grounder.heads]
            # deterministic positive literals are facts: true, so dropped
            pos_set = {intern(key, values(subst))
                       for key, values in residual_pos}
            naf_ids = set()
            for key, values in grounder.naf_body:
                row = values(subst)
                if row not in possible.get(key, ()):
                    continue  # atom never derivable: `not atom` is true
                naf_ids.add(intern(key, row))
            if pos_set & naf_ids:
                continue  # body requires both a and `not a`: never fires
            if set(head_ids) & pos_set:
                continue  # tautology (h :- h, ...): redundant for stability
            # dedupe head atoms (`a v a` is just `a`), preserving order
            ground_rule = GroundRule(tuple(dict.fromkeys(head_ids)),
                                     tuple(sorted(pos_set)),
                                     tuple(sorted(naf_ids)))
            ground_rules.setdefault(ground_rule)
    merged: dict[str, TupleIndex] = {}  # one relation per key in .facts
    for (key, _), relation in fixed.items():
        merged[key] = (TupleIndex(chain(merged[key], relation))
                       if key in merged else relation)
    ground = GroundProgram(table, list(ground_rules), merged)
    ground._by_arity.update(fixed)
    return ground


def ground_rule_over(rule: Rule, ground: GroundProgram
                     ) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Instances of one positive rule over an already grounded program.

    A body literal over a deterministic relation is matched against that
    relation in :attr:`GroundProgram.facts` and adds no id; any other is
    matched against the literals interned in ``ground.table`` (every
    other literal true in some answer set is there), so the program is
    not ground again.  Returns an iterator over the substitutions
    satisfying the body's comparisons, each as the head's raw values and
    the ids of the ground body literals that have one.  Raises, before
    any iteration, :class:`~repro.datalog.errors.SafetyError` for an
    unsafe rule and :class:`GroundingError` for a rule with NAF or a
    disjunctive head.
    """
    if len(rule.head) != 1 or rule.naf_body():
        raise GroundingError(
            f"only positive single-head rules ground over a table: {rule}")
    rule.check_safety()
    # a literal over the table gets one more argument, bound to the id of
    # the table literal it matches, so no ground literal is looked up again
    possible: _Possible = {}
    tagged_rows: dict[_Key, list[tuple]] = {}
    body: list = []
    tags: list[Variable] = []
    for literal in rule.positive_body():
        key, arity = _relation_key(literal)
        relation = ground.relation(key, arity)
        if relation is not None:
            possible[key, arity] = relation  # read only: never derived
            body.append(literal)
            continue
        tag = Variable(f"#{len(tags)}")
        tags.append(tag)
        body.append(Literal(Atom(literal.predicate,
                                 (*literal.atom.args, tag)),
                            literal.positive))
        tagged_rows[key, arity] = []
    predicates = {key.lstrip("-") for key, _ in tagged_rows}
    for ident, literal in enumerate(ground.table.literals()):
        atom = literal.atom
        if atom.predicate in predicates:
            found = tagged_rows.get(_relation_key(literal))
            if found is not None:
                found.append((*atom.value_tuple(), ident))
    for (key, arity), found in tagged_rows.items():
        possible[key, arity + 1] = TupleIndex(found)
    grounder = _RuleGrounder(Rule(head=rule.head,
                                  body=[*body, *rule.comparisons()]))
    head, ids = grounder.heads[0][1], grounder.getter(tags)
    return ((head(subst), ids(subst))
            for subst in grounder.substitutions(possible))
