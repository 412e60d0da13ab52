"""The specification core shared by ``asp``, ``lav`` and ``transitive``.

A peer's solutions are the stable models of a specification program: the
GAV program of Section 3.1, the LAV three-layer program of Section 4.2 and
the Appendix, and the combined program of Section 4.3.  Peer consistent
answers are the skeptical answers of a query program over those models
(Section 3.2).  :class:`Specification` owns the steps the three share —
build the program from the subclass's rules plus the source and domain
facts, ground and solve it, map solution atoms to (relation, row), and
answer a conjunctive query off the models' atom ids — so each subclass
keeps only its rule builder and two hooks: which atom is a solution atom,
and the shape of a query atom.

The engine solves the ground program by independent components, and the
core works per component too: distinct solution parts and the
Δ-minimality filter within each component, ``solution_count`` as the
product of their counts, and each query body checked against the
components its atoms lie in.  The solutions, the cross product, are
listed only when :meth:`Specification.solution_models` or
:meth:`Specification.solutions` is called.

The rest of the module translates relational-layer objects (instances, FO
atoms, constraints) into Datalog-layer objects (facts, rules) under a
:class:`NameMap`, implementing the rule shapes of Section 3.1:

* persistence defaults (4)–(5),
* deletion exceptions with ``aux1``/``aux2`` (6)–(8),
* the disjunctive choice rule (9), generalised to multiple deletable
  antecedent atoms and multiple insertable consequent atoms, and
* hard-constraint encodings for DECs that must *stay* satisfied
  (the stage-2 side conditions of Definition 4(c3)) and for local ICs.
"""

from __future__ import annotations

from itertools import count, product
from math import prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..datalog.engine import AnswerSetEngine, _holding_answers
from ..datalog.grounding import ground_rule_over
from ..datalog.program import Program, Rule
from ..datalog.terms import (
    Atom,
    ChoiceGoal,
    Comparison,
    Literal,
    Variable,
)
from ..relational.constraints import (
    Constraint,
    DenialConstraint,
    EqualityGeneratingConstraint,
    TupleGeneratingConstraint,
)
from ..relational.instance import DatabaseInstance, canonical_order
from ..relational.query import And, Cmp, Exists, Formula, Query, RelAtom
from .errors import SystemError_
from .naming import NameMap

__all__ = ["Specification", "TranslationContext", "instance_facts",
           "translate_atom", "translate_cmp", "dec_rules",
           "hard_constraint_rules", "inserts_into_triggers", "local_ic_rules",
           "persistence_rules"]


class TranslationContext:
    """Everything a constraint translation needs to know.

    ``changeable``: relations whose primed version may differ from the
    source (deletions/insertions allowed).
    ``foreign_primed``: relations owned by *other* peers whose primed
    versions are defined elsewhere in a combined (transitive) program —
    references to them use the primed predicate (rules (10)–(13)), while
    the owner's own relations are referenced through their sources.
    """

    def __init__(self, name_map: NameMap, changeable: Iterable[str],
                 foreign_primed: Iterable[str] = ()) -> None:
        self.name_map = name_map
        self.changeable = frozenset(changeable)
        self.foreign_primed = frozenset(foreign_primed)
        overlap = self.changeable & self.foreign_primed
        if overlap:
            raise SystemError_(
                f"relations {sorted(overlap)} cannot be both locally "
                f"changeable and foreign-primed")

    # -- predicate selection -------------------------------------------
    def body_pred(self, relation: str) -> str:
        """Predicate used when *reading* a relation in rule bodies:
        sources for local relations (changeable or not), primed versions
        for foreign-primed ones."""
        if relation in self.foreign_primed:
            return self.name_map.primed(relation)
        return self.name_map.source(relation)

    def solution_pred(self, relation: str) -> str:
        """Predicate holding the relation's *solution-level* contents."""
        if relation in self.changeable or relation in self.foreign_primed:
            return self.name_map.primed(relation)
        return self.name_map.source(relation)


def _fact_rules(predicate: str, rows: Iterable[tuple]) -> list[Rule]:
    """One fact per row, in a deterministic order."""
    return [Rule(head=[Atom(predicate, values)])
            for values in sorted(rows, key=lambda row: tuple(
                (isinstance(v, str), str(v)) for v in row))]


def instance_facts(instance: DatabaseInstance, relations: Iterable[str],
                   name_map: NameMap) -> list[Rule]:
    """Source facts for the given relations, deterministic order."""
    return [fact for relation in sorted(set(relations))
            for fact in _fact_rules(name_map.source(relation),
                                    instance.tuples(relation))]


def translate_atom(atom: RelAtom, pred: str) -> Atom:
    """A relational FO atom as a Datalog atom under the given predicate."""
    return Atom(pred, atom.terms)


def translate_cmp(cmp_: Cmp) -> Comparison:
    return cmp_.comparison


def _universal_args(variables: Iterable[Variable]) -> tuple[Variable, ...]:
    return tuple(sorted(set(variables), key=lambda v: v.name))


class _AuxNames:
    """Fresh aux/ins predicate names per translated constraint."""

    def __init__(self, reserved: set[str]) -> None:
        self._reserved = set(reserved)
        self._counter = 0

    def fresh(self, base: str, *, bare: bool = False) -> str:
        """``base`` itself when ``bare`` and still free, else ``base``
        followed by the next free counter value."""
        if bare and base not in self._reserved:
            self._reserved.add(base)
            return base
        while True:
            self._counter += 1
            candidate = f"{base}{self._counter}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return candidate


def dec_rules(constraint: Constraint, context: TranslationContext,
              aux: _AuxNames) -> list[Rule]:
    """Repair rules for one DEC (the rules (6)-(9) generalisation).

    Dispatches on the constraint family; see the per-family helpers.
    """
    if isinstance(constraint, TupleGeneratingConstraint):
        return _tgd_rules(constraint, context, aux)
    if isinstance(constraint, EqualityGeneratingConstraint):
        return _egd_rules(constraint, context)
    if isinstance(constraint, DenialConstraint):
        return _denial_rules(constraint, context)
    raise SystemError_(
        f"unsupported constraint type {type(constraint).__name__} in ASP "
        f"translation")


def _deletion_heads(antecedent: Sequence[RelAtom],
                    context: TranslationContext) -> list[Literal]:
    """``-R'(x̄)`` head literals for the changeable antecedent atoms."""
    heads = []
    for atom in antecedent:
        if atom.relation in context.changeable:
            primed = context.name_map.primed(atom.relation)
            heads.append(Literal(translate_atom(atom, primed),
                                 positive=False))
    return heads


def _trigger_body(antecedent: Sequence[RelAtom],
                  conditions: Sequence[Cmp],
                  context: TranslationContext) -> list:
    body: list = [Literal(translate_atom(a, context.body_pred(a.relation)))
                  for a in antecedent]
    body.extend(translate_cmp(c) for c in conditions)
    return body


def _tgd_rules(constraint: TupleGeneratingConstraint,
               context: TranslationContext, aux: _AuxNames) -> list[Rule]:
    rules: list[Rule] = []
    trigger = _trigger_body(constraint.antecedent, constraint.conditions,
                            context)
    deletions = _deletion_heads(constraint.antecedent, context)

    fixed_consequent = [a for a in constraint.consequent
                        if a.relation not in context.changeable]
    insertable = [a for a in constraint.consequent
                  if a.relation in context.changeable]

    for condition in constraint.cons_conditions:
        allowed = constraint.universal_vars | set().union(
            *(a.free_variables() for a in fixed_consequent)) \
            if fixed_consequent else constraint.universal_vars
        allowed = set(allowed) | constraint.existential_vars
        if not condition.free_variables() <= allowed:
            raise SystemError_(
                f"consequent condition {condition} of {constraint.name} "
                f"is outside the supported ASP fragment")

    # aux1: the consequent is already satisfied at the source level
    # (rule (7): aux1(x,z) <- R2(x,w), S2(z,w)).
    consequent_uvars = _universal_args(
        v for a in constraint.consequent
        for v in a.free_variables() & constraint.universal_vars)
    aux1 = aux.fresh("aux1_")
    aux1_head = Atom(aux1, consequent_uvars)
    aux1_body: list = [
        Literal(translate_atom(a, context.body_pred(a.relation)))
        for a in constraint.consequent]
    aux1_body.extend(translate_cmp(c) for c in constraint.cons_conditions)
    rules.append(Rule(head=[aux1_head], body=aux1_body))
    aux1_literal = Literal(Atom(aux1, consequent_uvars), naf=True)

    if constraint.existential_vars and fixed_consequent:
        # aux2: a witness value exists among the fixed consequent atoms
        # (rule (8): aux2(z) <- S2(z,w)).
        aux2_uvars = _universal_args(
            v for a in fixed_consequent
            for v in a.free_variables() & constraint.universal_vars)
        aux2 = aux.fresh("aux2_")
        aux2_body: list = [
            Literal(translate_atom(a, context.body_pred(a.relation)))
            for a in fixed_consequent]
        rules.append(Rule(head=[Atom(aux2, aux2_uvars)], body=aux2_body))
        no_witness_literal: Optional[Literal] = Literal(
            Atom(aux2, aux2_uvars), naf=True)
    else:
        no_witness_literal = None

    if not insertable:
        # No insertions possible: violations force deletions (or are
        # outright inconsistencies when nothing is deletable either).
        body = trigger + [aux1_literal]
        rules.append(Rule(head=deletions, body=body))
        return rules

    # Rule (6) generalisation: when no witness is available, delete.
    if no_witness_literal is not None:
        rules.append(Rule(head=deletions,
                          body=trigger + [aux1_literal,
                                          no_witness_literal]))

    # Rule (9) generalisation: delete or insert a chosen witness.
    witness_atoms = [
        Literal(translate_atom(a, context.body_pred(a.relation)))
        for a in fixed_consequent]
    choice_domain = _universal_args(
        v for a in constraint.consequent
        for v in a.free_variables() & constraint.universal_vars)
    exist_vars = _universal_args(constraint.existential_vars)
    body = trigger + [aux1_literal] + witness_atoms
    body.extend(translate_cmp(c) for c in constraint.cons_conditions)
    if exist_vars and not fixed_consequent:
        # unguarded witnesses (the same-trust variant of Section 3.1, where
        # S1, S2 get virtual versions too) range over the active domain;
        # the specification emits its facts when a rule reads it
        body.extend(Literal(Atom(context.name_map.domain, (v,)))
                    for v in exist_vars)
    if exist_vars:
        body.append(ChoiceGoal(choice_domain, exist_vars))

    if len(insertable) == 1:
        insert_heads = [Literal(translate_atom(
            insertable[0],
            context.name_map.primed(insertable[0].relation)))]
        rules.append(Rule(head=deletions + insert_heads, body=body))
    else:
        # several atoms must be inserted together: use an `ins` marker
        ins = aux.fresh("ins_")
        ins_args = tuple(choice_domain) + tuple(exist_vars)
        ins_atom = Atom(ins, ins_args)
        rules.append(Rule(head=deletions + [Literal(ins_atom)], body=body))
        for atom in insertable:
            rules.append(Rule(
                head=[translate_atom(
                    atom, context.name_map.primed(atom.relation))],
                body=[Literal(ins_atom)]))
    return rules


def _egd_rules(constraint: EqualityGeneratingConstraint,
               context: TranslationContext) -> list[Rule]:
    rules = []
    deletions = _deletion_heads(constraint.antecedent, context)
    trigger = _trigger_body(constraint.antecedent, constraint.conditions,
                            context)
    for left, right in constraint.equalities:
        body = trigger + [Comparison("!=", left, right)]
        rules.append(Rule(head=deletions, body=body))
    return rules


def _denial_rules(constraint: DenialConstraint,
                  context: TranslationContext) -> list[Rule]:
    deletions = _deletion_heads(constraint.antecedent, context)
    trigger = _trigger_body(constraint.antecedent, constraint.conditions,
                            context)
    return [Rule(head=deletions, body=trigger)]


def hard_constraint_rules(constraint: Constraint,
                          context: TranslationContext,
                          aux: _AuxNames) -> list[Rule]:
    """Encode a constraint that must HOLD of the solution state (no repair
    options): used for the stage-2 `less` DECs (Definition 4(c3)) and for
    local ICs expressed over the virtual relations (Section 3.2)."""
    if isinstance(constraint, TupleGeneratingConstraint):
        rules: list[Rule] = []
        sat = aux.fresh("sat_")
        uvars = _universal_args(
            v for a in constraint.consequent
            for v in a.free_variables() & constraint.universal_vars)
        sat_body: list = [
            Literal(translate_atom(a, context.solution_pred(a.relation)))
            for a in constraint.consequent]
        sat_body.extend(translate_cmp(c)
                        for c in constraint.cons_conditions)
        rules.append(Rule(head=[Atom(sat, uvars)], body=sat_body))
        constraint_body: list = [
            Literal(translate_atom(a, context.solution_pred(a.relation)))
            for a in constraint.antecedent]
        constraint_body.extend(translate_cmp(c)
                               for c in constraint.conditions)
        constraint_body.append(Literal(Atom(sat, uvars), naf=True))
        rules.append(Rule(head=(), body=constraint_body))
        return rules
    if isinstance(constraint, EqualityGeneratingConstraint):
        rules = []
        body_atoms: list = [
            Literal(translate_atom(a, context.solution_pred(a.relation)))
            for a in constraint.antecedent]
        body_atoms.extend(translate_cmp(c) for c in constraint.conditions)
        for left, right in constraint.equalities:
            rules.append(Rule(head=(), body=body_atoms
                              + [Comparison("!=", left, right)]))
        return rules
    if isinstance(constraint, DenialConstraint):
        body_atoms = [
            Literal(translate_atom(a, context.solution_pred(a.relation)))
            for a in constraint.antecedent]
        body_atoms.extend(translate_cmp(c) for c in constraint.conditions)
        return [Rule(head=(), body=body_atoms)]
    raise SystemError_(
        f"unsupported constraint type {type(constraint).__name__} in ASP "
        f"translation")


def local_ic_rules(constraints: Iterable[Constraint],
                   context: TranslationContext,
                   aux: _AuxNames) -> list[Rule]:
    """Local ICs as program denial constraints over the solution state
    (Section 3.2: "program should take care of those constraints ...
    using program denial constraints")."""
    rules: list[Rule] = []
    for constraint in constraints:
        rules.extend(hard_constraint_rules(constraint, context, aux))
    return rules


def inserts_into_triggers(decs: Iterable[Constraint],
                          changeable: Iterable[str]) -> bool:
    """True when some relation occurs both in a DEC consequent, where a
    repair may insert into it (it is ``changeable``), and in a DEC
    antecedent (a violation trigger).

    The paper's translation (rules (6)-(9)) triggers violations on the
    *source* relations, which is exact for its DEC class ("no cycles and
    single atom consequents", Section 4.2) but can miss violations
    created by insertions when the classes mix.
    """
    changeable = frozenset(changeable)
    insertable: set[str] = set()
    triggers: set[str] = set()
    for constraint in decs:
        if isinstance(constraint, TupleGeneratingConstraint):
            insertable |= {a.relation for a in constraint.consequent
                           if a.relation in changeable}
        triggers |= {a.relation for a in constraint.antecedent}
    return bool(insertable & triggers)


def make_aux_names(name_map: NameMap,
                   extra_reserved: Iterable[str] = ()) -> _AuxNames:
    """Aux-name factory avoiding the relation predicates."""
    return _AuxNames(name_map.reserved_predicates() | set(extra_reserved))


def persistence_rules(relations: Iterable[str], rules: Sequence[Rule],
                      instance: DatabaseInstance,
                      source: Callable[[str], str],
                      target: Callable[[str], str]) -> list[Rule]:
    """Rules (4)-(5): copy each relation's ``source`` predicate into its
    ``target`` one, with the `not -target` exception exactly for the
    relations some head of ``rules`` deletes from (the primed layer from
    the sources; the final layer from the primed one)."""
    deleted = {literal.predicate for rule in rules for literal in rule.head
               if not literal.positive}
    copies = []
    for relation in sorted(relations):
        arity = instance.schema.arity(relation)
        variables = tuple(Variable(f"X{i}") for i in range(arity))
        copy = Atom(target(relation), variables)
        body: list = [Literal(Atom(source(relation), variables))]
        if copy.predicate in deleted:
            body.append(Literal(copy, positive=False, naf=True))
        copies.append(Rule(head=[copy], body=body))
    return copies


class Specification:
    """A specification program whose stable models are solutions.

    Subclasses pass the instance, the name map, the relations to emit
    source facts for and the relations a solution replaces, and provide
    :meth:`build_rules`; :meth:`_solution_row` and :meth:`_query_atom` are
    the two hooks where the programs differ.  Everything else — the
    memoised rules, program and engine, the atom-id -> (relation, row)
    map, the solution models, their decoding and the query program —
    lives here.

    The engine takes the source rows (and the active domain, when a rule
    reads it) as tables, not as a fact rule per row; :attr:`program`
    writes the same facts out as rules for whoever wants the program
    text.
    """

    #: whether :meth:`solution_models` may apply the Δ-minimality filter of
    #: Definition 4; only the GAV repair semantics has one
    delta_minimal = False

    def __init__(self, instance: DatabaseInstance, name_map: NameMap,
                 fact_relations: Iterable[str],
                 replaced: Iterable[str]) -> None:
        self.instance = instance
        self.name_map = name_map
        self._fact_relations = frozenset(fact_relations)
        # the relations a solution replaces wholesale
        self._replaced = frozenset(relation for relation in replaced
                                   if relation in instance.schema)
        self._rules: Optional[list[Rule]] = None
        self._program: Optional[Program] = None
        self._engine: Optional[AnswerSetEngine] = None
        self._rows: Optional[dict[int, tuple[str, tuple]]] = None
        self._fixed: Optional[dict[str, set[tuple]]] = None
        self._component_solutions: dict[
            bool, list[list[frozenset[int]]]] = {}
        self._solution_models: dict[bool, list[frozenset[int]]] = {}

    # ------------------------------------------------------------------
    # What the subclasses provide
    # ------------------------------------------------------------------
    def build_rules(self) -> list[Rule]:
        """All rules except facts."""
        raise NotImplementedError

    def _solution_row(self, predicate: str,
                      values: tuple) -> Optional[tuple[str, tuple]]:
        """The (relation, row) a true atom ``predicate(values)`` (raw
        values) puts into a solution, if any; by default the primed
        atoms."""
        relation = self.name_map.relation_of_primed(predicate)
        return None if relation is None else (relation, values)

    def _query_atom(self, relation: str, terms: tuple) -> Atom:
        """A query atom over ``relation``'s solution-level contents: the
        primed predicate for a replaced relation, the source otherwise.
        The name map raises :class:`~repro.core.errors.SystemError_` for a
        relation the program does not hold."""
        if relation in self._replaced:
            return Atom(self.name_map.primed(relation), terms)
        return Atom(self.name_map.source(relation), terms)

    # ------------------------------------------------------------------
    # Program and solving
    # ------------------------------------------------------------------
    @property
    def rules(self) -> list[Rule]:
        """:meth:`build_rules`, memoised."""
        if self._rules is None:
            self._rules = self.build_rules()
        return self._rules

    def _fact_tables(self) -> dict[str, Iterable[tuple]]:
        """The program's facts as tables: each fact relation's rows under
        its source predicate, plus the active domain when a rule reads
        the domain predicate."""
        tables: dict[str, Iterable[tuple]] = {
            self.name_map.source(relation): self.instance.tuples(relation)
            for relation in sorted(self._fact_relations)}
        domain = self.name_map.domain
        if any(domain in rule.body_predicates() for rule in self.rules):
            tables[domain] = [(value,)
                              for value in self.instance.active_domain()]
        return tables

    @property
    def program(self) -> Program:
        """The whole program as text would show it: :attr:`rules` plus
        a fact rule per table row."""
        if self._program is None:
            facts = [fact for predicate, rows in self._fact_tables().items()
                     for fact in _fact_rules(predicate, rows)]
            self._program = Program(self.rules + facts)
        return self._program

    @property
    def engine(self) -> AnswerSetEngine:
        if self._engine is None:
            self._engine = AnswerSetEngine(Program(self.rules),
                                           facts=self._fact_tables())
        return self._engine

    def answer_sets(self):
        return self.engine.answer_sets()

    def _solution_rows(self) -> dict[int, tuple[str, tuple]]:
        """``atom id -> (relation, row)`` for every solution atom of a
        replaced relation true in some model of its component.  Built
        once per distinct atom."""
        if self._rows is None:
            literal_for = self.engine.ground.table.literal_for
            row_of = self._solution_row
            rows = {}
            for component in self.engine.components():
                for ident in frozenset().union(*component.models):
                    literal = literal_for(ident)
                    entry = literal.positive and row_of(
                        literal.predicate, literal.atom.value_tuple())
                    if entry and entry[0] in self._replaced:
                        rows[ident] = entry
            self._rows = rows
        return self._rows

    def _fixed_rows(self) -> dict[str, set[tuple]]:
        """``relation -> rows`` every solution holds: the solution atoms
        among the deterministic relations, for each replaced relation.
        Built once."""
        if self._fixed is None:
            fixed: dict[str, set[tuple]] = {
                relation: set() for relation in self._replaced}
            for key, rows in self.engine.ground.facts.items():
                for values in rows:
                    entry = self._solution_row(key, values)
                    if entry is not None and entry[0] in fixed:
                        fixed[entry[0]].add(entry[1])
            self._fixed = fixed
        return self._fixed

    def component_solutions(self, *, minimal_only: bool = True
                            ) -> list[list[frozenset[int]]]:
        """Per component of the engine
        (:meth:`~repro.datalog.engine.AnswerSetEngine.components`), one of
        its models per distinct part of a solution, memoised; the
        solutions are the unions of one entry per component.

        A component's models are told apart by their projection onto the
        solution atoms.  ``minimal_only`` applies the Δ-minimality
        post-filter that makes the GAV solutions coincide with Definition
        4's repairs in all cases (it is a no-op on the paper's DEC class,
        and on specifications without :attr:`delta_minimal`).  A
        solution's Δ to the source, restricted to the replaced relations,
        is its projection's symmetric difference with the atoms of the
        source rows, plus the source rows no model contains, plus the
        part the deterministic relations give; every Δ shares the last
        two, so comparing the id sets decides ``<`` exactly.  Components
        share no atom, so a Δ is the disjoint union of its components'
        parts, and a solution is minimal iff each of its parts is minimal
        within its component: the filter runs per component.
        """
        minimal_only = minimal_only and self.delta_minimal
        cached = self._component_solutions.get(minimal_only)
        if cached is None:
            rows = self._solution_rows()
            ids = frozenset(rows)
            source = frozenset(
                ident for ident, (relation, row) in rows.items()
                if row in self.instance.tuples(relation)) \
                if minimal_only else None
            cached = self._component_solutions[minimal_only] = [
                _distinct_parts(component.models, ids, source)
                for component in self.engine.components()]
        return cached

    def solution_count(self, *, minimal_only: bool = True) -> int:
        """How many solutions there are: the product of the components'
        counts (:meth:`component_solutions`), without building it."""
        return prod(map(len, self.component_solutions(
            minimal_only=minimal_only)))

    def solution_models(self, *, minimal_only: bool = True
                        ) -> list[frozenset[int]]:
        """One stable model (as atom ids) per distinct solution, memoised:
        the cross product of :meth:`component_solutions`, built only
        here."""
        minimal_only = minimal_only and self.delta_minimal
        cached = self._solution_models.get(minimal_only)
        if cached is None:
            cached = self._solution_models[minimal_only] = [
                frozenset().union(*combination)
                for combination in product(*self.component_solutions(
                    minimal_only=minimal_only))]
        return cached

    def solutions(self, *, minimal_only: bool = True
                  ) -> list[DatabaseInstance]:
        """The solution instances of :meth:`solution_models`, decoded, in
        canonical order."""
        return canonical_order(
            self._decode(model)
            for model in self.solution_models(minimal_only=minimal_only))

    def _decode(self, model: frozenset[int]) -> DatabaseInstance:
        """Read a solution instance off a stable model: the replaced
        relations take the deterministic solution rows and the model's
        solution atoms, the others keep the source rows."""
        replaced = {relation: set(fixed)
                    for relation, fixed in self._fixed_rows().items()}
        rows = self._solution_rows()
        for ident in model:
            entry = rows.get(ident)
            if entry is not None:
                replaced[entry[0]].add(entry[1])
        return self.instance.replace_relations(replaced)

    # ------------------------------------------------------------------
    # Query programs (Section 3.2)
    # ------------------------------------------------------------------
    def query_instances(self, query: Query) -> Iterator[tuple[tuple,
                                                             tuple]]:
        """The ground instances of the query program, each as its answer
        tuple and the atom ids of its body.

        The query program is the one rule ``ans_query(x̄) :- body`` over
        the solution-level atoms (:meth:`_query_atom`), grounded against
        this specification's ground program only (the specification is
        not ground again); a body atom over a deterministic relation adds
        no id, so a body over those alone holds in every model.  Raises, before any iteration,
        :class:`~repro.core.errors.SystemError_` for a query that is not
        conjunctive or reads a relation the program does not hold, and
        :class:`~repro.datalog.errors.SafetyError` for an unsafe one.
        """
        rule = Rule(head=[Atom("ans_query", query.head)],
                    body=_conjunctive_body(query.formula, self._query_atom))
        return ground_rule_over(rule, self.engine.ground)

    def query_program_answers(self, query: Query,
                              *, skeptical: bool = True) -> set[tuple]:
        """Run a conjunctive query program over the virtual relations.

        Implements "running the query, expressed as a query program in
        terms of the virtually repaired tables, in combination with
        program Π ... under the skeptical answer set semantics"
        (Section 3.2): the tuples whose query rule holds in every answer
        set (in some, when not ``skeptical``), with no Δ-minimality
        filter.  Supports conjunctive queries (∧/∃/comparisons); richer FO
        queries should be answered against :meth:`solutions` instead.
        """
        engine = self.engine
        return _holding_answers(
            self.query_instances(query),
            [component.models for component in engine.components()],
            engine.component_index, skeptical)


def _distinct_parts(models: list[frozenset[int]], ids: frozenset[int],
                    source: Optional[frozenset[int]]
                    ) -> list[frozenset[int]]:
    """One of ``models`` (a component's) per distinct projection onto the
    solution atoms ``ids``; with ``source`` (the atoms of the source
    rows), only those whose Δ, the projection's symmetric difference with
    ``source``, no other Δ strictly contains.  The source atoms of other
    components add the same part to every Δ here, so they change no
    comparison."""
    if len(models) < 2:
        return models
    distinct: dict[frozenset[int], frozenset[int]] = {}
    for model in models:
        distinct.setdefault(model & ids, model)
    kept = list(distinct.values())
    if source is not None and len(distinct) > 1:
        deltas = [projection ^ source for projection in distinct]
        # only a strictly smaller Δ can be a strict subset
        smallest = min(map(len, deltas))
        kept = [model for model, delta in zip(kept, deltas)
                if len(delta) == smallest
                or not any(other < delta for other in deltas)]
    return kept


def _conjunctive_body(formula: Formula,
                      atom_for: Callable[[str, tuple], Atom]) -> list:
    """Translate a conjunctive FO formula into a rule body, each relation
    atom shaped by ``atom_for(relation, terms)``.

    Variables bound by ``exists`` are renamed apart (``Y`` becomes
    ``Y#1``), so flattening the conjunction cannot merge two different
    ``Y``s or capture an answer variable.
    """
    fresh = count(1)

    def translate(part: Formula, names: dict) -> list:
        if isinstance(part, RelAtom):
            return [Literal(atom_for(part.relation,
                                     tuple(names.get(term, term)
                                           for term in part.terms)))]
        if isinstance(part, Cmp):
            comparison = part.comparison
            return [Comparison(comparison.op,
                               names.get(comparison.left, comparison.left),
                               names.get(comparison.right,
                                         comparison.right))]
        if isinstance(part, And):
            return [item for sub in part.parts
                    for item in translate(sub, names)]
        if isinstance(part, Exists):
            inner = dict(names)
            for variable in part.variables:
                inner[variable] = Variable(f"{variable.name}#{next(fresh)}")
            return translate(part.sub, inner)
        raise SystemError_(
            f"query programs support conjunctive queries; "
            f"{type(part).__name__} found — evaluate the FO query over "
            f"the decoded solutions instead")

    return translate(formula, {})
