"""The answer-set specification of a peer's solutions (Section 3.1, GAV).

Given an instance and a set of DECs with a designated set of changeable
relations, :class:`GavSpecification` builds the disjunctive choice program
of Section 3.1:

* facts for the source relations,
* persistence defaults (4)–(5) copying sources into the virtual primed
  relations, with exceptions only where deletions are possible (the paper
  notes rule (5)'s NAF literal "can be eliminated" for insert-only
  relations),
* deletion rules with ``aux1``/``aux2`` (6)–(8),
* the disjunctive choice rule (9), and
* denial constraints for local ICs and for DECs that must remain
  satisfied.

The peer's solutions correspond to the stable models ("in one to one
correspondence", Section 3.2), and peer consistent answers are the
skeptical answers of a query program over the primed relations.  Both are
computed on the models as sets of atom ids:

* each model is projected onto the solution atoms (primed, or final-layer,
  atoms of the replaced relations); equal projections are one solution;
* the Δ-minimality post-filter compares those projections' symmetric
  differences with the source rows' atoms — exactly ``delta`` of the
  decoded instances — and guarantees agreement with Definition 4 in all
  cases (on the paper's DEC class, acyclic and witness-guarded, it
  discards nothing);
* a conjunctive query's rule ``ans_query(x̄) :- body`` is grounded once,
  against the specification's already grounded table, and a tuple is
  certain when every minimal solution's model contains one of its ground
  bodies (possible: some model).

Instances are decoded only when asked for
(:meth:`GavSpecification.solutions`).
:class:`AspSolutions` composes two such programs to implement the full
two-stage semantics of Definition 4 (the paper's Section 3.1 example is
single-stage — only a `less` neighbour) and is what a session caches for
``method="asp"``; :func:`asp_solutions_for_peer` lists its instances.
Queries that are not conjunctive, and the case where several stage-1
solutions feed `same` DECs, fall back to decoding and intersecting.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

from ..datalog.engine import AnswerSetEngine
from ..datalog.errors import SafetyError
from ..datalog.grounding import ground_rule_over
from ..datalog.program import Program, Rule
from ..datalog.terms import Atom, Comparison, Literal, Variable
from ..relational.constraints import Constraint
from ..relational.instance import DatabaseInstance, canonical_order
from ..relational.query import (
    And,
    Cmp,
    Exists,
    Formula,
    Query,
    RelAtom,
)
from .asp_common import (
    TranslationContext,
    dec_rules,
    hard_constraint_rules,
    instance_facts,
    local_ic_rules,
    make_aux_names,
)
from .errors import SystemError_
from .naming import NameMap
from .pca import PCAResult, pca_from_solutions, possible_from_solutions
from .solutions import SolutionSearch
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["GavSpecification", "AspSolutions", "asp_solutions_for_peer",
           "asp_peer_consistent_answers"]


class _FinalContext:
    """Adapter: `solution_pred` resolves to the final-layer predicates.

    Used to re-enforce DECs over the IC-repaired state; only the methods
    :func:`repro.core.asp_common.hard_constraint_rules` touches are
    provided.
    """

    def __init__(self, spec: "GavSpecification") -> None:
        self._spec = spec
        self.name_map = spec.name_map
        self.changeable = spec.context.changeable
        self.foreign_primed = spec.context.foreign_primed

    def solution_pred(self, relation: str) -> str:
        return self._spec._final_pred(relation)


class GavSpecification:
    """The Section 3.1 program for one repair stage.

    Parameters:
        instance: the material (source) data.
        repair_decs: DEC constraints whose violations the program repairs
            (deletion/choice rules are generated for these).
        changeable: relations whose primed version may deviate.
        enforce: constraints that must simply HOLD of the virtual state
            (stage-2 `less` DECs).
        local_ics: local ICs.  With ``local_ic_mode="layered"`` (default)
            they are handled by the paper's "more flexible alternative"
            (Section 3.2): a second program layer repairs each solution
            w.r.t. the local ICs while keeping the DECs enforced — this is
            what matches Definition 4's reference semantics.  With
            ``local_ic_mode="denial"`` they become plain program denial
            constraints, which *prunes* IC-violating solutions instead of
            repairing them (the paper's "simple way").
        relations_in_scope: relations to emit facts for (default: all
            relations mentioned anywhere plus changeable ones).
    """

    def __init__(self, instance: DatabaseInstance,
                 repair_decs: Sequence[Constraint],
                 changeable: Iterable[str],
                 enforce: Sequence[Constraint] = (),
                 local_ics: Sequence[Constraint] = (),
                 relations_in_scope: Optional[Iterable[str]] = None,
                 foreign_primed: Iterable[str] = (),
                 local_ic_mode: str = "layered") -> None:
        if local_ic_mode not in ("layered", "denial"):
            raise SystemError_(
                f"unknown local_ic_mode {local_ic_mode!r}; use 'layered' "
                f"or 'denial'")
        self.local_ic_mode = local_ic_mode
        self.instance = instance
        self.repair_decs = tuple(repair_decs)
        self.enforce = tuple(enforce)
        self.local_ics = tuple(local_ics)
        scope = set(changeable) | set(foreign_primed)
        for constraint in (*self.repair_decs, *self.enforce,
                           *self.local_ics):
            scope |= constraint.relations()
        if relations_in_scope is not None:
            scope |= set(relations_in_scope)
        unknown = scope - set(instance.relations())
        if unknown:
            raise SystemError_(
                f"constraints mention relations {sorted(unknown)} missing "
                f"from the instance")
        self.scope = frozenset(scope)
        self.name_map = NameMap(self.scope)
        self.context = TranslationContext(self.name_map, changeable,
                                          foreign_primed)
        # the relations a solution replaces wholesale
        self._replaced = frozenset(
            relation for relation in (self.context.changeable
                                      | self.context.foreign_primed)
            if relation in instance.schema)
        self._program: Optional[Program] = None
        self._engine: Optional[AnswerSetEngine] = None
        self._rows: Optional[dict[int, tuple[str, tuple]]] = None
        self._solution_models: dict[bool, list[frozenset[int]]] = {}

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    @property
    def uses_final_layer(self) -> bool:
        """True when the two-layer local-IC construction is active."""
        return bool(self.local_ics) and self.local_ic_mode == "layered"

    @property
    def out_of_class(self) -> bool:
        """True when some relation occurs both in a DEC consequent
        (insertable) and a DEC antecedent (violation trigger).

        The paper's translation (rules (6)-(9)) triggers violations on the
        *source* relations, which is exact for its DEC class ("no cycles
        and single atom consequents", Section 4.2) but can miss violations
        created by insertions when the classes mix.  For such systems the
        builder adds solution-state hard constraints: models that sneak an
        unrepaired violation past the source triggers are pruned, so the
        program never *fabricates* solutions (it may under-approximate;
        the model-theoretic route stays authoritative there).
        """
        insertable: set[str] = set()
        triggers: set[str] = set()
        for constraint in self.repair_decs:
            from ..relational.constraints import TupleGeneratingConstraint
            if isinstance(constraint, TupleGeneratingConstraint):
                insertable |= {a.relation for a in constraint.consequent
                               if a.relation in self.context.changeable}
            triggers |= {a.relation for a in constraint.antecedent}
        return bool(insertable & triggers)

    def build_rules(self) -> list[Rule]:
        """All rules except facts (exposed for the transitive combiner)."""
        aux = make_aux_names(self.name_map)
        rules: list[Rule] = []
        for constraint in self.repair_decs:
            rules.extend(dec_rules(constraint, self.context, aux))
        for constraint in self.enforce:
            rules.extend(hard_constraint_rules(constraint, self.context,
                                               aux))
        if self.out_of_class:
            # safety belt: enforce every repair DEC on the solution state
            for constraint in self.repair_decs:
                rules.extend(hard_constraint_rules(constraint,
                                                   self.context, aux))
        if self.local_ics and not self.uses_final_layer:
            rules.extend(local_ic_rules(self.local_ics, self.context,
                                        aux))
        rules.extend(self._persistence_rules(rules))
        if self.uses_final_layer:
            rules.extend(self._final_layer_rules(aux))
        return rules

    # -- the second layer of Section 3.2's flexible alternative ----------
    def _final_pred(self, relation: str) -> str:
        """Solution-level predicate of the *final* (IC-repaired) state."""
        if relation in self.context.changeable \
                or relation in self.context.foreign_primed:
            return self.name_map.final(relation)
        return self.name_map.source(relation)

    def _final_layer_rules(self, aux) -> list[Rule]:
        from ..relational.constraints import (DenialConstraint,
                                              EqualityGeneratingConstraint)
        from ..datalog.terms import Comparison
        rules: list[Rule] = []
        ic_deletion_heads: dict[Constraint, list] = {}
        deletable: set[str] = set()
        for constraint in self.local_ics:
            if not isinstance(constraint, (DenialConstraint,
                                           EqualityGeneratingConstraint)):
                raise SystemError_(
                    f"the layered local-IC construction supports denial "
                    f"and equality-generating ICs; {constraint.name} is "
                    f"{type(constraint).__name__}")
            heads = []
            for atom in constraint.antecedent:
                if atom.relation in self.context.changeable:
                    heads.append(Literal(
                        Atom(self.name_map.final(atom.relation),
                             atom.terms), positive=False))
                    deletable.add(atom.relation)
            ic_deletion_heads[constraint] = heads

        # copy layer-A output into the final layer
        changed = sorted(self.context.changeable
                         | self.context.foreign_primed)
        for relation in changed:
            arity = self.instance.schema.arity(relation)
            variables = tuple(Variable(f"X{i}") for i in range(arity))
            primed_atom = Atom(self.name_map.primed(relation), variables)
            final_atom = Atom(self.name_map.final(relation), variables)
            body: list = [Literal(primed_atom)]
            if relation in deletable:
                body.append(Literal(final_atom, positive=False, naf=True))
            rules.append(Rule(head=[final_atom], body=body))

        # local-IC repair rules: trigger on the layer-A state, delete in
        # the final layer
        for constraint in self.local_ics:
            trigger: list = []
            for atom in constraint.antecedent:
                pred = self.name_map.primed(atom.relation) \
                    if atom.relation in self.context.changeable \
                    or atom.relation in self.context.foreign_primed \
                    else self.name_map.source(atom.relation)
                trigger.append(Literal(Atom(pred, atom.terms)))
            trigger.extend(c.comparison for c in constraint.conditions)
            heads = ic_deletion_heads[constraint]
            if isinstance(constraint, EqualityGeneratingConstraint):
                for left, right in constraint.equalities:
                    rules.append(Rule(
                        head=heads,
                        body=trigger + [Comparison("!=", left, right)]))
            else:
                rules.append(Rule(head=heads, body=trigger))

        # the DECs (and stage-2 enforcements) must still hold of the
        # final state: the IC layer may only delete what the DECs do not
        # pin down
        final_context = _FinalContext(self)
        for constraint in (*self.repair_decs, *self.enforce):
            rules.extend(hard_constraint_rules(constraint, final_context,
                                               aux))
        return rules

    def _persistence_rules(self, dec_rules_built: Sequence[Rule]
                           ) -> list[Rule]:
        """Rules (4)-(5): copy sources into the primed relations, with the
        `not -R'` exception exactly for relations that can lose tuples."""
        deletable: set[str] = set()
        for rule in dec_rules_built:
            for literal in rule.head:
                if not literal.positive:
                    relation = self.name_map.relation_of_primed(
                        literal.predicate)
                    if relation is not None:
                        deletable.add(relation)
        rules = []
        for relation in sorted(self.context.changeable):
            arity = self.instance.schema.arity(relation)
            variables = tuple(Variable(f"X{i}") for i in range(arity))
            source_atom = Atom(self.name_map.source(relation), variables)
            primed_atom = Atom(self.name_map.primed(relation), variables)
            body: list = [Literal(source_atom)]
            if relation in deletable:
                body.append(Literal(primed_atom, positive=False, naf=True))
            rules.append(Rule(head=[primed_atom], body=body))
        return rules

    @property
    def program(self) -> Program:
        if self._program is None:
            rules = self.build_rules()
            facts = instance_facts(self.instance, self.scope,
                                   self.name_map)
            if self.context.domain_used:
                for value in sorted(self.instance.active_domain(),
                                    key=lambda v: (isinstance(v, str),
                                                   str(v))):
                    facts.append(Rule(head=[
                        Atom(self.context.domain_pred, (value,))]))
            self._program = Program(rules + facts)
        return self._program

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    @property
    def engine(self) -> AnswerSetEngine:
        if self._engine is None:
            self._engine = AnswerSetEngine(self.program)
        return self._engine

    def answer_sets(self):
        return self.engine.answer_sets()

    def _solution_rows(self) -> dict[int, tuple[str, tuple]]:
        """``atom id -> (relation, row)`` for every solution atom true in
        some stable model: the primed atoms (final-layer atoms when
        :attr:`uses_final_layer`) of the replaced relations.  Built once
        per distinct atom."""
        if self._rows is None:
            relation_of = (self.name_map.relation_of_final
                           if self.uses_final_layer
                           else self.name_map.relation_of_primed)
            table = self.engine.ground.table
            rows = {}
            for ident in frozenset().union(*self.engine.id_models()):
                literal = table.literal_for(ident)
                relation = relation_of(literal.predicate)
                if literal.positive and relation in self._replaced:
                    rows[ident] = (relation, literal.atom.value_tuple())
            self._rows = rows
        return self._rows

    def solution_models(self, *, minimal_only: bool = True
                        ) -> list[frozenset[int]]:
        """One stable model (as atom ids) per distinct solution, memoised.

        Models are told apart by their projection onto the solution
        atoms.  ``minimal_only`` applies the Δ-minimality post-filter that
        makes the solutions coincide with Definition 4's repairs in all
        cases (it is a no-op on the paper's DEC class).  A solution's Δ to
        the source, restricted to the replaced relations, is its
        projection's symmetric difference with the atoms of the source
        rows, plus the source rows no model contains; every Δ shares
        those, so comparing the id sets decides ``<`` exactly.
        """
        cached = self._solution_models.get(minimal_only)
        if cached is not None:
            return cached
        models = self.engine.id_models()
        if len(models) < 2:
            return models
        rows = self._solution_rows()
        ids = frozenset(rows)
        distinct: dict[frozenset[int], frozenset[int]] = {}
        for model in models:
            distinct.setdefault(model & ids, model)
        models = list(distinct.values())
        if minimal_only and len(distinct) > 1:
            source = frozenset(
                ident for ident, (relation, row) in rows.items()
                if row in self.instance.tuples(relation))
            deltas = [projection ^ source for projection in distinct]
            # only a strictly smaller Δ can be a strict subset
            smallest = min(map(len, deltas))
            models = [model for model, delta in zip(models, deltas)
                      if len(delta) == smallest
                      or not any(other < delta for other in deltas)]
        self._solution_models[minimal_only] = models
        return models

    def solutions(self, *, minimal_only: bool = True
                  ) -> list[DatabaseInstance]:
        """The solution instances of :meth:`solution_models`, decoded, in
        canonical order."""
        return canonical_order(
            self._decode(model)
            for model in self.solution_models(minimal_only=minimal_only))

    def _decode(self, model: frozenset[int]) -> DatabaseInstance:
        """Read a solution instance off a stable model: the replaced
        relations take the model's solution atoms, the others keep the
        source rows."""
        replaced: dict[str, set[tuple]] = {
            relation: set() for relation in self._replaced}
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
        the solution-level predicates, grounded against this
        specification's table only (the specification is not ground
        again).  Raises, before any iteration,
        :class:`~repro.core.errors.SystemError_` for a query that is not
        conjunctive and :class:`~repro.datalog.errors.SafetyError` for an
        unsafe one.
        """
        query_context = _FinalContext(self) if self.uses_final_layer \
            else self.context
        rule = Rule(head=[Atom("ans_query", query.head)],
                    body=_conjunctive_body(query.formula, query_context))
        return ((tuple([term.value for term in head]), body)
                for head, body in ground_rule_over(rule,
                                                   self.engine.ground.table))

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
        return _holding_answers(self.query_instances(query),
                                self.engine.id_models(), skeptical)


def _holding_answers(instances: Iterable[tuple[tuple, tuple]],
                     models: Sequence[frozenset[int]],
                     skeptical: bool) -> set[tuple]:
    """The answer tuples of ``(answer, body ids)`` instances with a body
    inside every model (``skeptical``) or inside some model; none without
    models."""
    if not models:
        return set()
    # a body inside every model settles its tuple at once; only the
    # others are kept and checked model by model
    common = frozenset.intersection(*models)
    answers: set[tuple] = set()
    pending: dict[tuple, list[tuple]] = {}
    for answer, body in instances:
        if answer in answers:
            continue
        if common.issuperset(body):
            answers.add(answer)
        else:
            pending.setdefault(answer, []).append(body)
    quantifier = all if skeptical else any
    answers.update(
        answer for answer, bodies in pending.items()
        if answer not in answers
        and quantifier(any(model.issuperset(body) for body in bodies)
                       for model in models))
    return answers


def _conjunctive_body(formula: Formula,
                      context: TranslationContext) -> list:
    """Translate a conjunctive FO formula into a rule body over the
    solution-level predicates.

    Variables bound by ``exists`` are renamed apart (``Y`` becomes
    ``Y#1``), so flattening the conjunction cannot merge two different
    ``Y``s or capture an answer variable.
    """
    fresh = count(1)

    def translate(part: Formula, names: dict) -> list:
        if isinstance(part, RelAtom):
            pred = context.solution_pred(part.relation)
            return [Literal(Atom(pred, tuple(names.get(term, term)
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


# ---------------------------------------------------------------------------
# Peer-level composition (Definition 4 via ASP)
# ---------------------------------------------------------------------------

def _stage_specs(system: PeerSystem, peer: str, *,
                 include_local_ics: bool) -> tuple:
    search = SolutionSearch(system, peer,
                            include_local_ics=include_local_ics)
    less = [e.constraint for e in
            system.trusted_decs_of(peer, TrustLevel.LESS)]
    same_decs = system.trusted_decs_of(peer, TrustLevel.SAME)
    same = [e.constraint for e in same_decs]
    local = list(system.peer(peer).local_ics) if include_local_ics else []
    own = set(system.peer(peer).schema.names)
    stage2_changeable = set(own)
    for exchange in same_decs:
        stage2_changeable |= set(system.peer(exchange.other).schema.names)
    return less, same, local, own, stage2_changeable, search


class AspSolutions:
    """The solutions for one peer on the ASP route, kept solved.

    Holds the final-stage :class:`GavSpecification` (stage 2 when the peer
    has `same` DECs, stage 1 otherwise).  A conjunctive query is answered
    off its stable models' atom ids: the query rule is grounded against
    the specification's table (:meth:`GavSpecification.query_instances`) and
    each ground body is tested against one model per minimal solution.
    Iterating decodes the solution instances, in canonical order, on
    first use only.

    Without a specification to answer from — no DECs and no local ICs, or
    several stage-1 solutions feeding `same` DECs, whose cross-branch
    dedup needs decoded content — it holds the decoded instances, and
    queries are evaluated on each, as they are for a query that is not
    conjunctive or not safe.
    """

    def __init__(self, system: PeerSystem, peer: str, *,
                 spec: Optional[GavSpecification] = None,
                 instances: Optional[list[DatabaseInstance]] = None,
                 minimal_only: bool = True) -> None:
        self.system = system
        self.peer = peer
        self.spec = spec
        self._instances = instances
        self._minimal_only = minimal_only

    @classmethod
    def for_peer(cls, system: PeerSystem, peer: str, *,
                 include_local_ics: bool = True,
                 minimal_only: bool = True) -> "AspSolutions":
        """Build (and, where stage 2 depends on it, solve) the staged
        specifications of Definition 4 for ``peer``.

        Stage 1 (`less` DECs, own relations changeable) and stage 2
        (`same` DECs with the `less` DECs enforced) each run as a Section
        3.1 program; the composition implements Definition 4 exactly
        (validated against the model-theoretic
        :func:`repro.core.solutions.solutions_for_peer`).
        """
        less, same, local, own, stage2_changeable, _search = _stage_specs(
            system, peer, include_local_ics=include_local_ics)
        global_instance = system.global_instance()

        # the specification program embeds the neighbours' data as facts
        # — record those data requests on the exchange log (Example 2's
        # narrative, here for the ASP mechanism)
        own_set = set(own)
        foreign = set()
        for constraint in (*less, *same):
            foreign |= constraint.relations() - own_set
        for relation in sorted(foreign):
            system.fetch_relation(peer, relation,
                                  purpose="asp specification")

        def result(**kwargs) -> "AspSolutions":
            return cls(system, peer, minimal_only=minimal_only, **kwargs)

        stage1_base = global_instance
        if less or local:
            # local ICs are applied at stage 1 even without `less` DECs so
            # that footnote-1 systems (locally inconsistent instances) get
            # repaired on the ASP route too
            stage1 = GavSpecification(global_instance, less, own,
                                      local_ics=local)
            if not same:
                return result(spec=stage1)
            if len(stage1.solution_models(minimal_only=minimal_only)) != 1:
                final: dict[DatabaseInstance, None] = {}
                for base in stage1.solutions(minimal_only=minimal_only):
                    stage2 = GavSpecification(base, same, stage2_changeable,
                                              enforce=less, local_ics=local)
                    for solution in stage2.solutions(
                            minimal_only=minimal_only):
                        final.setdefault(solution)
                return result(instances=canonical_order(final))
            stage1_base, = stage1.solutions(minimal_only=minimal_only)
        elif not same:
            return result(instances=[global_instance])
        return result(spec=GavSpecification(
            stage1_base, same, stage2_changeable, enforce=less,
            local_ics=local))

    def __iter__(self) -> Iterator[DatabaseInstance]:
        return iter(self.instances())

    def instances(self) -> list[DatabaseInstance]:
        """The solution instances, decoded once, in canonical order."""
        if self._instances is None:
            assert self.spec is not None
            self._instances = self.spec.solutions(
                minimal_only=self._minimal_only)
        return self._instances

    def certain_answers(self, query: Query) -> PCAResult:
        """Peer consistent answers (Definition 5)."""
        return self._answers(query, skeptical=True)

    def possible_answers(self, query: Query) -> PCAResult:
        """The brave dual: tuples true in *some* solution restriction."""
        return self._answers(query, skeptical=False)

    def _answers(self, query: Query, skeptical: bool) -> PCAResult:
        self.system.validate_query_scope(self.peer, query)
        if self.spec is not None:
            try:
                instances = self.spec.query_instances(query)
            except (SystemError_, SafetyError):
                pass  # not a conjunctive, safe query: evaluate per instance
            else:
                models = self.spec.solution_models(
                    minimal_only=self._minimal_only)
                return PCAResult(
                    _holding_answers(instances, models, skeptical),
                    len(models))
        combine = pca_from_solutions if skeptical \
            else possible_from_solutions
        return combine(self.system, self.peer, query, self.instances())


def asp_solutions_for_peer(system: PeerSystem, peer: str, *,
                           include_local_ics: bool = True,
                           minimal_only: bool = True
                           ) -> list[DatabaseInstance]:
    """The solutions for ``peer`` computed through the ASP specification
    (:meth:`AspSolutions.for_peer`), decoded, in canonical order."""
    return AspSolutions.for_peer(
        system, peer, include_local_ics=include_local_ics,
        minimal_only=minimal_only).instances()


def asp_peer_consistent_answers(system: PeerSystem, peer: str,
                                query: Query, *,
                                include_local_ics: bool = True
                                ) -> PCAResult:
    """Peer consistent answers via the ASP route (Definition 5)."""
    return AspSolutions.for_peer(
        system, peer, include_local_ics=include_local_ics
    ).certain_answers(query)
