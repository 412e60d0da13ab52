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

The peer's solutions are read off the stable models ("in one to one
correspondence", Section 3.2); peer consistent answers are the skeptical
answers of a query program over the primed relations.

:func:`asp_solutions_for_peer` composes two such programs to implement the
full two-stage semantics of Definition 4 (the paper's Section 3.1 example
is single-stage — only a `less` neighbour).  Stable models of the repair
program correspond to Δ-minimal repairs on the paper's DEC class (acyclic,
witness-guarded); an optional minimality post-filter guarantees agreement
with Definition 4 in all cases and is a no-op on that class (asserted in
the cross-validation tests).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..datalog.engine import AnswerSetEngine
from ..datalog.program import Program, Rule
from ..datalog.terms import Atom, Literal, Variable
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
    decode_model,
    hard_constraint_rules,
    instance_facts,
    local_ic_rules,
    make_aux_names,
)
from .errors import SystemError_
from .naming import NameMap
from .pca import PCAResult, pca_from_solutions
from .solutions import SolutionSearch
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["GavSpecification", "asp_solutions_for_peer",
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
        self._program: Optional[Program] = None
        self._engine: Optional[AnswerSetEngine] = None

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

    def solutions(self, *, minimal_only: bool = True
                  ) -> list[DatabaseInstance]:
        """Solution instances decoded from the answer sets.

        ``minimal_only`` applies the Δ-minimality post-filter that makes
        the output coincide with Definition 4's repairs in all cases (it
        is a no-op on the paper's DEC class).
        """
        decoded: dict[DatabaseInstance, None] = {}
        for model in self.answer_sets():
            decoded.setdefault(self._decode(model))
        instances = list(decoded)
        if minimal_only and len(instances) > 1:
            deltas = {inst: inst.delta(self.instance)
                      for inst in instances}
            instances = [inst for inst in instances
                         if not any(deltas[other] < deltas[inst]
                                    for other in instances
                                    if other is not inst)]
        return canonical_order(instances)

    def _decode(self, model) -> DatabaseInstance:
        """Read a solution instance off an answer set (final layer when
        the layered local-IC construction is active)."""
        if not self.uses_final_layer:
            return decode_model(model, self.instance, self.context)
        replaced: dict[str, set[tuple]] = {
            relation: set()
            for relation in (self.context.changeable
                             | self.context.foreign_primed)
            if relation in self.instance.schema}
        for literal in model:
            if not literal.positive or literal.naf:
                continue
            relation = self.name_map.relation_of_final(literal.predicate)
            if relation is None or relation not in replaced:
                continue
            replaced[relation].add(literal.atom.value_tuple())
        return self.instance.replace_relations(replaced)

    # ------------------------------------------------------------------
    # Query programs (Section 3.2)
    # ------------------------------------------------------------------
    def query_program_answers(self, query: Query,
                              *, skeptical: bool = True) -> set[tuple]:
        """Run a conjunctive query program over the virtual relations.

        Implements "running the query, expressed as a query program in
        terms of the virtually repaired tables, in combination with
        program Π ... under the skeptical answer set semantics"
        (Section 3.2).  Supports conjunctive queries (∧/∃/comparisons);
        richer FO queries should be answered against
        :meth:`solutions` instead.
        """
        query_context = _FinalContext(self) if self.uses_final_layer \
            else self.context
        body = _conjunctive_body(query.formula, query_context)
        ans_pred = "ans_query"
        head = Atom(ans_pred, query.head)
        program = self.program.extend([Rule(head=[head], body=body)])
        engine = AnswerSetEngine(program)
        query_atom = Atom(ans_pred, query.head)
        if skeptical:
            return engine.skeptical_answers(query_atom)
        return engine.brave_answers(query_atom)


def _conjunctive_body(formula: Formula,
                      context: TranslationContext) -> list:
    """Translate a conjunctive FO formula into a rule body over the
    solution-level predicates."""
    if isinstance(formula, RelAtom):
        pred = context.solution_pred(formula.relation)
        return [Literal(Atom(pred, formula.terms))]
    if isinstance(formula, Cmp):
        return [formula.comparison]
    if isinstance(formula, And):
        body: list = []
        for part in formula.parts:
            body.extend(_conjunctive_body(part, context))
        return body
    if isinstance(formula, Exists):
        return _conjunctive_body(formula.sub, context)
    raise SystemError_(
        f"query programs support conjunctive queries; "
        f"{type(formula).__name__} found — evaluate the FO query over the "
        f"decoded solutions instead")


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


def asp_solutions_for_peer(system: PeerSystem, peer: str, *,
                           include_local_ics: bool = True,
                           minimal_only: bool = True
                           ) -> list[DatabaseInstance]:
    """The solutions for ``peer`` computed through the ASP specification.

    Stage 1 (`less` DECs, own relations changeable) and stage 2 (`same`
    DECs with the `less` DECs enforced) each run as a Section 3.1 program;
    the composition implements Definition 4 exactly (validated against the
    model-theoretic :func:`repro.core.solutions.solutions_for_peer`).
    """
    less, same, local, own, stage2_changeable, _search = _stage_specs(
        system, peer, include_local_ics=include_local_ics)
    global_instance = system.global_instance()

    # the specification program embeds the neighbours' data as facts —
    # record those data requests on the exchange log (Example 2's
    # narrative, here for the ASP mechanism)
    own_set = set(own)
    foreign = set()
    for constraint in (*less, *same):
        foreign |= constraint.relations() - own_set
    for relation in sorted(foreign):
        system.fetch_relation(peer, relation, purpose="asp specification")

    if less or local:
        # local ICs are applied at stage 1 even without `less` DECs so
        # that footnote-1 systems (locally inconsistent instances) get
        # repaired on the ASP route too
        stage1_spec = GavSpecification(global_instance, less, own,
                                       local_ics=local)
        stage1_results = stage1_spec.solutions(minimal_only=minimal_only)
    else:
        stage1_results = [global_instance]

    # each specification's solutions come distinct and in canonical order,
    # so only a merge of several stage-2 lists needs ordering again
    if not same:
        return stage1_results

    final: dict[DatabaseInstance, None] = {}
    for stage1 in stage1_results:
        stage2_spec = GavSpecification(stage1, same, stage2_changeable,
                                       enforce=less, local_ics=local)
        for solution in stage2_spec.solutions(minimal_only=minimal_only):
            final.setdefault(solution)
    if len(stage1_results) == 1:
        return list(final)
    return canonical_order(final)


def asp_peer_consistent_answers(system: PeerSystem, peer: str,
                                query: Query, *,
                                include_local_ics: bool = True
                                ) -> PCAResult:
    """Peer consistent answers via the ASP route (Definition 5)."""
    solutions = asp_solutions_for_peer(
        system, peer, include_local_ics=include_local_ics)
    return pca_from_solutions(system, peer, query, solutions)
