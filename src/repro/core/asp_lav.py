"""The LAV-style three-layer specification (Section 4.2 and the Appendix).

The local-as-view reading of a peer's DECs treats the *material* relations
as views over virtual, solution-level relations, each labelled

* ``closed`` — the virtual relation is contained in the source (it may
  only *shrink*: the antecedent-side relations of the peer, like R1),
* ``open``   — the virtual relation contains the source (it may only
  *grow*: the consequent-side relations, like R2),
* ``clopen`` — both (fixed: the more-trusted peer's relations S1, S2).

The program has the Appendix's three layers, written with *annotation
constants* in the last argument position ([3]):

1. **legal instances**: ``R'(x̄, td) ← R(x̄)`` imports the sources, and
   closure denials ``← R'(x̄, td), not R(x̄)`` pin closed/clopen sources
   (the Appendix misprints these without the ``not``; see DESIGN.md);
2. **repairs**: ``td``/``ta`` (advisory insert) / ``fa`` (advisory delete)
   combine into the solution annotation ``tss``; the DEC's violation rules
   derive ``fa`` / ``ta`` atoms, with the choice operator unfolded into its
   stable version (``chosen``/``diffchoice``), exactly as printed;
3. **trust discipline**: closed relations only ever get ``fa``, open ones
   only ``ta``, clopen ones neither — this is how "the rules that repair
   the chosen legal instances will consider only tuple deletions
   (insertions) for ... closed (resp. open) sources" is realised.

Solutions are the ``tss``-annotated atoms of each stable model.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..datalog.engine import AnswerSetEngine
from ..datalog.program import Program, Rule
from ..datalog.terms import (
    Atom,
    ChoiceGoal,
    Comparison,
    Constant,
    Literal,
    Variable,
)
from ..relational.constraints import (
    Constraint,
    EqualityGeneratingConstraint,
    TupleGeneratingConstraint,
)
from ..relational.instance import DatabaseInstance, canonical_order
from .errors import SystemError_
from .naming import NameMap
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["SourceLabel", "LavSpecification", "labels_for_peer"]

TD = Constant("td")
TA = Constant("ta")
FA = Constant("fa")
TSS = Constant("tss")


class SourceLabel:
    """Per-relation openness label."""

    CLOSED = "closed"
    OPEN = "open"
    CLOPEN = "clopen"


def labels_for_peer(system: PeerSystem, peer: str) -> dict[str, str]:
    """Derive the source labels for a peer with `less`-trusted DECs.

    Antecedent-side own relations are closed, consequent-side own
    relations are open, the trusted neighbour's relations are clopen —
    exactly the Appendix's table.  A relation on both sides falls outside
    the Appendix's class and raises.
    """
    own = set(system.peer(peer).schema.names)
    labels: dict[str, str] = {}
    for exchange in system.trusted_decs_of(peer, TrustLevel.LESS):
        constraint = exchange.constraint
        if not isinstance(constraint, TupleGeneratingConstraint):
            raise SystemError_(
                f"LAV labelling expects referential (tuple-generating) "
                f"DECs; {constraint.name} is "
                f"{type(constraint).__name__}")
        for atom in constraint.antecedent:
            relation = atom.relation
            if relation in own:
                if labels.get(relation) == SourceLabel.OPEN:
                    raise SystemError_(
                        f"relation {relation!r} appears on both sides of "
                        f"the DECs; outside the LAV class")
                labels[relation] = SourceLabel.CLOSED
            else:
                labels[relation] = SourceLabel.CLOPEN
        for atom in constraint.consequent:
            relation = atom.relation
            if relation in own:
                if labels.get(relation) == SourceLabel.CLOSED:
                    raise SystemError_(
                        f"relation {relation!r} appears on both sides of "
                        f"the DECs; outside the LAV class")
                labels[relation] = SourceLabel.OPEN
            else:
                labels[relation] = SourceLabel.CLOPEN
    if system.trusted_decs_of(peer, TrustLevel.SAME):
        raise SystemError_(
            "the LAV construction of Section 4.2 covers `less`-trusted "
            "DECs (fixed neighbour data); use the GAV builder for `same`")
    return labels


class LavSpecification:
    """The three-layer program for one peer's solutions."""

    def __init__(self, instance: DatabaseInstance,
                 decs: Sequence[Constraint],
                 labels: dict[str, str]) -> None:
        self.instance = instance
        self.decs = tuple(decs)
        self.labels = dict(labels)
        for constraint in self.decs:
            missing = constraint.relations() - set(self.labels)
            if missing:
                raise SystemError_(
                    f"DEC {constraint.name} mentions unlabelled relations "
                    f"{sorted(missing)}")
        unknown = set(self.labels) - set(instance.relations())
        if unknown:
            raise SystemError_(
                f"labels for relations {sorted(unknown)} missing from the "
                f"instance")
        self.name_map = NameMap(self.labels)
        self._program: Optional[Program] = None
        self._engine: Optional[AnswerSetEngine] = None

    # ------------------------------------------------------------------
    def _annotated(self, relation: str, terms: Sequence, annotation:
                   Constant) -> Atom:
        return Atom(self.name_map.primed(relation),
                    tuple(terms) + (annotation,))

    def _layer1_rules(self) -> list[Rule]:
        rules: list[Rule] = []
        for relation in sorted(self.labels):
            arity = self.instance.schema.arity(relation)
            variables = tuple(Variable(f"X{i}") for i in range(arity))
            source = Atom(self.name_map.source(relation), variables)
            rules.append(Rule(head=[self._annotated(relation, variables,
                                                    TD)],
                              body=[Literal(source)]))
            if self.labels[relation] in (SourceLabel.CLOSED,
                                         SourceLabel.CLOPEN):
                # corrected closure denial (Appendix misprint):
                # :- R'(x̄, td), not R(x̄).
                rules.append(Rule(head=(), body=[
                    Literal(self._annotated(relation, variables, TD)),
                    Literal(source, naf=True)]))
        return rules

    def _layer2_scaffold(self) -> list[Rule]:
        rules: list[Rule] = []
        for relation in sorted(self.labels):
            arity = self.instance.schema.arity(relation)
            variables = tuple(Variable(f"X{i}") for i in range(arity))
            td = self._annotated(relation, variables, TD)
            ta = self._annotated(relation, variables, TA)
            fa = self._annotated(relation, variables, FA)
            tss = self._annotated(relation, variables, TSS)
            rules.append(Rule(head=[tss],
                              body=[Literal(td), Literal(fa, naf=True)]))
            rules.append(Rule(head=[tss], body=[Literal(ta)]))
            rules.append(Rule(head=(), body=[Literal(ta), Literal(fa)]))
        return rules

    def _dec_repair_rules(self) -> list[Rule]:
        rules: list[Rule] = []
        counter = 0
        for constraint in self.decs:
            counter += 1
            if isinstance(constraint, TupleGeneratingConstraint):
                rules.extend(self._tgd_repair_rules(constraint, counter))
            elif isinstance(constraint, EqualityGeneratingConstraint):
                rules.extend(self._egd_repair_rules(constraint))
            else:
                raise SystemError_(
                    f"LAV repair layer supports TGD/EGD DECs, not "
                    f"{type(constraint).__name__}")
        return rules

    def _tgd_repair_rules(self, constraint: TupleGeneratingConstraint,
                          index: int) -> list[Rule]:
        closed_ant = [a for a in constraint.antecedent
                      if self.labels[a.relation] == SourceLabel.CLOSED]
        open_cons = [a for a in constraint.consequent
                     if self.labels[a.relation] == SourceLabel.OPEN]
        clopen_cons = [a for a in constraint.consequent
                       if self.labels[a.relation] == SourceLabel.CLOPEN]
        if constraint.cons_conditions:
            raise SystemError_(
                "LAV repair layer does not support consequent conditions")

        trigger: list = [
            Literal(self._annotated(a.relation, a.terms, TD))
            for a in constraint.antecedent]
        trigger.extend(c.comparison for c in constraint.conditions)

        deletion_heads = [
            Literal(self._annotated(a.relation, a.terms, FA))
            for a in closed_ant]

        uvars_consequent = tuple(sorted(
            {v for a in constraint.consequent
             for v in a.free_variables() & constraint.universal_vars},
            key=lambda v: v.name))
        aux1 = Atom(f"aux{2 * index - 1}", uvars_consequent)
        aux1_body = [Literal(self._annotated(a.relation, a.terms, TD))
                     for a in constraint.consequent]
        rules = [Rule(head=[aux1], body=aux1_body)]
        not_aux1 = Literal(aux1, naf=True)

        exist_vars = tuple(sorted(constraint.existential_vars,
                                  key=lambda v: v.name))
        if exist_vars and clopen_cons:
            uvars_clopen = tuple(sorted(
                {v for a in clopen_cons
                 for v in a.free_variables() & constraint.universal_vars},
                key=lambda v: v.name))
            aux2 = Atom(f"aux{2 * index}", uvars_clopen)
            rules.append(Rule(
                head=[aux2],
                body=[Literal(self._annotated(a.relation, a.terms, TD))
                      for a in clopen_cons]))
            rules.append(Rule(head=deletion_heads,
                              body=trigger + [not_aux1,
                                              Literal(aux2, naf=True)]))
        elif not open_cons:
            rules.append(Rule(head=deletion_heads,
                              body=trigger + [not_aux1]))

        if open_cons:
            witness_atoms = [
                Literal(self._annotated(a.relation, a.terms, TD))
                for a in clopen_cons]
            insert_heads = [
                Literal(self._annotated(a.relation, a.terms, TA))
                for a in open_cons]
            body = trigger + [not_aux1] + witness_atoms
            choice_domain = tuple(sorted(
                {v for a in constraint.consequent
                 for v in a.free_variables() & constraint.universal_vars},
                key=lambda v: v.name))
            if exist_vars:
                body.append(ChoiceGoal(choice_domain, exist_vars))
            if len(insert_heads) > 1:
                raise SystemError_(
                    "LAV repair layer supports single-atom open "
                    "consequents (the paper's 'simple referential DECs')")
            rules.append(Rule(head=deletion_heads + insert_heads,
                              body=body))
        return rules

    def _egd_repair_rules(self, constraint: EqualityGeneratingConstraint
                          ) -> list[Rule]:
        deletion_heads = [
            Literal(self._annotated(a.relation, a.terms, FA))
            for a in constraint.antecedent
            if self.labels[a.relation] == SourceLabel.CLOSED]
        trigger: list = [
            Literal(self._annotated(a.relation, a.terms, TD))
            for a in constraint.antecedent]
        trigger.extend(c.comparison for c in constraint.conditions)
        rules = []
        for left, right in constraint.equalities:
            rules.append(Rule(head=deletion_heads,
                              body=trigger
                              + [Comparison("!=", left, right)]))
        return rules

    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        if self._program is None:
            rules = (self._layer1_rules() + self._layer2_scaffold()
                     + self._dec_repair_rules())
            facts = []
            for relation in sorted(self.labels):
                pred = self.name_map.source(relation)
                for values in sorted(
                        self.instance.tuples(relation),
                        key=lambda row: tuple((isinstance(v, str), str(v))
                                              for v in row)):
                    facts.append(Rule(head=[Atom(pred, values)]))
            self._program = Program(rules + facts)
        return self._program

    @property
    def engine(self) -> AnswerSetEngine:
        if self._engine is None:
            self._engine = AnswerSetEngine(self.program)
        return self._engine

    def answer_sets(self):
        return self.engine.answer_sets()

    def solutions(self) -> list[DatabaseInstance]:
        """The tss-projection of each stable model, as instances."""
        decoded: dict[DatabaseInstance, None] = {}
        for model in self.answer_sets():
            contents: dict[str, set[tuple]] = {r: set()
                                               for r in self.labels}
            for literal in model:
                if not literal.positive or literal.naf:
                    continue
                relation = self.name_map.relation_of_primed(
                    literal.predicate)
                if relation is None:
                    continue
                values = literal.atom.value_tuple()
                if values and values[-1] == "tss":
                    contents[relation].add(values[:-1])
            decoded.setdefault(
                self.instance.replace_relations(contents))
        return canonical_order(decoded)
