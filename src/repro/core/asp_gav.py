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
skeptical answers of a query program over the primed relations.
:class:`GavSpecification` is a :class:`~repro.core.asp_common.Specification`:
the shared core projects each model onto the solution atoms, answers a
conjunctive query off the models' atom ids and decodes instances only when
asked for.  What is GAV's own are the rules above, the solution atoms
(primed, or final-layer, atoms of the replaced relations) and, through
:attr:`delta_minimal`, the Δ-minimality post-filter: it compares those
projections' symmetric differences with the source rows' atoms — exactly
``delta`` of the decoded instances — and guarantees agreement with
Definition 4 in all cases (on the paper's DEC class, acyclic and
witness-guarded, it discards nothing).

:class:`AspSolutions` composes two such programs to implement the full
two-stage semantics of Definition 4 (the paper's Section 3.1 example is
single-stage — only a `less` neighbour) and is what a session caches for
``method="asp"`` (and, around their one program, for ``lav`` and
``transitive``); :func:`asp_solutions_for_peer` lists its instances.
Queries that are not conjunctive, and the case where several stage-1
solutions feed `same` DECs, fall back to decoding and intersecting.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from ..datalog.errors import SafetyError
from ..datalog.program import Rule
from ..datalog.terms import Atom, Comparison, Literal
from ..relational.constraints import (
    Constraint,
    DenialConstraint,
    EqualityGeneratingConstraint,
)
from ..relational.instance import DatabaseInstance, canonical_order
from ..relational.query import Query
from .asp_common import (
    Specification,
    TranslationContext,
    _holding_answers,
    dec_rules,
    hard_constraint_rules,
    inserts_into_triggers,
    local_ic_rules,
    make_aux_names,
    persistence_rules,
)
from .errors import SystemError_
from .naming import NameMap
from .pca import PCAResult, pca_from_solutions, possible_from_solutions
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["GavSpecification", "AspSolutions", "asp_solutions_for_peer",
           "asp_peer_consistent_answers", "gav_out_of_class"]


class GavSpecification(Specification):
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

    The solutions are the Δ-minimal projections of the stable models onto
    the primed (or, with the final layer, final) atoms of the changeable
    and foreign-primed relations.
    """

    delta_minimal = True

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
        name_map = NameMap(self.scope)
        self.context = TranslationContext(name_map, changeable,
                                          foreign_primed)
        super().__init__(instance, name_map, self.scope,
                         self.context.changeable
                         | self.context.foreign_primed)

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    @property
    def uses_final_layer(self) -> bool:
        """True when the two-layer local-IC construction is active."""
        return bool(self.local_ics) and self.local_ic_mode == "layered"

    @property
    def out_of_class(self) -> bool:
        """True when the repair DECs insert into a relation that a DEC
        antecedent reads
        (:func:`~repro.core.asp_common.inserts_into_triggers`).

        For such systems the builder adds solution-state hard constraints:
        models that sneak an unrepaired violation past the source triggers
        are pruned, so the program never *fabricates* solutions (it may
        under-approximate, so the ``asp`` method refuses such a peer, see
        :func:`gav_out_of_class`, and ``auto`` answers it with the
        model-theoretic route).
        """
        return inserts_into_triggers(self.repair_decs,
                                     self.context.changeable)

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
        rules.extend(persistence_rules(self.context.changeable, rules,
                                       self.instance, self.name_map.source,
                                       self.name_map.primed))
        if self.uses_final_layer:
            rules.extend(self._final_layer_rules(aux))
        return rules

    # -- the second layer of Section 3.2's flexible alternative ----------
    def _final_pred(self, relation: str) -> str:
        """Solution-level predicate of the *final* (IC-repaired) state."""
        if relation in self._replaced:
            return self.name_map.final(relation)
        return self.name_map.source(relation)

    def _final_layer_rules(self, aux) -> list[Rule]:
        # local-IC repair rules: trigger on the layer-A state, delete in
        # the final layer
        repairs: list[Rule] = []
        for constraint in self.local_ics:
            if not isinstance(constraint, (DenialConstraint,
                                           EqualityGeneratingConstraint)):
                raise SystemError_(
                    f"the layered local-IC construction supports denial "
                    f"and equality-generating ICs; {constraint.name} is "
                    f"{type(constraint).__name__}")
            heads = [Literal(Atom(self.name_map.final(atom.relation),
                                  atom.terms), positive=False)
                     for atom in constraint.antecedent
                     if atom.relation in self.context.changeable]
            trigger: list = [
                Literal(Atom(self.context.solution_pred(atom.relation),
                             atom.terms))
                for atom in constraint.antecedent]
            trigger.extend(c.comparison for c in constraint.conditions)
            if isinstance(constraint, EqualityGeneratingConstraint):
                repairs.extend(
                    Rule(head=heads,
                         body=trigger + [Comparison("!=", left, right)])
                    for left, right in constraint.equalities)
            else:
                repairs.append(Rule(head=heads, body=trigger))

        # copy layer-A output into the final layer
        rules = persistence_rules(self._replaced, repairs, self.instance,
                                  self.name_map.primed,
                                  self.name_map.final)
        rules.extend(repairs)
        # the DECs (and stage-2 enforcements) must still hold of the
        # final state: the IC layer may only delete what the DECs do not
        # pin down
        final_context = SimpleNamespace(solution_pred=self._final_pred)
        for constraint in (*self.repair_decs, *self.enforce):
            rules.extend(hard_constraint_rules(constraint, final_context,
                                               aux))
        return rules

    # ------------------------------------------------------------------
    # The solution-atom and query-atom hooks
    # ------------------------------------------------------------------
    def _solution_row(self, predicate: str,
                      values: tuple) -> Optional[tuple[str, tuple]]:
        relation = (self.name_map.relation_of_final if self.uses_final_layer
                    else self.name_map.relation_of_primed)(predicate)
        return None if relation is None else (relation, values)

    def _query_atom(self, relation: str, terms: tuple) -> Atom:
        if not self.uses_final_layer:
            return super()._query_atom(relation, terms)
        return Atom(self._final_pred(relation), terms)


# ---------------------------------------------------------------------------
# Peer-level composition (Definition 4 via ASP)
# ---------------------------------------------------------------------------

class AspSolutions:
    """The solutions for one peer on an ASP route, kept solved.

    Holds a :class:`~repro.core.asp_common.Specification`: for ``asp`` the
    final-stage :class:`GavSpecification` (stage 2 when the peer has
    `same` DECs, stage 1 otherwise), for ``lav`` and ``transitive`` their
    one program.  A conjunctive query is answered off its stable models'
    atom ids: the query rule is grounded against the specification's
    table (:meth:`~repro.core.asp_common.Specification.query_instances`)
    and each ground body is tested against one model per distinct
    solution part of just the program components its atoms lie in
    (:meth:`~repro.core.asp_common.Specification.component_solutions`),
    so the solutions are never listed; ``solution_count`` is the product
    of the components' counts.
    Iterating decodes the solution instances, in canonical order, on
    first use only.

    Without a specification to answer from — no DECs and no local ICs, or
    several stage-1 solutions feeding `same` DECs, whose cross-branch
    dedup needs decoded content — it holds the decoded instances, and
    queries are evaluated on each, as they are for a query that is not
    conjunctive or not safe, or that reads a relation the program does
    not hold.
    """

    def __init__(self, system: PeerSystem, peer: str, *,
                 spec: Optional[Specification] = None,
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
        less, same, own, stage2_changeable = _stages(system, peer)
        local = list(system.peer(peer).local_ics) \
            if include_local_ics else []
        global_instance = system.global_instance()

        # the specification program embeds the neighbours' data as facts
        # — record those data requests on the exchange log (Example 2's
        # narrative, here for the ASP mechanism)
        foreign = set()
        for constraint in (*less, *same):
            foreign |= constraint.relations() - own
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
            if stage1.solution_count(minimal_only=minimal_only) != 1:
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
                parts = self.spec.component_solutions(
                    minimal_only=self._minimal_only)
                return PCAResult(
                    _holding_answers(instances, parts,
                                     self.spec.engine.component_index,
                                     skeptical),
                    self.spec.solution_count(
                        minimal_only=self._minimal_only))
        combine = pca_from_solutions if skeptical \
            else possible_from_solutions
        return combine(self.system, self.peer, query, self.instances())


def _stages(system: PeerSystem, peer: str
            ) -> tuple[list[Constraint], list[Constraint], set[str],
                       set[str]]:
    """The two stages of Definition 4 for ``peer``: its `less` DECs, its
    `same` DECs, the relations stage 1 may change (its own) and those
    stage 2 may change (its own and its `same` neighbours')."""
    less = [e.constraint for e in
            system.trusted_decs_of(peer, TrustLevel.LESS)]
    same_decs = system.trusted_decs_of(peer, TrustLevel.SAME)
    own = set(system.peer(peer).schema.names)
    stage2_changeable = set(own)
    for exchange in same_decs:
        stage2_changeable |= set(system.peer(exchange.other).schema.names)
    return less, [e.constraint for e in same_decs], own, stage2_changeable


def gav_out_of_class(system: PeerSystem, peer: str) -> bool:
    """True when a stage of ``peer``'s GAV specification is
    :attr:`~GavSpecification.out_of_class`: its repair DECs insert into a
    relation that one of them reads.  The program may then
    under-approximate the solutions, so the ``asp`` method refuses such a
    peer.  Decided on the DECs alone, without building a program."""
    less, same, own, stage2_changeable = _stages(system, peer)
    return inserts_into_triggers(less, own) \
        or inserts_into_triggers(same, stage2_changeable)


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
