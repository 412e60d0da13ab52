"""Transitive data exchange — Section 4.3, beyond direct solutions.

When peer A imports from B who in turn imports from C, no explicit DEC
relates A and C ("most likely there won't be any explicit DEC from A to C
... and we do not want to derive any").  Instead, the *local specification
programs are combined*: each relevant peer contributes its Section 3.1
rules, with one twist — where a peer's rules would read a neighbour's
relation, they read the neighbour's *virtual* (primed) version whenever
that neighbour's own program defines one (rules (10)–(13) of Example 4).

The paper defines the **global solutions** of the root peer *directly as
the answer sets of the combined program* (no extra minimisation — that is
the definition, not an approximation), and notes that the absence of
stable models signals the absence of solutions, with implicit *cyclic*
dependencies being the problematic case [19]; :attr:`has_cycles` exposes
the detection.  The combined program triggers violations on the source
relations only, as the Section 3.1 rules do, so where some relevant
peer's DECs insert into a relation another DEC reads it can return
solutions that break a DEC; :attr:`out_of_class` flags that mix, and the
``transitive`` method refuses it (typed) through
:func:`transitive_specification_for_peer`.

:class:`TransitiveSpecification` is a
:class:`~repro.core.asp_common.Specification`: it provides the combined
rules, and its solution atoms are the primed atoms of every relation some
relevant peer may change.  Building, solving and answering off the models'
atom ids are the shared core's.
"""

from __future__ import annotations

from collections import deque

from ..datalog.graphs import has_cycle
from ..datalog.program import Rule
from ..relational.instance import DatabaseInstance
from ..relational.query import Query
from .asp_common import (
    Specification,
    TranslationContext,
    dec_rules,
    inserts_into_triggers,
    local_ic_rules,
    make_aux_names,
    persistence_rules,
)
from .asp_gav import AspSolutions
from .errors import SystemError_
from .naming import NameMap
from .pca import PCAResult
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["TransitiveSpecification", "global_solutions",
           "transitive_peer_consistent_answers",
           "transitive_specification_for_peer"]


class TransitiveSpecification(Specification):
    """The combined specification program rooted at one peer."""

    def __init__(self, system: PeerSystem, root: str, *,
                 include_local_ics: bool = True) -> None:
        self.system = system
        self.root = system.peer(root).name
        self.include_local_ics = include_local_ics

        for peer_name in system.peers:
            if system.trusted_decs_of(peer_name, TrustLevel.SAME):
                raise SystemError_(
                    "the combined-program semantics of Section 4.3 is "
                    "defined for `less`-trusted chains; `same` edges need "
                    "the direct two-stage semantics")

        self.relevant_peers = self._reachable_peers()
        self.changeable_of: dict[str, set[str]] = {}
        for peer_name in self.relevant_peers:
            own = set(system.peer(peer_name).schema.names)
            changeable: set[str] = set()
            for exchange in system.trusted_decs_of(peer_name):
                changeable |= exchange.constraint.relations() & own
            self.changeable_of[peer_name] = changeable
        self.all_changeable: set[str] = set()
        for changeable in self.changeable_of.values():
            self.all_changeable |= changeable

        #: a cycle of trusted DEC edges among the relevant peers
        self.has_cycles = has_cycle({
            peer_name: {exchange.other
                        for exchange in system.trusted_decs_of(peer_name)}
            for peer_name in self.relevant_peers})
        #: whether some relevant peer's own DECs insert into a relation a
        #: DEC antecedent reads: the combined program triggers violations
        #: on the sources only and has no belt for that mix, so it would
        #: answer wrongly (:func:`transitive_specification_for_peer`
        #: refuses it)
        self.out_of_class = any(
            inserts_into_triggers(
                (exchange.constraint
                 for exchange in system.trusted_decs_of(peer_name)),
                self.changeable_of[peer_name])
            for peer_name in self.relevant_peers)
        instance = system.global_instance()
        relations = instance.relations()
        super().__init__(instance, NameMap(relations), relations,
                         self.all_changeable)

    # ------------------------------------------------------------------
    def _reachable_peers(self) -> list[str]:
        seen = {self.root}
        queue = deque([self.root])
        order = [self.root]
        while queue:
            current = queue.popleft()
            for exchange in self.system.trusted_decs_of(current):
                if exchange.other not in seen:
                    seen.add(exchange.other)
                    order.append(exchange.other)
                    queue.append(exchange.other)
        return order

    # ------------------------------------------------------------------
    def build_rules(self) -> list[Rule]:
        rules: list[Rule] = []
        for peer_name in self.relevant_peers:
            changeable = self.changeable_of[peer_name]
            decs = [e.constraint
                    for e in self.system.trusted_decs_of(peer_name)]
            if not decs:
                continue
            foreign_primed = (self.all_changeable - changeable) \
                & set().union(*(c.relations() for c in decs))
            context = TranslationContext(self.name_map, changeable,
                                         foreign_primed)
            aux = make_aux_names(self.name_map, extra_reserved=set().union(
                *(rule.predicates() for rule in rules)))
            for constraint in decs:
                rules.extend(dec_rules(constraint, context, aux))
            if self.include_local_ics:
                rules.extend(local_ic_rules(
                    self.system.peer(peer_name).local_ics, context, aux))
        rules.extend(persistence_rules(self.all_changeable, rules,
                                       self.instance, self.name_map.source,
                                       self.name_map.primed))
        return rules


def transitive_specification_for_peer(system: PeerSystem, root: str, *,
                                      include_local_ics: bool = True
                                      ) -> TransitiveSpecification:
    """The combined program rooted at ``root``, for answering.

    Raises :class:`~repro.core.errors.SystemError_` where the program is
    :attr:`~TransitiveSpecification.out_of_class`, instead of returning
    solutions that break a DEC.
    """
    spec = TransitiveSpecification(system, root,
                                   include_local_ics=include_local_ics)
    if spec.out_of_class:
        raise SystemError_(
            f"the combined program rooted at {root!r} has a peer whose "
            f"DECs insert into a relation a DEC antecedent reads; outside "
            f"the class the Section 4.3 program answers exactly")
    return spec


def global_solutions(system: PeerSystem, root: str,
                     **kwargs) -> list[DatabaseInstance]:
    """Convenience wrapper: the global solutions for ``root``."""
    return TransitiveSpecification(system, root, **kwargs).solutions()


def transitive_peer_consistent_answers(system: PeerSystem, root: str,
                                       query: Query,
                                       **kwargs) -> PCAResult:
    """PCAs under the transitive semantics: the answers true in every
    global solution restricted to the root peer, read off the combined
    program's stable models.  Refuses, typed, where
    :func:`transitive_specification_for_peer` does."""
    spec = transitive_specification_for_peer(system, root, **kwargs)
    return AspSolutions(system, root, spec=spec).certain_answers(query)
