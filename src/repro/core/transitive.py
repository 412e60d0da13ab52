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
the detection.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from ..datalog.engine import AnswerSetEngine
from ..datalog.program import Program, Rule
from ..datalog.terms import Atom
from ..relational.instance import DatabaseInstance, canonical_order
from ..relational.query import Query
from .asp_common import (
    TranslationContext,
    dec_rules,
    decode_model,
    instance_facts,
    local_ic_rules,
    make_aux_names,
)
from .errors import SystemError_
from .naming import NameMap
from .pca import PCAResult, pca_from_solutions
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["TransitiveSpecification", "global_solutions",
           "transitive_peer_consistent_answers"]


class TransitiveSpecification:
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

        self.has_cycles = self._detect_cycles()
        self.global_instance = system.global_instance()
        self.name_map = NameMap(self.global_instance.relations())
        self._program: Optional[Program] = None
        self._engine: Optional[AnswerSetEngine] = None
        # context used for decoding: every changed relation is primed
        self._decode_context = TranslationContext(
            self.name_map, self.all_changeable)

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

    def _detect_cycles(self) -> bool:
        """Peer-level cycle detection over trusted DEC edges."""
        colour: dict[str, int] = {}

        def visit(node: str) -> bool:
            colour[node] = 1
            for exchange in self.system.trusted_decs_of(node):
                other = exchange.other
                state = colour.get(other, 0)
                if state == 1:
                    return True
                if state == 0 and visit(other):
                    return True
            colour[node] = 2
            return False

        return any(visit(p) for p in self.relevant_peers
                   if colour.get(p, 0) == 0)

    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        if self._program is None:
            rules: list[Rule] = []
            deletable_relations: set[str] = set()
            contexts: list[TranslationContext] = []
            for peer_name in self.relevant_peers:
                changeable = self.changeable_of[peer_name]
                decs = [e.constraint
                        for e in self.system.trusted_decs_of(peer_name)]
                if not decs:
                    continue
                foreign_primed = (self.all_changeable - changeable) & \
                    self._relations_referenced(decs)
                context = TranslationContext(self.name_map, changeable,
                                             foreign_primed)
                contexts.append(context)
                aux = make_aux_names(
                    self.name_map,
                    extra_reserved=self._aux_names_so_far(rules))
                for constraint in decs:
                    rules.extend(dec_rules(constraint, context, aux))
                if self.include_local_ics:
                    rules.extend(local_ic_rules(
                        self.system.peer(peer_name).local_ics, context,
                        aux))
            for rule in rules:
                for literal in rule.head:
                    if not literal.positive:
                        relation = self.name_map.relation_of_primed(
                            literal.predicate)
                        if relation is not None:
                            deletable_relations.add(relation)
            rules.extend(self._persistence_rules(deletable_relations))
            facts = instance_facts(self.global_instance,
                                   self.global_instance.relations(),
                                   self.name_map)
            if any(c.domain_used for c in contexts):
                for value in sorted(
                        self.global_instance.active_domain(),
                        key=lambda v: (isinstance(v, str), str(v))):
                    facts.append(Rule(head=[Atom("dom", (value,))]))
            self._program = Program(rules + facts)
        return self._program

    def _relations_referenced(self, decs) -> set[str]:
        referenced: set[str] = set()
        for constraint in decs:
            referenced |= constraint.relations()
        return referenced

    def _aux_names_so_far(self, rules: Sequence[Rule]) -> set[str]:
        names: set[str] = set()
        for rule in rules:
            names |= rule.predicates()
        return names

    def _persistence_rules(self, deletable: set[str]) -> list[Rule]:
        from ..datalog.terms import Literal, Variable
        rules = []
        for relation in sorted(self.all_changeable):
            arity = self.global_instance.schema.arity(relation)
            variables = tuple(Variable(f"X{i}") for i in range(arity))
            source_atom = Atom(self.name_map.source(relation), variables)
            primed_atom = Atom(self.name_map.primed(relation), variables)
            body: list = [Literal(source_atom)]
            if relation in deletable:
                body.append(Literal(primed_atom, positive=False,
                                    naf=True))
            rules.append(Rule(head=[primed_atom], body=body))
        return rules

    # ------------------------------------------------------------------
    @property
    def engine(self) -> AnswerSetEngine:
        if self._engine is None:
            self._engine = AnswerSetEngine(self.program)
        return self._engine

    def answer_sets(self):
        return self.engine.answer_sets()

    def solutions(self) -> list[DatabaseInstance]:
        """Global solutions = decoded answer sets (Section 4.3 semantics —
        no extra minimisation on top of the stable models)."""
        decoded: dict[DatabaseInstance, None] = {}
        for model in self.answer_sets():
            decoded.setdefault(decode_model(model, self.global_instance,
                                            self._decode_context))
        return canonical_order(decoded)


def global_solutions(system: PeerSystem, root: str,
                     **kwargs) -> list[DatabaseInstance]:
    """Convenience wrapper: the global solutions for ``root``."""
    return TransitiveSpecification(system, root, **kwargs).solutions()


def transitive_peer_consistent_answers(system: PeerSystem, root: str,
                                       query: Query,
                                       **kwargs) -> PCAResult:
    """PCAs under the transitive semantics: intersect over the global
    solutions restricted to the root peer."""
    spec = TransitiveSpecification(system, root, **kwargs)
    return pca_from_solutions(system, root, query, spec.solutions())
