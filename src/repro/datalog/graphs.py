"""Dependency analysis: SCCs, stratification, head-cycle-freedom.

The graphs are keyed on *objective predicates*: a classically negated atom
``-p`` depends separately from ``p`` (they are distinct predicate symbols in
extended programs, tied together only by the implicit consistency
constraint).  The key is the string ``"p"`` or ``"-p"``.

Head-cycle-freedom (HCF) follows Ben-Eliyahu & Dechter [4], quoted by the
paper (Section 4.1): build the positive dependency graph with an edge from
each positive body literal to each head literal of the same rule; the program
is HCF when no two literals in the same rule head share a cycle (i.e. lie in
the same strongly connected component).  On non-ground programs this is the
standard predicate-level approximation (sound: predicate-level HCF implies
ground-level HCF); :func:`is_head_cycle_free` also works on ground programs
where it is exact.

Following the paper's Proposition in Section 4.1 (citing [6]), a *choice*
program is HCF when the program obtained by removing its choice goals is HCF
— choice goals are simply ignored when building the graph, which implements
exactly that test.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .program import Program, Rule
from .terms import Literal

__all__ = [
    "objective_key",
    "positive_dependency_graph",
    "dependency_edges",
    "strongly_connected_components",
    "has_cycle",
    "condensation_order",
    "stratification",
    "is_stratified",
    "is_head_cycle_free",
    "head_cycle_components",
]


def objective_key(literal: Literal) -> str:
    """Graph key for an objective literal: ``"p"`` or ``"-p"``."""
    return literal.predicate if literal.positive else f"-{literal.predicate}"


def positive_dependency_graph(program: Program
                              ) -> dict[str, set[str]]:
    """Adjacency map ``body-literal-key -> {head-literal-keys}``.

    Edges go from positive body literals to head literals, per the HCF
    definition.  All predicates appearing in the program are present as
    nodes, possibly with empty out-edges.
    """
    graph: dict[str, set[str]] = {}

    def node(key: str) -> set[str]:
        return graph.setdefault(key, set())

    for rule in program:
        head_keys = [objective_key(lit) for lit in rule.head]
        for key in head_keys:
            node(key)
        for body_lit in rule.positive_body():
            body_key = objective_key(body_lit)
            node(body_key)
            for head_key in head_keys:
                node(body_key).add(head_key)
        for body_lit in rule.naf_body():
            node(objective_key(body_lit))
    return graph


def dependency_edges(program: Iterable[Rule]
                     ) -> tuple[dict[str, set[str]], set[tuple[str, str]]]:
    """Full dependency graph plus the set of *negative* edges.

    Edges run ``head-key -> body-key`` ("head depends on body"), the
    orientation used for stratification.  The second component contains the
    edges induced by NAF body literals.
    """
    graph: dict[str, set[str]] = {}
    negative: set[tuple[str, str]] = set()

    def node(key: str) -> set[str]:
        return graph.setdefault(key, set())

    for rule in program:
        head_keys = [objective_key(lit) for lit in rule.head]
        for key in head_keys:
            node(key)
        for body_lit in rule.body:
            if not isinstance(body_lit, Literal):
                continue
            body_key = objective_key(body_lit)
            node(body_key)
            for head_key in head_keys:
                node(head_key).add(body_key)
                if body_lit.naf:
                    negative.add((head_key, body_key))
        # A disjunctive head makes its literals mutually dependent: deriving
        # one is entangled with not deriving the others.
        if len(head_keys) > 1:
            for first in head_keys:
                for second in head_keys:
                    if first != second:
                        node(first).add(second)
                        negative.add((first, second))
    return graph, negative


def strongly_connected_components(graph: Mapping[Hashable, Iterable[Hashable]]
                                  ) -> list[set]:
    """Tarjan's algorithm, iterative (no recursion-depth limit).

    Returns components in reverse topological order (a component appears
    before any component it points to... specifically, Tarjan emits a
    component only after all components reachable from it).
    """
    index_counter = 0
    indices: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[set] = []

    for root in graph:
        if root in indices:
            continue
        work = [(root, iter(graph.get(root, ())))]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edge_iter = work[-1]
            advanced = False
            for successor in edge_iter:
                if successor not in indices:
                    indices[successor] = lowlink[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def has_cycle(graph: Mapping[Hashable, Iterable[Hashable]]) -> bool:
    """Whether ``graph`` has a cycle: a strongly connected component with
    more than one node, or a node with an edge to itself."""
    return any(node in graph.get(node, ()) for node in graph) or any(
        len(component) > 1
        for component in strongly_connected_components(graph))


def condensation_order(graph: Mapping[Hashable, Iterable[Hashable]]
                       ) -> list[set]:
    """SCCs in dependency order: a component's successors come earlier."""
    return strongly_connected_components(graph)


def stratification(program: Program) -> dict[str, int] | None:
    """Assign strata to objective predicates, or ``None`` if unstratifiable.

    A program is stratified when no cycle of the dependency graph contains a
    negative edge.  Stratum numbers respect: positive dependency -> same or
    lower stratum for the body; negative dependency -> strictly lower.
    """
    graph, negative = dependency_edges(program)
    components = strongly_connected_components(graph)
    component_of: dict[str, int] = {}
    for number, component in enumerate(components):
        for key in component:
            component_of[key] = number
    for head_key, body_key in negative:
        if component_of[head_key] == component_of[body_key]:
            return None

    # components come in reverse topological order: dependencies first.
    strata: dict[str, int] = {}
    component_stratum: dict[int, int] = {}
    for number, component in enumerate(components):
        level = 0
        for key in component:
            for body_key in graph.get(key, ()):
                body_component = component_of[body_key]
                if body_component == number:
                    continue
                base = component_stratum[body_component]
                if (key, body_key) in negative:
                    level = max(level, base + 1)
                else:
                    level = max(level, base)
        component_stratum[number] = level
        for key in component:
            strata[key] = level
    return strata


def is_stratified(program: Program) -> bool:
    """True when the program has a stratification (no recursion via NAF)."""
    return stratification(program) is not None


def _head_groups(program: Program) -> list[list[str]]:
    return [[objective_key(lit) for lit in rule.head]
            for rule in program if rule.is_disjunctive()]


def head_cycle_components(program: Program) -> list[tuple[str, str]]:
    """Pairs of same-head literals that share an SCC (witnesses of non-HCF)."""
    graph = positive_dependency_graph(program)
    components = strongly_connected_components(graph)
    component_of: dict[str, int] = {}
    for number, component in enumerate(components):
        for key in component:
            component_of[key] = number
    witnesses: list[tuple[str, str]] = []
    for group in _head_groups(program):
        for i, first in enumerate(group):
            for second in group[i + 1:]:
                if first == second:
                    continue
                if component_of[first] == component_of[second]:
                    witnesses.append((first, second))
    return witnesses


def is_head_cycle_free(program: Program) -> bool:
    """HCF test of Section 4.1 (choice goals are ignored, per the paper)."""
    return not head_cycle_components(program)
