"""High-level answer-set engine: program in, answer sets / query answers out.

This is the façade the rest of the library uses.  The pipeline is::

    program (+ fact tables)
      └─ unfold choice goals (stable version)           [choice.py]
      └─ shift disjunctive heads when HCF               [hcf.py]
      └─ ground, seeded with the fact tables and the    [grounding.py]
         program's own facts; the deterministic part
         is evaluated exactly and stays a set of
         relations; only the rest gets atom ids
      └─ split the rest into components: atoms a rule   split_components()
         or a complement pair links share one; a
         bodyless ``:- .`` leaves no model at all
      └─ solve each component on its own, renumbered    solve_components()
         into a compact atom table:
           single atoms defined by facts -> together,
             one model, read off the rules
           otherwise -> branch & bound                  [stable.py]
      └─ per-component models as sets of atom ids       components()
      └─ their cross product, built only on request     id_models()
      └─ rendered, with the deterministic relations,    answer_sets()
         and sorted only on request

Components share no atom, so by the splitting-set theorem (Lifschitz &
Turner 1994) the answer sets of the rest are exactly the unions of one
model per component: independent conflicts are each searched once, and
``k`` of them with two models each cost ``2k`` leaves, not ``2**k``.
A stratified program, tables plus facts, is the one case without search.

Skeptical (cautious) and brave query answering follow the paper's usage:
peer consistent answers are obtained by running a query program "under the
skeptical answer set semantics" (Section 3.2).  The engine's own
:meth:`~AnswerSetEngine.skeptical_answers` and
:meth:`~AnswerSetEngine.brave_answers`, like callers that answer many
queries over one program, ground just the query rule against the already
grounded program (:func:`~repro.datalog.grounding.ground_rule_over`) and
test its ground bodies against the models of just the components their
atoms lie in (:meth:`AnswerSetEngine.components`); a body over
deterministic relations alone holds in every model, and no model is ever
rendered as literals, nor the cross product built, on that route.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterable, Mapping, Optional, Sequence

from .choice import unfold_choice
from .grounding import (
    AtomTable,
    GroundProgram,
    GroundRule,
    ground_program,
    ground_rule_over,
)
from .hcf import can_shift, shift_program
from .program import Program, Rule
from .stable import StableModelSolver
from .terms import Atom, Literal, Variable

__all__ = ["AnswerSetEngine", "Component", "split_components",
           "solve_components", "answer_sets", "skeptical_answers",
           "brave_answers", "has_answer_set"]


class Component:
    """An independent part of a ground program: ``atoms`` (ids of the
    program's atom table, ascending) and ``models``, its stable models as
    frozensets of those ids, in the solver's order.  No rule and no
    complement pair links an atom of one component to an atom of
    another, so the program's answer sets are exactly the unions of one
    model per component."""

    __slots__ = ("atoms", "models")

    def __init__(self, atoms: tuple[int, ...],
                 models: list[frozenset[int]]) -> None:
        self.atoms = atoms
        self.models = models

    def __repr__(self) -> str:
        return (f"Component({len(self.atoms)} atoms, "
                f"{len(self.models)} models)")


def split_components(ground: GroundProgram
                     ) -> Optional[list[tuple[list[int], list[GroundRule]]]]:
    """The connected components of ``ground``: a union-find over the
    atoms of each rule (head and body, so a constraint links its body
    atoms) and of each complement pair.  Each component is its atoms,
    ascending, and its rules, in program order; components come in the
    order of their smallest atom id, and atoms no rule or pair mentions
    (false in every model) are in none.  None when the program holds the
    bodyless constraint ``:- .``, which no model satisfies."""
    parent = list(range(ground.atom_count))
    used = bytearray(ground.atom_count)

    def find(atom: int) -> int:
        root = atom
        while parent[root] != root:
            root = parent[root]
        while parent[atom] != root:
            parent[atom], atom = root, parent[atom]
        return root

    def link(atoms: tuple[int, ...]) -> None:
        for atom in atoms:
            used[atom] = 1
        if len(atoms) > 1:
            # the smallest root wins, so a root is its component's
            # smallest atom
            roots = set(map(find, atoms))
            low = min(roots)
            for root in roots:
                parent[root] = low

    for rule in ground.rules:
        atoms = rule.head + rule.pos + rule.naf
        if not atoms:
            return None
        link(atoms)
    for pair in ground.table.complement_pairs():
        link(pair)
    members: dict[int, list[int]] = {}
    for atom in range(ground.atom_count):
        if used[atom]:
            members.setdefault(find(atom), []).append(atom)
    rules: dict[int, list[GroundRule]] = {root: [] for root in members}
    for rule in ground.rules:
        rules[find((rule.head or rule.pos or rule.naf)[0])].append(rule)
    return [(atoms, rules[root]) for root, atoms in members.items()]


def solve_components(ground: GroundProgram, *, shift_hcf: bool = True,
                     max_models: Optional[int] = None) -> list[Component]:
    """The stable models of ``ground``, one :class:`Component` at a time.

    A component of one atom defined by facts alone has one model, the
    atom; all of those are merged into a single first component (a
    product of one-model parts is their union), so a program of facts
    is one component and needs no search.  Every other component is
    renumbered into a compact atom table and program of its own and
    solved by :class:`~repro.datalog.stable.StableModelSolver`, with at
    most ``max_models`` models (enough for the first ``max_models`` of
    the product).  A program holding ``:- .`` is one component without
    atoms or models.
    """
    parts = split_components(ground)
    if parts is None:
        return [Component((), [])]
    literal_for = ground.table.literal_for
    facts: list[int] = []
    components: list[Component] = []
    for atoms, rules in parts:
        if len(atoms) == 1 and rules and all(
                rule.is_fact() for rule in rules):
            facts.append(atoms[0])
            continue
        local = {atom: index for index, atom in enumerate(atoms)}.__getitem__
        table = AtomTable()
        for atom in atoms:
            table.add(literal_for(atom))
        renumbered = [GroundRule(tuple(map(local, rule.head)),
                                 tuple(map(local, rule.pos)),
                                 tuple(map(local, rule.naf)))
                      for rule in rules]
        solver = StableModelSolver(GroundProgram(table, renumbered),
                                   shift_hcf=shift_hcf,
                                   max_models=max_models)
        components.append(Component(tuple(atoms), [
            frozenset(map(atoms.__getitem__, model))
            for model in solver.solve()]))
    if facts:
        components.insert(0, Component(tuple(facts), [frozenset(facts)]))
    return components


class AnswerSetEngine:
    """Computes and caches the answer sets of one program.

    Parameters:
        program: the (possibly non-ground, disjunctive, choice-bearing)
            program.
        facts: more ground facts, as tables: objective key (``"p"`` or
            ``"-p"``) -> rows of raw constant values.  They are the
            program's facts as much as its own bodyless ground rules are,
            without a :class:`Rule` per row; the grounder copies them.
        shift_hcf: shift disjunctive heads when the program is HCF
            (Section 4.1 optimisation).  Disable only for ablation studies.
        max_models: optional cap on the number of models computed (of
            the product; each component computes at most as many).

    The residual ground program is solved by components
    (:meth:`components`); the whole list of models, their cross product,
    is built only when :meth:`id_models` or :meth:`answer_sets` asks.
    """

    def __init__(self, program: Program, *,
                 facts: Optional[Mapping[str, Iterable[tuple]]] = None,
                 shift_hcf: bool = True,
                 max_models: Optional[int] = None) -> None:
        self.source_program = program
        self._facts = facts
        self._max_models = max_models
        self._shift_hcf = shift_hcf

        prepared = unfold_choice(program)
        if shift_hcf and prepared.has_disjunction() and can_shift(prepared):
            prepared = shift_program(prepared)
        prepared.check_safety()
        self.prepared_program = prepared
        self._ground: Optional[GroundProgram] = None
        self._components: Optional[list[Component]] = None
        self._component_index: Optional[list[int]] = None
        self._id_models: Optional[list[frozenset[int]]] = None
        self._models: Optional[list[frozenset[Literal]]] = None

    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundProgram:
        if self._ground is None:
            self._ground = ground_program(self.prepared_program,
                                          facts=self._facts)
        return self._ground

    def components(self) -> list[Component]:
        """The residual program's independent components, each with its
        stable models as frozensets of :attr:`ground`'s atom ids
        (memoised; :func:`solve_components`).  The program has a model
        iff every component has one, and its models are the unions of
        one model per component."""
        if self._components is None:
            self._components = solve_components(
                self.ground, shift_hcf=self._shift_hcf,
                max_models=self._max_models)
        return self._components

    @property
    def component_index(self) -> list[int]:
        """Per atom id, the index of its component in :meth:`components`;
        -1 for an atom in none (false in every model)."""
        if self._component_index is None:
            index = [-1] * self.ground.atom_count
            for number, component in enumerate(self.components()):
                for atom in component.atoms:
                    index[atom] = number
            self._component_index = index
        return self._component_index

    def id_models(self) -> list[frozenset[int]]:
        """All answer sets, as frozensets of ids of :attr:`ground`'s atom
        table (memoised): the cross product of the components' models,
        at most ``max_models`` of them, sorted by their sorted ids.  Only
        the part that can differ between models has ids: the
        deterministic relations, ``ground.facts``, hold in each of them
        besides.

        Ids follow grounding order, so the order is only fit for
        order-free consumers (intersections, unions, counts).
        """
        if self._id_models is None:
            models = (frozenset().union(*combination)
                      for combination in product(*(
                          component.models
                          for component in self.components())))
            self._id_models = sorted(
                islice(models, self._max_models), key=sorted)
        return self._id_models

    def answer_sets(self) -> list[frozenset[Literal]]:
        """All answer sets, as frozensets of objective literals: the
        rendered view of :meth:`id_models`, deterministic relations
        included.

        Deterministic order, independent of hash seeds: models compare by
        their sorted rendered literals.  Each atom occurring in some model
        is rendered once and ranked, and models are sorted by their sorted
        rank tuples, which gives the same order without rendering every
        literal of every model.  The deterministic literals every model
        shares can decide that order only through the greatest of them
        (it makes a model that ends early compare as longer), so that one
        alone joins each rank tuple.  Zero or one model is not sorted at
        all.
        """
        if self._models is not None:
            return self._models
        ground = self.ground
        id_models = self.id_models()
        if len(id_models) > 1:
            text = {atom: str(ground.table.literal_for(atom))
                    for atom in frozenset().union(*id_models)}
            shared = sorted(map(str, ground.fact_literals()))[-1:]
            rank = {s: r for r, s in enumerate(sorted(
                {*text.values(), *shared}))}
            tail = [rank[s] for s in shared]
            id_models = sorted(id_models, key=lambda m: sorted(
                [rank[text[a]] for a in m] + tail))
        models = [ground.model_literals(id_model) for id_model in id_models]
        self._models = models
        return models

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """True when the program has at least one answer set: when every
        component has a model."""
        return all(component.models for component in self.components())

    def skeptical_answers(self, query: Atom) -> set[tuple]:
        """Value tuples for the query's variables true in *every* answer set.

        A program without answer sets yields no skeptical answers (the
        paper treats the absence of solutions as "no peer consistent
        answers can be certified"; callers may distinguish that case via
        :meth:`is_consistent`).
        """
        return self._holding(query, skeptical=True)

    def brave_answers(self, query: Atom) -> set[tuple]:
        """Value tuples true in *some* answer set."""
        return self._holding(query, skeptical=False)

    def _holding(self, query: Atom, skeptical: bool) -> set[tuple]:
        """``ans(vars) :- query`` grounded over :attr:`ground` and tested
        against the components' models: the answer tuple lists values in
        order of first appearance of each distinct variable (constants
        in the query act as filters)."""
        variables = tuple(dict.fromkeys(
            arg for arg in query.args if isinstance(arg, Variable)))
        rule = Rule(head=[Atom("ans", variables)], body=[Literal(query)])
        return _holding_answers(
            ground_rule_over(rule, self.ground),
            [component.models for component in self.components()],
            self.component_index, skeptical)


def _holding_answers(instances: Iterable[tuple[tuple, tuple]],
                     parts: Sequence[Sequence[frozenset[int]]],
                     component_of: Sequence[int],
                     skeptical: bool) -> set[tuple]:
    """The answer tuples of ``(answer, body ids)`` instances with a body
    inside every model (``skeptical``) or inside some model; none without
    models.

    The models are the unions of one of ``parts[c]`` per component ``c``
    (``component_of`` maps an atom id to its component, -1 for an atom
    in none, false everywhere), and they are never listed: a body is
    checked against the components its atoms lie in only.
    """
    if not all(parts):
        return set()
    # a body inside every model settles its tuple at once; only the
    # others are kept and checked component by component
    common = frozenset().union(*(frozenset.intersection(*models)
                                 for models in parts))
    answers: set[tuple] = set()
    pending: dict[tuple, list[tuple]] = {}
    for answer, body in instances:
        if answer in answers:
            continue
        if common.issuperset(body):
            answers.add(answer)
        else:
            pending.setdefault(answer, []).append(body)
    for answer, bodies in pending.items():
        if answer not in answers and (
                _in_every_model(bodies, parts, component_of, common)
                if skeptical else _in_some_model(bodies, parts,
                                                 component_of)):
            answers.add(answer)
    return answers


def _in_some_model(bodies: list[tuple], parts, component_of) -> bool:
    """Whether some model holds one of ``bodies``: one body's atoms, in
    each component they lie in, inside one model of that component."""
    for body in bodies:
        wanted: dict[int, list[int]] = {}
        for atom in body:
            wanted.setdefault(component_of[atom], []).append(atom)
        if -1 not in wanted and all(
                any(model.issuperset(atoms) for model in parts[number])
                for number, atoms in wanted.items()):
            return True
    return False


def _in_every_model(bodies: list[tuple], parts, component_of,
                    common: frozenset[int]) -> bool:
    """Whether every model holds one of ``bodies``, none of which is
    inside ``common``.  One such body fails in some model; several may
    cover each other's gaps, so they are checked over the product of
    the models of just the components where they leave ``common``."""
    if len(bodies) < 2:
        return False
    touched = sorted({component_of[atom] for body in bodies
                      for atom in body if atom not in common} - {-1})
    return all(any(chosen.issuperset(body) for body in bodies)
               for chosen in (common.union(*combination)
                              for combination in product(
                                  *(parts[number] for number in touched))))


def answer_sets(program: Program, **kwargs) -> list[frozenset[Literal]]:
    """All answer sets of ``program`` (convenience wrapper)."""
    return AnswerSetEngine(program, **kwargs).answer_sets()


def skeptical_answers(program: Program, query: Atom, **kwargs) -> set[tuple]:
    """Skeptical (cautious) answers to ``query`` over ``program``."""
    return AnswerSetEngine(program, **kwargs).skeptical_answers(query)


def brave_answers(program: Program, query: Atom, **kwargs) -> set[tuple]:
    """Brave (possible) answers to ``query`` over ``program``."""
    return AnswerSetEngine(program, **kwargs).brave_answers(query)


def has_answer_set(program: Program, **kwargs) -> bool:
    """Answer-set existence (consistency of the specification)."""
    kwargs.setdefault("max_models", 1)
    return AnswerSetEngine(program, **kwargs).is_consistent()
