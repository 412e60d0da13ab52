"""High-level answer-set engine: program in, answer sets / query answers out.

This is the façade the rest of the library uses.  The pipeline is::

    program (+ fact tables)
      └─ unfold choice goals (stable version)           [choice.py]
      └─ shift disjunctive heads when HCF               [hcf.py]
      └─ ground, seeded with the fact tables and the    [grounding.py]
         program's own facts; the deterministic part
         is evaluated exactly and stays a set of
         relations; only the rest gets atom ids
      └─ solve the rest:
           bodyless rules only -> the one model, read off the rules
           otherwise           -> branch & bound        [stable.py]
      └─ models as sets of atom ids                     id_models()
      └─ rendered, with the deterministic relations,    answer_sets()
         and sorted only on request

Skeptical (cautious) and brave query answering follow the paper's usage:
peer consistent answers are obtained by running a query program "under the
skeptical answer set semantics" (Section 3.2).  Callers that answer many
queries over one program ground just the query rule against the already
grounded program (:func:`~repro.datalog.grounding.ground_rule_over`) and
test its ground bodies against :meth:`AnswerSetEngine.id_models`; a body
over deterministic relations alone holds in every model, and no model is
ever rendered as literals on that route.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .choice import unfold_choice
from .grounding import GroundProgram, ground_program
from .hcf import can_shift, shift_program
from .program import Program, Rule
from .stable import StableModelSolver
from .terms import Atom, Constant, Literal, Variable

__all__ = ["AnswerSetEngine", "answer_sets", "skeptical_answers",
           "brave_answers", "has_answer_set"]


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
        max_models: optional cap on the number of models computed.
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
        self._id_models: Optional[list[frozenset[int]]] = None
        self._models: Optional[list[frozenset[Literal]]] = None

    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundProgram:
        if self._ground is None:
            self._ground = ground_program(self.prepared_program,
                                          facts=self._facts)
        return self._ground

    def id_models(self) -> list[frozenset[int]]:
        """All answer sets, as frozensets of ids of :attr:`ground`'s atom
        table, in the solver's order (memoised).  Only the part that can
        differ between models has ids: the deterministic relations,
        ``ground.facts``, hold in each of them besides.

        The order depends on grounding order, so it is only fit for
        order-free consumers (intersections, unions, counts).
        """
        if self._id_models is None:
            self._id_models = self._solve_ids(self.ground)
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

    def _solve_ids(self, ground: GroundProgram) -> list[frozenset[int]]:
        # The grounder turns a stratified program into tables (plus, at
        # most, the empty constraint); bodyless rules have one model, and
        # it needs no search.
        if all(not rule.pos and not rule.naf and len(rule.head) <= 1
               for rule in ground.rules):
            if any(rule.is_constraint() for rule in ground.rules):
                return []
            model = frozenset(rule.head[0] for rule in ground.rules)
            for first, second in ground.table.complement_pairs():
                if first in model and second in model:
                    return []
            return [model]
        solver = StableModelSolver(ground, shift_hcf=self._shift_hcf,
                                   max_models=self._max_models)
        return solver.solve()

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """True when the program has at least one answer set."""
        return bool(self.answer_sets())

    def skeptical_answers(self, query: Atom) -> set[tuple]:
        """Value tuples for the query's variables true in *every* answer set.

        A program without answer sets yields no skeptical answers (the
        paper treats the absence of solutions as "no peer consistent
        answers can be certified"; callers may distinguish that case via
        :meth:`is_consistent`).
        """
        models = self.answer_sets()
        if not models:
            return set()
        per_model = [self._matches(model, query) for model in models]
        result = per_model[0]
        for matches in per_model[1:]:
            result &= matches
        return result

    def brave_answers(self, query: Atom) -> set[tuple]:
        """Value tuples true in *some* answer set."""
        result: set[tuple] = set()
        for model in self.answer_sets():
            result |= self._matches(model, query)
        return result

    @staticmethod
    def _matches(model: Iterable[Literal], query: Atom) -> set[tuple]:
        """Bindings of the query's variable positions against a model.

        The answer tuple lists values in order of first appearance of each
        distinct variable (constants in the query act as filters).
        """
        variables: list[Variable] = []
        for arg in query.args:
            if isinstance(arg, Variable) and arg not in variables:
                variables.append(arg)
        result: set[tuple] = set()
        for literal in model:
            if not literal.positive or literal.naf:
                continue
            if literal.predicate != query.predicate:
                continue
            if literal.atom.arity != query.arity:
                continue
            binding: dict[Variable, Constant] = {}
            ok = True
            for pattern_arg, value in zip(query.args, literal.atom.args):
                if isinstance(pattern_arg, Constant):
                    if pattern_arg != value:
                        ok = False
                        break
                else:
                    assert isinstance(pattern_arg, Variable)
                    bound = binding.get(pattern_arg)
                    if bound is None:
                        binding[pattern_arg] = value  # type: ignore[index]
                    elif bound != value:
                        ok = False
                        break
            if ok:
                result.add(tuple(binding[v].value for v in variables))
        return result


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
