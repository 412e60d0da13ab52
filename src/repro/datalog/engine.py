"""High-level answer-set engine: program in, answer sets / query answers out.

This is the façade the rest of the library uses.  The pipeline is::

    program
      └─ unfold choice goals (stable version)           [choice.py]
      └─ shift disjunctive heads when HCF               [hcf.py]
      └─ ground                                         [grounding.py]
      └─ solve:
           stratified normal program  -> perfect model  [fixpoint.py]
           otherwise                  -> branch & bound [stable.py]

Skeptical (cautious) and brave query answering follow the paper's usage:
peer consistent answers are obtained by running a query program "under the
skeptical answer set semantics" (Section 3.2).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .choice import unfold_choice
from .fixpoint import stratified_model
from .graphs import objective_key, stratification
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
        shift_hcf: shift disjunctive heads when the program is HCF
            (Section 4.1 optimisation).  Disable only for ablation studies.
        use_stratified_fast_path: evaluate stratified normal programs by
            iterated fixpoint instead of search.
        max_models: optional cap on the number of models computed.
    """

    def __init__(self, program: Program, *, shift_hcf: bool = True,
                 use_stratified_fast_path: bool = True,
                 max_models: Optional[int] = None) -> None:
        self.source_program = program
        self._max_models = max_models
        self._shift_hcf = shift_hcf
        self._use_stratified = use_stratified_fast_path

        prepared = unfold_choice(program)
        if shift_hcf and prepared.has_disjunction() and can_shift(prepared):
            prepared = shift_program(prepared)
        prepared.check_safety()
        self.prepared_program = prepared
        self._ground: Optional[GroundProgram] = None
        self._models: Optional[list[frozenset[Literal]]] = None

    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundProgram:
        if self._ground is None:
            self._ground = ground_program(self.prepared_program)
        return self._ground

    def answer_sets(self) -> list[frozenset[Literal]]:
        """All answer sets, as frozensets of objective literals.

        Deterministic order, independent of hash seeds: models compare by
        their sorted rendered literals.  Each atom occurring in some model
        is rendered once and ranked, and models are sorted by their sorted
        rank tuples, which gives the same order without rendering every
        literal of every model.  Zero or one model is not sorted at all.
        """
        if self._models is not None:
            return self._models
        ground = self.ground
        table = ground.table
        id_models = self._solve_ids(ground)
        if len(id_models) > 1:
            text = {atom: str(table.literal_for(atom))
                    for atom in frozenset().union(*id_models)}
            rank = {s: r for r, s in enumerate(sorted(set(text.values())))}
            id_models = sorted(id_models,
                               key=lambda m: sorted(rank[text[a]] for a in m))
        models = [frozenset(table.literal_for(i) for i in id_model)
                  for id_model in id_models]
        self._models = models
        return models

    def _solve_ids(self, ground: GroundProgram) -> list[frozenset[int]]:
        if self._use_stratified and not ground.is_disjunctive():
            strata = stratification(self.prepared_program)
            if strata is not None:
                atom_strata = [
                    strata.get(objective_key(ground.table.literal_for(i)), 0)
                    for i in range(ground.atom_count)]
                model = stratified_model(ground, atom_strata)
                if model is None:
                    return []
                # Classical-negation consistency check.
                for first, second in ground.table.complement_pairs():
                    if first in model and second in model:
                        return []
                return [frozenset(model)]
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
