"""Head-cycle-free optimisation: shifting disjunctive programs (Section 4.1).

A disjunctive rule ``h1 v ... v hk :- B`` is *shifted* into the ``k`` normal
rules ``hi :- B, not h1, ..., not h(i-1), not h(i+1), ..., not hk``.  For
head-cycle-free (HCF) programs the shifted program has exactly the same
answer sets (Ben-Eliyahu & Dechter [4]; Leone et al. [22]) — and normal
programs are strictly cheaper to solve (NP vs Σ^p_2 for deciding answer-set
existence), which is the optimisation the paper advocates.

:func:`shift_rule` reproduces the paper's Example 3 verbatim: choice goals
are retained in each shifted rule.  :func:`shift_program`, however, first
*unfolds* choice goals into their stable version and only then shifts — the
two shifted copies of a choice rule must share a single ``chosen``
predicate, exactly as in the Appendix, where the choice rule keeps one
``chosen(X,Z,W)``.  Unfolding each shifted copy separately would restrict
each ``chosen`` by the shift-added NAF literal and lose answer sets (see
``tests/paper/test_example3_hcf.py``).  The HCF *test* ignores choice
goals, implementing the proposition "a disjunctive choice program Π is HCF
when the program obtained from Π by removing its choice goals is HCF" [6].
"""

from __future__ import annotations

from .choice import unfold_choice
from .errors import ProgramError
from .graphs import is_head_cycle_free
from .program import Program, Rule
from .terms import ChoiceGoal, Literal

__all__ = ["can_shift", "shift_rule", "shift_program"]


def can_shift(program: Program) -> bool:
    """True when shifting is guaranteed to preserve the answer sets."""
    return is_head_cycle_free(program)


def shift_rule(rule: Rule) -> list[Rule]:
    """Shift one rule *syntactically*; non-disjunctive rules are returned
    unchanged.

    Choice goals are retained verbatim (the paper's Example 3 shape).
    NOTE: on choice rules this is a purely presentational transformation —
    to solve a shifted choice program, unfold the choice first and shift
    the unfolded rule instead (what :func:`shift_program` does), so both
    shifted copies share one ``chosen`` predicate.
    """
    if not rule.is_disjunctive():
        return [rule]
    shifted: list[Rule] = []
    for index, head_literal in enumerate(rule.head):
        extra: list[Literal] = []
        for j, other in enumerate(rule.head):
            if j == index:
                continue
            if other.naf:
                raise ProgramError("head literals cannot carry NAF")
            extra.append(other.negated_naf())
        shifted.append(Rule(head=[head_literal],
                            body=tuple(rule.body) + tuple(extra)))
    return shifted


def shift_program(program: Program, *, force: bool = False) -> Program:
    """Shift every disjunctive rule of an HCF program.

    Raises :class:`ProgramError` when the program is not HCF, unless
    ``force=True`` (useful for ablation tests that show what goes wrong
    — the shifted program may then admit extra answer sets).
    """
    if not program.has_disjunction():
        return program
    if not force and not can_shift(program):
        raise ProgramError(
            "program is not head-cycle-free; shifting would not preserve "
            "its answer sets (pass force=True to shift anyway)")
    # Unfold choice goals first so that the shifted copies of a choice
    # rule share a single `chosen` predicate (see module docstring).
    program = unfold_choice(program)
    rules: list[Rule] = []
    for rule in program:
        rules.extend(shift_rule(rule))
    return Program(rules)
