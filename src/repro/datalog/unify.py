"""Substitutions, matching, and application over terms and literals.

A substitution is represented as a plain ``dict[Variable, Constant]``; the
engine only ever needs ground substitutions (grounding instantiates variables
with constants), so there is no occurs-check or variable-to-variable binding
machinery here.  :func:`match_atom` implements one-sided matching of a
pattern atom against a ground atom, which is the workhorse of both the
grounder and relational query evaluation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .terms import (
    Atom,
    BodyItem,
    ChoiceGoal,
    Comparison,
    Constant,
    Literal,
    Term,
    Variable,
)

__all__ = [
    "Substitution",
    "apply_term",
    "apply_atom",
    "apply_literal",
    "apply_comparison",
    "apply_body_item",
    "match_atom",
    "merge",
    "compose",
]

Substitution = Mapping[Variable, Constant]


def apply_term(term: Term, subst: Substitution) -> Term:
    """Apply ``subst`` to a single term."""
    if isinstance(term, Variable):
        return subst.get(term, term)
    return term


def apply_atom(atom: Atom, subst: Substitution) -> Atom:
    """Apply ``subst`` to every argument of ``atom``."""
    if atom.is_ground() or not subst:
        return atom
    return Atom(atom.predicate, tuple(apply_term(a, subst)
                                      for a in atom.args))


def apply_literal(literal: Literal, subst: Substitution) -> Literal:
    """Apply ``subst`` to the atom inside ``literal``."""
    new_atom = apply_atom(literal.atom, subst)
    if new_atom is literal.atom:
        return literal
    return Literal(new_atom, literal.positive, literal.naf)


def apply_comparison(comparison: Comparison,
                     subst: Substitution) -> Comparison:
    """Apply ``subst`` to both sides of a comparison."""
    return Comparison(comparison.op,
                      apply_term(comparison.left, subst),
                      apply_term(comparison.right, subst))


def apply_body_item(item: BodyItem, subst: Substitution) -> BodyItem:
    """Apply ``subst`` to any kind of body item."""
    if isinstance(item, Literal):
        return apply_literal(item, subst)
    if isinstance(item, Comparison):
        return apply_comparison(item, subst)
    if isinstance(item, ChoiceGoal):
        # Choice goals only mention variables; grounding replaces them as a
        # unit elsewhere, so substitution application is the identity here.
        return item
    raise TypeError(f"unexpected body item {item!r}")


def match_atom(pattern: Atom, ground: Atom,
               subst: Optional[Substitution] = None
               ) -> Optional[dict[Variable, Constant]]:
    """Match ``pattern`` against a ground atom, extending ``subst``.

    Returns the extended substitution (a new dict) on success, ``None`` on
    mismatch.  ``pattern`` may repeat variables (``p(X, X)``); repeated
    occurrences must agree.
    """
    if pattern.predicate != ground.predicate:
        return None
    if pattern.arity != ground.arity:
        return None
    binding: dict[Variable, Constant] = dict(subst) if subst else {}
    for pat_arg, ground_arg in zip(pattern.args, ground.args):
        if not isinstance(ground_arg, Constant):
            raise ValueError(f"match target {ground} is not ground")
        if isinstance(pat_arg, Constant):
            if pat_arg != ground_arg:
                return None
        else:
            assert isinstance(pat_arg, Variable)
            bound = binding.get(pat_arg)
            if bound is None:
                binding[pat_arg] = ground_arg
            elif bound != ground_arg:
                return None
    return binding


def merge(left: Substitution,
          right: Substitution) -> Optional[dict[Variable, Constant]]:
    """Merge two substitutions; ``None`` if they disagree on a variable."""
    result = dict(left)
    for var, val in right.items():
        bound = result.get(var)
        if bound is None:
            result[var] = val
        elif bound != val:
            return None
    return result


def compose(first: Substitution,
            second: Substitution) -> dict[Variable, Constant]:
    """Sequential composition: apply ``first`` then fill gaps with ``second``."""
    result = dict(second)
    result.update(first)
    return result


def ground_terms(terms: Iterable[Term], subst: Substitution) -> tuple:
    """Apply ``subst`` to a sequence of terms, returning a tuple."""
    return tuple(apply_term(t, subst) for t in terms)
