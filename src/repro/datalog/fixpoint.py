"""Fixpoint computations over ground programs.

Provides the building blocks of the stable-model solver's checks:

* :func:`least_model` — least Herbrand model of a definite ground program
  (single heads, no NAF), in linear time (Dowling–Gallier counters).
* :func:`gelfond_lifschitz_reduct` — the GL reduct of a ground program with
  respect to a candidate set of true atoms.
* :func:`is_minimal_model` — minimality check for models of positive
  disjunctive ground programs (the Σ/Π second level of the polynomial
  hierarchy lives here, as Section 3.2 of the paper notes).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .grounding import GroundRule

__all__ = [
    "least_model",
    "gelfond_lifschitz_reduct",
    "satisfies_rule",
    "is_model",
    "is_minimal_model",
]


def least_model(rules: Sequence[GroundRule]) -> set[int]:
    """Least model of a definite program (ignores constraints).

    Every rule must have exactly one head atom and an empty NAF body;
    denial constraints (empty head) are skipped — callers check them
    separately against the returned model.
    """
    remaining: list[int] = []
    rules_with_pos: dict[int, list[int]] = {}
    queue: deque[int] = deque()
    true: set[int] = set()

    for index, rule in enumerate(rules):
        if rule.is_constraint():
            remaining.append(-1)  # sentinel: never fires
            continue
        if rule.naf:
            raise ValueError("least_model requires a NAF-free program")
        if len(rule.head) != 1:
            raise ValueError("least_model requires single-head rules")
        remaining.append(len(rule.pos))
        if not rule.pos:
            queue.append(index)
        else:
            for atom in set(rule.pos):
                rules_with_pos.setdefault(atom, []).append(index)

    fired = [False] * len(rules)
    while queue:
        index = queue.popleft()
        if fired[index]:
            continue
        fired[index] = True
        head_atom = rules[index].head[0]
        if head_atom in true:
            continue
        true.add(head_atom)
        for watcher in rules_with_pos.get(head_atom, ()):
            # decrement once per distinct atom (pos was deduplicated by the
            # grounder, but stay robust to duplicates)
            remaining[watcher] -= 1
            if remaining[watcher] == 0:
                queue.append(watcher)
    return true


def gelfond_lifschitz_reduct(rules: Iterable[GroundRule],
                             candidate: set[int]) -> list[GroundRule]:
    """The GL reduct: drop rules whose NAF body intersects ``candidate``,
    strip the NAF body from the survivors."""
    reduct: list[GroundRule] = []
    for rule in rules:
        if any(atom in candidate for atom in rule.naf):
            continue
        if rule.naf:
            reduct.append(GroundRule(rule.head, rule.pos, ()))
        else:
            reduct.append(rule)
    return reduct


def satisfies_rule(rule: GroundRule, model: set[int]) -> bool:
    """Classical satisfaction of one ground rule by a set of true atoms."""
    body_true = (all(atom in model for atom in rule.pos)
                 and all(atom not in model for atom in rule.naf))
    if not body_true:
        return True
    return any(atom in model for atom in rule.head)


def is_model(rules: Iterable[GroundRule], candidate: set[int]) -> bool:
    """True when ``candidate`` classically satisfies every rule."""
    return all(satisfies_rule(rule, candidate) for rule in rules)


def is_minimal_model(rules: Sequence[GroundRule], model: set[int]) -> bool:
    """Check that no proper subset of ``model`` is also a model.

    ``rules`` must be positive (NAF-free); callers pass a GL reduct.  Atoms
    outside ``model`` are fixed false, so the search ranges over subsets of
    ``model`` only.  This is the co-NP check that makes disjunctive stable
    semantics Π^p_2 (paper Section 3.2); the search is a small DPLL with
    unit propagation.
    """
    # Reduce the rules to the sub-lattice below `model`; validate and check
    # modelhood on the way (a non-model is vacuously not a minimal model).
    reduced: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for rule in rules:
        if rule.naf:
            raise ValueError("is_minimal_model requires a positive program")
        if any(atom not in model for atom in rule.pos):
            continue  # body can never be fully true below `model`
        head_in = tuple(atom for atom in rule.head if atom in model)
        if not head_in:
            return False  # body true in `model` but head entirely false
        reduced.append((head_in, rule.pos))
    if not model:
        return True

    atoms = sorted(model)
    # assignment: None unknown, True, False (mapped over `atoms` indices)
    position = {atom: i for i, atom in enumerate(atoms)}

    def search(assignment: list[Optional[bool]]) -> bool:
        """True if a model strictly below `model` exists."""
        changed = True
        while changed:
            changed = False
            for head, pos in reduced:
                body_states = [assignment[position[a]] for a in pos]
                if any(s is False for s in body_states):
                    continue
                head_states = [assignment[position[a]] for a in head]
                if any(s is True for s in head_states):
                    continue
                if all(s is True for s in body_states):
                    unknown_heads = [a for a in head
                                     if assignment[position[a]] is None]
                    if not unknown_heads:
                        return False  # rule violated: dead branch
                    if len(unknown_heads) == 1:
                        assignment[position[unknown_heads[0]]] = True
                        changed = True
        if all(s is not None for s in assignment):
            return any(s is False for s in assignment)
        # Branch on an unknown atom; try False first to reach proper
        # subsets quickly.
        index = next(i for i, s in enumerate(assignment) if s is None)
        for value in (False, True):
            trial = list(assignment)
            trial[index] = value
            if search(trial):
                return True
        return False

    return not search([None] * len(atoms))

