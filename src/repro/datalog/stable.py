"""Stable-model (answer-set) computation for ground programs.

The solver enumerates the answer sets of a ground disjunctive extended
program (classical negation is compiled to fresh predicates upstream; here
it only shows up as complement pairs that must not be jointly true).

Architecture — a small smodels-style branch-and-propagate search:

* **Unit propagation** with per-rule counters: body satisfied → head forced
  (or conflict for constraints); all heads false + body satisfied →
  conflict; atom with no remaining potentially-supporting rule → false;
  true atom with exactly one remaining support → that rule's body forced.
* **Unfounded-set pruning**: after unit propagation quiesces, compute the
  set of atoms still derivable given the current partial assignment; atoms
  outside it must be false (this catches positive loops).  It runs only
  on *non-tight* programs, whose positive atom graph has a cycle: on a
  tight program every supported model is stable (Fages 1994), and unit
  propagation already enforces support.
* **Verification**: on a *disjunctive* program (one that is not
  head-cycle-free, so it was not shifted) every total assignment is
  checked against the Gelfond–Lifschitz definition by
  model-plus-minimality, since propagation alone cannot prove
  minimality there.  On a normal program a total assignment that survives
  propagation is a supported model and, after the unfounded-set check (or
  by tightness), unfounded-free, hence stable (Leone et al. 1997), so it
  is accepted as is.  Propagation is sound (never prunes a stable model),
  so enumeration is complete.

Head-cycle-free disjunctive programs should be *shifted* to normal programs
first (paper Section 4.1); :func:`shift_ground` implements the ground-level
shift and :class:`StableModelSolver` applies it automatically unless told
otherwise.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from .errors import SolverError
from .fixpoint import (
    gelfond_lifschitz_reduct,
    is_minimal_model,
    is_model,
    least_model,
)
from .grounding import GroundProgram, GroundRule
from .graphs import strongly_connected_components

__all__ = [
    "StableModelSolver",
    "stable_models",
    "is_stable_model",
    "shift_ground",
    "ground_head_cycle_free",
    "ground_tight",
]

_UNKNOWN, _TRUE, _FALSE = 0, 1, 2


def is_stable_model(ground: GroundProgram, candidate: set[int]) -> bool:
    """Exact Gelfond–Lifschitz check of ``candidate`` against ``ground``."""
    for first, second in ground.table.complement_pairs():
        if first in candidate and second in candidate:
            return False
    if not is_model(ground.rules, candidate):
        return False
    reduct = gelfond_lifschitz_reduct(ground.rules, candidate)
    positive = [rule for rule in reduct if not rule.is_constraint()]
    if any(len(rule.head) > 1 for rule in positive):
        return is_minimal_model(positive, candidate)
    return least_model(positive) == candidate


def _positive_atom_graph(ground: GroundProgram) -> dict[int, set[int]]:
    """Edges from each positive body atom to the heads of its rule."""
    graph: dict[int, set[int]] = {i: set() for i in range(ground.atom_count)}
    for rule in ground.rules:
        for body_atom in rule.pos:
            graph[body_atom].update(rule.head)
    return graph


def ground_tight(ground: GroundProgram) -> bool:
    """True when the positive atom graph is acyclic: no strongly connected
    component has more than one atom, and no atom depends on itself."""
    graph = _positive_atom_graph(ground)
    if any(atom in successors for atom, successors in graph.items()):
        return False
    return all(len(component) == 1
               for component in strongly_connected_components(graph))


def ground_head_cycle_free(ground: GroundProgram) -> bool:
    """Exact (atom-level) head-cycle-freedom of a ground program."""
    components = strongly_connected_components(_positive_atom_graph(ground))
    component_of: dict[int, int] = {}
    for number, component in enumerate(components):
        for atom in component:
            component_of[atom] = number
    for rule in ground.rules:
        if len(rule.head) <= 1:
            continue
        seen: dict[int, int] = {}
        for atom in rule.head:
            comp = component_of[atom]
            other = seen.get(comp)
            if other is not None and other != atom:
                return False
            seen[comp] = atom
    return True


def shift_ground(ground: GroundProgram) -> GroundProgram:
    """Shift disjunctive heads: ``h1 v h2 :- B`` becomes
    ``h1 :- B, not h2`` and ``h2 :- B, not h1``.

    Equivalence with the disjunctive program holds exactly for head-cycle-
    free programs (Ben-Eliyahu & Dechter [4]; paper Section 4.1).
    """
    rules: dict[GroundRule, None] = {}
    for rule in ground.rules:
        if len(rule.head) <= 1:
            rules.setdefault(rule)
            continue
        for index, head_atom in enumerate(rule.head):
            others = tuple(sorted(set(rule.head[:index])
                                  | set(rule.head[index + 1:])))
            rules.setdefault(GroundRule(
                (head_atom,), rule.pos,
                tuple(sorted(set(rule.naf) | set(others)))))
    return GroundProgram(ground.table, list(rules))


class StableModelSolver:
    """Enumerates answer sets of a ground program.

    Parameters:
        ground: the program to solve.
        shift_hcf: when True (default) and the program is disjunctive but
            ground-level head-cycle-free, solve the shifted normal program
            instead (identical answer sets, no leaf verification).
        max_models: stop after this many models (None = enumerate all).
        max_decisions: safety valve on branch decisions; raises
            :class:`SolverError` when exceeded.
    """

    def __init__(self, ground: GroundProgram, *, shift_hcf: bool = True,
                 max_models: Optional[int] = None,
                 max_decisions: int = 50_000_000) -> None:
        self._original = ground
        if shift_hcf and ground.is_disjunctive() \
                and ground_head_cycle_free(ground):
            ground = shift_ground(ground)
        self._ground = ground
        # Leaves need verifying only while the program is disjunctive, and
        # unfounded sets need checking only while it has a positive loop.
        self._normal = not ground.is_disjunctive()
        self._tight = self._normal and ground_tight(ground)
        self._max_models = max_models
        self._max_decisions = max_decisions
        self._decisions = 0

        atom_count = ground.atom_count
        self._atom_count = atom_count
        self._rules = list(ground.rules)
        # Complement pairs behave like binary denial constraints.
        for first, second in ground.table.complement_pairs():
            self._rules.append(GroundRule((), (first, second), ()))

        self._rules_with_pos: list[list[int]] = [[] for _ in
                                                 range(atom_count)]
        self._rules_with_naf: list[list[int]] = [[] for _ in
                                                 range(atom_count)]
        self._rules_with_head: list[list[int]] = [[] for _ in
                                                  range(atom_count)]
        for index, rule in enumerate(self._rules):
            for atom in rule.pos:
                self._rules_with_pos[atom].append(index)
            for atom in rule.naf:
                self._rules_with_naf[atom].append(index)
            for atom in rule.head:
                self._rules_with_head[atom].append(index)

        # Static branching order: atoms occurring in NAF bodies first (they
        # control the reduct), then by descending occurrence count.
        occurrence = [0] * atom_count
        naf_weight = [0] * atom_count
        for rule in self._rules:
            for atom in rule.pos:
                occurrence[atom] += 1
            for atom in rule.naf:
                occurrence[atom] += 1
                naf_weight[atom] += 1
            for atom in rule.head:
                occurrence[atom] += 1
                if len(rule.head) > 1:
                    naf_weight[atom] += 1
        self._branch_order = sorted(
            range(atom_count),
            key=lambda a: (-naf_weight[a], -occurrence[a], a))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def models(self) -> Iterator[frozenset[int]]:
        """Yield answer sets as frozensets of true atom ids."""
        count = 0
        for model in self._search():
            yield model
            count += 1
            if self._max_models is not None and count >= self._max_models:
                return

    def solve(self) -> list[frozenset[int]]:
        """All answer sets, in a deterministic order."""
        return sorted(self.models(), key=lambda m: sorted(m))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _initial_state(self) -> Optional[tuple[list[int], list[int],
                                               list[bool], list[int],
                                               list[int]]]:
        value = [_UNKNOWN] * self._atom_count
        remaining = []   # body literals not yet definitely satisfied
        blocked = []     # some body literal definitely unsatisfiable
        head_false = []  # head atoms currently false
        for rule in self._rules:
            remaining.append(len(rule.pos) + len(rule.naf))
            blocked.append(False)
            head_false.append(0)
        support = [len(self._rules_with_head[a])
                   for a in range(self._atom_count)]
        return value, remaining, blocked, head_false, support

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _assign(self, state, atom: int, val: int,
                queue: deque[int]) -> bool:
        value = state[0]
        if value[atom] == val:
            return True
        if value[atom] != _UNKNOWN:
            return False
        value[atom] = val
        queue.append(atom)
        return True

    def _propagate(self, state, queue: deque[int]) -> bool:
        value, remaining, blocked, head_false, support = state
        while True:
            while queue:
                atom = queue.popleft()
                val = value[atom]
                if val == _TRUE:
                    ok = self._on_true(state, atom, queue)
                else:
                    ok = self._on_false(state, atom, queue)
                if not ok:
                    return False
            if self._tight:
                return True
            if not self._unfounded_check(state, queue):
                return False
            if not queue:
                return True

    def _block_rule(self, state, rule_index: int, queue: deque[int]) -> bool:
        value, remaining, blocked, head_false, support = state
        if blocked[rule_index]:
            return True
        blocked[rule_index] = True
        for head_atom in self._rules[rule_index].head:
            support[head_atom] -= 1
            if support[head_atom] == 0:
                if value[head_atom] == _TRUE:
                    return False
                if value[head_atom] == _UNKNOWN:
                    if not self._assign(state, head_atom, _FALSE, queue):
                        return False
            elif support[head_atom] == 1 and value[head_atom] == _TRUE:
                if not self._force_single_support(state, head_atom, queue):
                    return False
        return True

    def _body_satisfied_consequences(self, state, rule_index: int,
                                     queue: deque[int]) -> bool:
        """Called when a rule's body became fully satisfied."""
        value, remaining, blocked, head_false, support = state
        rule = self._rules[rule_index]
        if not rule.head:
            return False  # denial constraint fires
        non_false = [a for a in rule.head if value[a] != _FALSE]
        if not non_false:
            return False
        if len(non_false) == 1 and value[non_false[0]] == _UNKNOWN:
            return self._assign(state, non_false[0], _TRUE, queue)
        return True

    def _recheck_head(self, state, rule_index: int,
                      queue: deque[int]) -> bool:
        value, remaining, blocked, head_false, support = state
        if blocked[rule_index] or remaining[rule_index] != 0:
            return True
        return self._body_satisfied_consequences(state, rule_index, queue)

    def _force_single_support(self, state, atom: int,
                              queue: deque[int]) -> bool:
        """`atom` is true with exactly one unblocked candidate support: the
        body of that rule must be fully satisfied."""
        value, remaining, blocked, head_false, support = state
        the_rule = None
        for rule_index in self._rules_with_head[atom]:
            if not blocked[rule_index]:
                the_rule = rule_index
                break
        if the_rule is None:
            return False
        rule = self._rules[the_rule]
        for pos_atom in rule.pos:
            if not self._assign_or_check(state, pos_atom, _TRUE, queue):
                return False
        for naf_atom in rule.naf:
            if not self._assign_or_check(state, naf_atom, _FALSE, queue):
                return False
        return True

    def _assign_or_check(self, state, atom: int, val: int,
                         queue: deque[int]) -> bool:
        value = state[0]
        if value[atom] == val:
            return True
        if value[atom] != _UNKNOWN:
            return False
        return self._assign(state, atom, val, queue)

    def _on_true(self, state, atom: int, queue: deque[int]) -> bool:
        value, remaining, blocked, head_false, support = state
        # Rules with `atom` positive in the body: one step closer to firing.
        for rule_index in self._rules_with_pos[atom]:
            remaining[rule_index] -= 1
            if remaining[rule_index] == 0 and not blocked[rule_index]:
                if not self._body_satisfied_consequences(state, rule_index,
                                                         queue):
                    return False
        # Rules with `not atom` in the body are now blocked.
        for rule_index in self._rules_with_naf[atom]:
            if not self._block_rule(state, rule_index, queue):
                return False
        # Support requirement for `atom` itself.
        candidates = [r for r in self._rules_with_head[atom]
                      if not blocked[r]]
        if not candidates:
            return False
        if len(candidates) == 1:
            if not self._force_single_support(state, atom, queue):
                return False
        return True

    def _on_false(self, state, atom: int, queue: deque[int]) -> bool:
        value, remaining, blocked, head_false, support = state
        # Rules with `atom` positive in the body are blocked.
        for rule_index in self._rules_with_pos[atom]:
            if not self._block_rule(state, rule_index, queue):
                return False
        # Rules with `not atom`: one step closer to firing.
        for rule_index in self._rules_with_naf[atom]:
            remaining[rule_index] -= 1
            if remaining[rule_index] == 0 and not blocked[rule_index]:
                if not self._body_satisfied_consequences(state, rule_index,
                                                         queue):
                    return False
        # Rules with `atom` in the head may now force their last head atom.
        for rule_index in self._rules_with_head[atom]:
            head_false[rule_index] += 1
            if not self._recheck_head(state, rule_index, queue):
                return False
        return True

    def _unfounded_check(self, state, queue: deque[int]) -> bool:
        """Atoms not derivable under the current partial assignment must be
        false.  Returns False on conflict (a TRUE atom is underivable)."""
        value, remaining, blocked, head_false, support = state
        derivable = [False] * self._atom_count
        need = []
        bfs: deque[int] = deque()
        usable: list[bool] = []
        for index, rule in enumerate(self._rules):
            ok = bool(rule.head)
            if ok:
                for naf_atom in rule.naf:
                    if value[naf_atom] == _TRUE:
                        ok = False
                        break
            if ok:
                for pos_atom in rule.pos:
                    if value[pos_atom] == _FALSE:
                        ok = False
                        break
            usable.append(ok)
            need.append(len(set(rule.pos)) if ok else -1)
            if ok and need[index] == 0:
                bfs.append(index)
        watchers: dict[int, list[int]] = {}
        for index, rule in enumerate(self._rules):
            if usable[index]:
                for atom in set(rule.pos):
                    watchers.setdefault(atom, []).append(index)
        fired = [False] * len(self._rules)
        while bfs:
            index = bfs.popleft()
            if fired[index]:
                continue
            fired[index] = True
            for head_atom in self._rules[index].head:
                if value[head_atom] == _FALSE or derivable[head_atom]:
                    continue
                derivable[head_atom] = True
                for watcher in watchers.get(head_atom, ()):
                    need[watcher] -= 1
                    if need[watcher] == 0:
                        bfs.append(watcher)
        for atom in range(self._atom_count):
            if derivable[atom]:
                continue
            if value[atom] == _TRUE:
                return False
            if value[atom] == _UNKNOWN:
                if not self._assign(state, atom, _FALSE, queue):
                    return False
        return True

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _search(self) -> Iterator[frozenset[int]]:
        state = self._initial_state()
        value = state[0]
        queue: deque[int] = deque()
        # Initial propagation: atom with no support is false; bodyless
        # rules fire.
        for atom in range(self._atom_count):
            if state[4][atom] == 0:
                if not self._assign(state, atom, _FALSE, queue):
                    return
        for index, rule in enumerate(self._rules):
            if state[1][index] == 0 and not state[2][index]:
                if not self._body_satisfied_consequences(state, index,
                                                         queue):
                    return
        if not self._propagate(state, queue):
            return
        yield from self._dfs(state)

    def _clone(self, state):
        value, remaining, blocked, head_false, support = state
        return (list(value), list(remaining), list(blocked),
                list(head_false), list(support))

    def _dfs(self, state) -> Iterator[frozenset[int]]:
        value = state[0]
        branch_atom = -1
        for atom in self._branch_order:
            if value[atom] == _UNKNOWN:
                branch_atom = atom
                break
        if branch_atom == -1:
            candidate = {a for a in range(self._atom_count)
                         if value[a] == _TRUE}
            if self._normal or self._verify(candidate):
                yield frozenset(candidate)
            return
        self._decisions += 1
        if self._decisions > self._max_decisions:
            raise SolverError(
                f"exceeded {self._max_decisions} branch decisions")
        for val in (_TRUE, _FALSE):
            child = self._clone(state)
            queue: deque[int] = deque()
            if not self._assign(child, branch_atom, val, queue):
                continue
            if not self._propagate(child, queue):
                continue
            yield from self._dfs(child)

    def _verify(self, candidate: set[int]) -> bool:
        # Only disjunctive programs get here: propagation cannot show that a
        # total assignment is a *minimal* model of the reduct.
        rules = self._ground.rules
        for rule in self._rules[len(rules):]:
            # complement-pair constraints
            if all(atom in candidate for atom in rule.pos):
                return False
        if not is_model(rules, candidate):
            return False
        reduct = gelfond_lifschitz_reduct(rules, candidate)
        positive = [rule for rule in reduct if not rule.is_constraint()]
        if any(len(rule.head) > 1 for rule in positive):
            return is_minimal_model(positive, candidate)
        return least_model(positive) == candidate


def stable_models(ground: GroundProgram, *,
                  max_models: Optional[int] = None,
                  shift_hcf: bool = True) -> list[frozenset[int]]:
    """Convenience wrapper: all answer sets of ``ground``."""
    solver = StableModelSolver(ground, max_models=max_models,
                               shift_hcf=shift_hcf)
    return solver.solve()
