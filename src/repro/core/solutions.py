"""Solutions for a peer — Definition 4, the direct case.

Given the global instance ``r``, an instance ``r'`` is a *solution for P*
when:

(a) ``r' |= Σ(P) ∪ IC(P)`` (trusted DECs and local ICs),
(b) relations outside R̄(P) are untouched,
(c) ``r'`` arises from the two-stage prioritised repair:

    * **stage 1** — ``r1`` is a repair of ``r`` w.r.t. the DECs toward
      strictly-more-trusted peers (``(P, less, Q)``), changing only P's own
      relations (both `less` and `same` neighbours stay fixed, c2);
    * **stage 2** — ``r2`` is a repair of ``r1`` w.r.t. the DECs toward
      equally-trusted peers, keeping the `less` DECs satisfied and
      `less`-peers' data fixed (c3); P's and the `same`-peers' relations
      may change.

The Δ-minimisation of each stage is inherited from
:mod:`repro.cqa.repairs`; the priority between stages is exactly the
prioritised minimisation the paper compares to circumscription [25].

This module is the *reference* (model-theoretic) implementation: it
enumerates solutions explicitly and is exponential by design (Section 3.2's
complexity discussion).  The ASP route (:mod:`repro.core.asp_gav`) computes
the same objects as stable models.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..cqa.repairs import RepairProblem, repairs
from ..relational.constraints import Constraint
from ..relational.instance import DatabaseInstance, canonical_order
from .system import PeerSystem
from .trust import TrustLevel

__all__ = ["SolutionSearch", "solutions_for_peer"]


class SolutionSearch:
    """Configuration + computation of the solutions for one peer.

    Parameters:
        system: the P2P system.
        peer: the queried peer P.
        include_local_ics: enforce IC(P) inside the repair stages
            (condition (a)); the paper assumes r(P) |= IC(P) and Section
            3.2 discusses layering — disable to study raw DEC repairs.
        max_changes / max_solutions: safety valves forwarded to the repair
            engine.
    """

    def __init__(self, system: PeerSystem, peer: str, *,
                 include_local_ics: bool = True,
                 max_changes: int = 64,
                 max_solutions: Optional[int] = None) -> None:
        self.system = system
        self.peer = system.peer(peer)
        self.include_local_ics = include_local_ics
        self.max_changes = max_changes
        self.max_solutions = max_solutions

    # ------------------------------------------------------------------
    def _constraints(self, level: TrustLevel) -> list[Constraint]:
        return [exchange.constraint for exchange in
                self.system.trusted_decs_of(self.peer.name, level)]

    def _local_ics(self) -> list[Constraint]:
        return list(self.peer.local_ics) if self.include_local_ics else []

    def stage1_repairs(self) -> list[DatabaseInstance]:
        """Repairs of r̄ w.r.t. the `less` DECs, changing only R(P) (c2)."""
        global_instance = self.system.global_instance()
        less_constraints = self._constraints(TrustLevel.LESS)
        constraints = less_constraints + self._local_ics()
        if not constraints:
            return [global_instance]
        problem = RepairProblem(
            global_instance, constraints,
            changeable=self.peer.schema.names,
            max_changes=self.max_changes)
        return list(repairs(problem))

    def stage2_repairs(self, stage1: DatabaseInstance
                       ) -> list[DatabaseInstance]:
        """Repairs of a stage-1 instance w.r.t. the `same` DECs (c3).

        The `less` DECs stay in the constraint set (they must remain
        satisfied) but `less`-peers' relations stay fixed, so those DECs
        can only constrain — never be repaired at the trusted side.
        """
        same_decs = self.system.trusted_decs_of(self.peer.name,
                                                TrustLevel.SAME)
        if not same_decs:
            return [stage1]
        constraints = [e.constraint for e in same_decs] \
            + self._constraints(TrustLevel.LESS) + self._local_ics()
        changeable = set(self.peer.schema.names)
        for exchange in same_decs:
            changeable |= set(
                self.system.peer(exchange.other).schema.names)
        problem = RepairProblem(stage1, constraints,
                                changeable=changeable,
                                max_changes=self.max_changes)
        return list(repairs(problem))

    def solutions(self) -> list[DatabaseInstance]:
        """All solutions for the peer, deduplicated, deterministic order."""
        found: dict[DatabaseInstance, None] = {}
        for stage1 in self.stage1_repairs():
            for stage2 in self.stage2_repairs(stage1):
                found.setdefault(stage2)
                if self.max_solutions is not None \
                        and len(found) >= self.max_solutions:
                    return canonical_order(found)
        return canonical_order(found)

    def is_solution(self, candidate: DatabaseInstance) -> bool:
        """Membership test via full enumeration (reference semantics)."""
        return candidate in set(self.solutions())


def solutions_for_peer(system: PeerSystem, peer: str,
                       **kwargs) -> list[DatabaseInstance]:
    """Convenience wrapper: the solutions for ``peer`` (Definition 4)."""
    return SolutionSearch(system, peer, **kwargs).solutions()
