"""Peer consistent answers — Definition 5.

A ground tuple ``t̄`` is *peer consistent* for peer P iff
``r'|P |= Q(t̄)`` for **every** solution ``r'`` for P.  The query is posed
in P's own language L(P); data from other peers influences the answers
only through the solutions (which may import tuples into P's relations —
hence, as the paper stresses, a PCA need not be an answer to Q over P's
original data).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..relational.instance import DatabaseInstance
from ..relational.query import Query
from .solutions import SolutionSearch
from .system import PeerSystem

__all__ = ["PCAResult", "peer_consistent_answers", "pca_from_solutions",
           "possible_from_solutions", "possible_peer_answers"]


class PCAResult:
    """Answers plus provenance: how many solutions certified them.

    ``no_solutions`` flags the degenerate case where the peer has no
    solutions at all (e.g. contradictory DECs against fixed data): the
    paper's program-based characterisation shows "the absence of solutions
    ... captured by the non existence of answer sets" — we report it
    explicitly instead of answering vacuously.

    ``solution_count`` may be ``None``: the mechanism (FO rewriting) did
    not enumerate solutions, so the count was *not computed* — which is
    distinct from zero, and leaves ``no_solutions`` False.
    """

    def __init__(self, answers: set[tuple],
                 solution_count: Optional[int]) -> None:
        self.answers = answers
        self.solution_count = solution_count

    @property
    def no_solutions(self) -> bool:
        return self.solution_count == 0

    def __iter__(self):
        return iter(sorted(self.answers))

    def __eq__(self, other) -> bool:
        if isinstance(other, PCAResult):
            return (self.answers == other.answers
                    and self.solution_count == other.solution_count)
        if isinstance(other, set):
            return self.answers == other
        return NotImplemented

    def __repr__(self) -> str:
        count = ("not-counted" if self.solution_count is None
                 else self.solution_count)
        return (f"PCAResult({sorted(self.answers)}, "
                f"solutions={count})")


def pca_from_solutions(system: PeerSystem, peer: str, query: Query,
                       solutions: Sequence[DatabaseInstance]) -> PCAResult:
    """Intersect the query answers over ``r'|P`` for each solution."""
    system.validate_query_scope(peer, query)
    if not solutions:
        return PCAResult(set(), 0)
    common: Optional[set[tuple]] = None
    for solution in solutions:
        restricted = system.restrict_to_peer(solution, peer)
        answers = query.answers(restricted)
        common = answers if common is None else (common & answers)
        if not common:
            break
    assert common is not None
    return PCAResult(common, len(solutions))


def possible_from_solutions(system: PeerSystem, peer: str, query: Query,
                            solutions: Sequence[DatabaseInstance]
                            ) -> PCAResult:
    """Union the query answers over ``r'|P`` for each solution (the brave
    dual of :func:`pca_from_solutions`)."""
    system.validate_query_scope(peer, query)
    union: set[tuple] = set()
    for solution in solutions:
        restricted = system.restrict_to_peer(solution, peer)
        union |= query.answers(restricted)
    return PCAResult(union, len(solutions))


def peer_consistent_answers(system: PeerSystem, peer: str, query: Query,
                            **search_kwargs) -> PCAResult:
    """PCAs by the reference (model-theoretic) route: enumerate solutions,
    evaluate, intersect.  Exponential; see :mod:`repro.core.asp_gav` and
    :mod:`repro.core.fo_rewriting` for the paper's computation methods."""
    search = SolutionSearch(system, peer, **search_kwargs)
    return pca_from_solutions(system, peer, query, search.solutions())


def possible_peer_answers(system: PeerSystem, peer: str, query: Query,
                          **search_kwargs) -> PCAResult:
    """The brave counterpart of Definition 5: tuples true in *some*
    solution's restriction to the peer.

    Not defined in the paper (which only studies the certain semantics),
    but the natural dual — it corresponds to brave answer-set reasoning
    over the specification program and brackets the certain answers:
    ``peer_consistent_answers ⊆ possible_peer_answers``.
    """
    system.validate_query_scope(peer, query)  # before the expensive search
    search = SolutionSearch(system, peer, **search_kwargs)
    return possible_from_solutions(system, peer, query, search.solutions())
