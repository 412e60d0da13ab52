"""The paper's worked examples as reusable fixtures.

Every instance, DEC, and trust edge below is transcribed from the paper;
tests and examples all build on these functions so the
expected outputs (solutions, PCAs, stable models) live in exactly one
place: the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..datalog.terms import Variable
from ..relational.constraints import (
    EqualityGeneratingConstraint,
    InclusionDependency,
    TupleGeneratingConstraint,
)
from ..relational.instance import DatabaseInstance
from ..relational.query import Query, RelAtom
from ..relational.query_parser import parse_query
from ..relational.schema import DatabaseSchema
from ..core.system import PeerSystem

__all__ = [
    "example1_system",
    "example1_query",
    "example2_rewritten_text",
    "section31_dec",
    "section31_instance",
    "section31_system",
    "appendix_instance",
    "example4_system",
]

_X, _Y, _Z, _W = (Variable("X"), Variable("Y"), Variable("Z"),
                  Variable("W"))


def sigma_p1_p2() -> InclusionDependency:
    """Σ(P1,P2) = { ∀xy (R2(x,y) → R1(x,y)) } of Example 1."""
    return InclusionDependency("R2", "R1", child_arity=2, parent_arity=2,
                               name="sigma_p1_p2")


def sigma_p1_p3() -> EqualityGeneratingConstraint:
    """Σ(P1,P3) = { ∀xyz (R1(x,y) ∧ R3(x,z) → y = z) } of Example 1."""
    return EqualityGeneratingConstraint(
        antecedent=[RelAtom("R1", [_X, _Y]), RelAtom("R3", [_X, _Z])],
        equalities=[(_Y, _Z)], name="sigma_p1_p3")


def example1_system(r1: Optional[Sequence[tuple]] = None,
                    r2: Optional[Sequence[tuple]] = None,
                    r3: Optional[Sequence[tuple]] = None) -> PeerSystem:
    """The three-peer system of Example 1 (instances overridable).

    Defaults: r1 = {R1(a,b), R1(s,t)}, r2 = {R2(c,d), R2(a,e)},
    r3 = {R3(a,f), R3(s,u)}; trust = {(P1,less,P2), (P1,same,P3)}.
    """
    r1 = [("a", "b"), ("s", "t")] if r1 is None else r1
    r2 = [("c", "d"), ("a", "e")] if r2 is None else r2
    r3 = [("a", "f"), ("s", "u")] if r3 is None else r3
    return (PeerSystem.builder()
            .peer("P1", {"R1": 2}, instance={"R1": r1})
            .peer("P2", {"R2": 2}, instance={"R2": r2})
            .peer("P3", {"R3": 2}, instance={"R3": r3})
            .exchange("P1", "P2", sigma_p1_p2())
            .exchange("P1", "P3", sigma_p1_p3())
            .trust("P1", "less", "P2")
            .trust("P1", "same", "P3")
            .build())


def example1_query() -> Query:
    """Q : R1(x, y) — the query of Example 2."""
    return parse_query("q(X, Y) := R1(X, Y)")


def example2_rewritten_text() -> str:
    """Formula (1) of Example 2, verbatim (see DESIGN.md on the refined
    protection the library's rewriter emits instead)."""
    return ("(R1(X, Y) & forall Z1 ((R3(X, Z1) & ~exists Z2 R2(X, Z2)) "
            "-> Z1 = Y)) | R2(X, Y)")


def section31_dec() -> TupleGeneratingConstraint:
    """DEC (3): ∀xyz∃w (R1(x,y) ∧ S1(z,y) → R2(x,w) ∧ S2(z,w))."""
    return TupleGeneratingConstraint(
        antecedent=[RelAtom("R1", [_X, _Y]), RelAtom("S1", [_Z, _Y])],
        consequent=[RelAtom("R2", [_X, _W]), RelAtom("S2", [_Z, _W])],
        name="dec3")


def section31_schema() -> DatabaseSchema:
    return DatabaseSchema.of({"R1": 2, "R2": 2, "S1": 2, "S2": 2})


def appendix_instance() -> DatabaseInstance:
    """The Appendix instances: r1={(a,b)}, s1={(c,b)}, r2={},
    s2={(c,e),(c,f)}."""
    return DatabaseInstance(section31_schema(), {
        "R1": [("a", "b")],
        "S1": [("c", "b")],
        "S2": [("c", "e"), ("c", "f")],
    })


def section31_instance() -> DatabaseInstance:
    """Alias — Section 3.1 is evaluated on the Appendix instances."""
    return appendix_instance()


def section31_system(r1: Optional[Sequence[tuple]] = None,
                     s1: Optional[Sequence[tuple]] = None,
                     r2: Optional[Sequence[tuple]] = None,
                     s2: Optional[Sequence[tuple]] = None) -> PeerSystem:
    """The two-peer system of Section 3.1 with (P, less, Q)."""
    r1 = [("a", "b")] if r1 is None else r1
    s1 = [("c", "b")] if s1 is None else s1
    r2 = [] if r2 is None else r2
    s2 = [("c", "e"), ("c", "f")] if s2 is None else s2
    return (PeerSystem.builder()
            .peer("P", {"R1": 2, "R2": 2}, instance={"R1": r1, "R2": r2})
            .peer("Q", {"S1": 2, "S2": 2}, instance={"S1": s1, "S2": s2})
            .exchange("P", "Q", section31_dec())
            .trust("P", "less", "Q")
            .build())


def example4_system() -> PeerSystem:
    """Example 4: P —(3)→ Q —(U⊆S1)→ C, all `less` trust.

    Instances: r1={(a,b)}, s1={}, r2={}, s2={(c,e),(c,f)}, u={(c,b)}.
    """
    sigma_qc = InclusionDependency("U", "S1", child_arity=2,
                                   parent_arity=2, name="sigma_qc")
    return (PeerSystem.builder()
            .peer("P", {"R1": 2, "R2": 2},
                  instance={"R1": [("a", "b")]})
            .peer("Q", {"S1": 2, "S2": 2},
                  instance={"S2": [("c", "e"), ("c", "f")]})
            .peer("C", {"U": 2}, instance={"U": [("c", "b")]})
            .exchange("P", "Q", section31_dec())
            .exchange("Q", "C", sigma_qc)
            .trust("P", "less", "Q")
            .trust("Q", "less", "C")
            .build())
