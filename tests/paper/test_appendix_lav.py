"""EX5 — the Appendix: LAV three-layer program, stable models M1-M4.

Facts: R1(a,b), S1(c,b), S2(c,e), S2(c,f).  The paper lists four stable
models M1-M4 and their solutions::

    r^M1 = {S'1(c,b), S'2(c,e), S'2(c,f), R'1(a,b), R'2(a,f)}
    r^M2 = {S'1(c,b), S'2(c,e), S'2(c,f)}
    r^M3 = {S'1(c,b), S'2(c,e), S'2(c,f), R'1(a,b), R'2(a,e)}
    r^M4 = r^M2

(The printed closure constraints lack the `not`; we implement the
corrected version — see DESIGN.md errata.)
"""

import pytest

from repro.core import (
    LavSpecification,
    PeerQuerySession,
    SourceLabel,
    labels_for_peer,
)
from repro.core.asp_gav import asp_solutions_for_peer
from repro.workloads import (
    appendix_instance,
    section31_dec,
    section31_system,
)

LABELS = {
    "R1": SourceLabel.CLOSED,
    "R2": SourceLabel.OPEN,
    "S1": SourceLabel.CLOPEN,
    "S2": SourceLabel.CLOPEN,
}


def make_spec():
    return LavSpecification(appendix_instance(), [section31_dec()],
                            LABELS)


def _annotated(model, annotation):
    out = set()
    for literal in model:
        if literal.positive and literal.atom.args \
                and str(literal.atom.args[-1]) == annotation:
            out.add(str(literal))
    return out


class TestLabels:
    def test_auto_labels_match_appendix(self):
        system = section31_system()
        assert labels_for_peer(system, "P") == LABELS

    def test_labelling_rejects_two_sided_relations(self):
        from repro.core import SystemError_
        from repro.relational import (RelAtom, TupleGeneratingConstraint,
                                      Variable)
        from repro.core import DataExchange, Peer, PeerSystem, \
            TrustRelation
        from repro.relational import DatabaseSchema, DatabaseInstance
        X, Y = Variable("X"), Variable("Y")
        p = Peer("P", DatabaseSchema.of({"A": 1}))
        q = Peer("Q", DatabaseSchema.of({"B": 1}))
        # A occurs in the antecedent and the consequent
        dec = TupleGeneratingConstraint(
            antecedent=[RelAtom("A", [X]), RelAtom("B", [X])],
            consequent=[RelAtom("A", [X])], name="loop")
        system = PeerSystem(
            [p, q],
            {"P": DatabaseInstance(p.schema),
             "Q": DatabaseInstance(q.schema)},
            [DataExchange("P", "Q", dec)],
            TrustRelation([("P", "less", "Q")]))
        with pytest.raises(SystemError_):
            labels_for_peer(system, "P")


class TestStableModels:
    def test_four_models(self):
        assert len(make_spec().answer_sets()) == 4

    def test_td_layer_identical_across_models(self):
        expected_td = {
            "r1_p(a, b, td)", "s1_p(c, b, td)",
            "s2_p(c, e, td)", "s2_p(c, f, td)"}
        for model in make_spec().answer_sets():
            assert _annotated(model, "td") == expected_td

    def test_tss_projections_match_m1_to_m4(self):
        projections = sorted(
            tuple(sorted(_annotated(model, "tss")))
            for model in make_spec().answer_sets())
        base = ("s1_p(c, b, tss)", "s2_p(c, e, tss)", "s2_p(c, f, tss)")
        assert projections == sorted([
            tuple(sorted(base + ("r1_p(a, b, tss)",
                                 "r2_p(a, f, tss)"))),   # M1
            base,                                         # M2
            tuple(sorted(base + ("r1_p(a, b, tss)",
                                 "r2_p(a, e, tss)"))),   # M3
            base,                                         # M4
        ])

    def test_chosen_is_functional(self):
        for model in make_spec().answer_sets():
            chosen = [l for l in model if l.predicate == "chosen"]
            assert len(chosen) == 1
            assert str(chosen[0]) in ("chosen(a, c, e)",
                                      "chosen(a, c, f)")

    def test_fa_only_on_closed_ta_only_on_open(self):
        for model in make_spec().answer_sets():
            for literal in model:
                if not literal.positive or not literal.atom.args:
                    continue
                annotation = str(literal.atom.args[-1])
                if annotation == "fa":
                    assert literal.predicate == "r1_p"  # R1 is closed
                if annotation == "ta":
                    assert literal.predicate == "r2_p"  # R2 is open


class TestSolutions:
    EXPECTED = sorted([
        tuple(sorted({"S1(c, b)", "S2(c, e)", "S2(c, f)", "R1(a, b)",
                      "R2(a, f)"})),
        tuple(sorted({"S1(c, b)", "S2(c, e)", "S2(c, f)"})),
        tuple(sorted({"S1(c, b)", "S2(c, e)", "S2(c, f)", "R1(a, b)",
                      "R2(a, e)"})),
    ])

    def test_three_distinct_solutions(self):
        solutions = make_spec().solutions()
        rendered = sorted(tuple(sorted(str(f) for f in s.facts()))
                          for s in solutions)
        assert rendered == self.EXPECTED

    def test_lav_agrees_with_gav(self):
        system = section31_system()
        lav = PeerQuerySession(system).solutions("P", method="lav")
        gav = asp_solutions_for_peer(system, "P")
        assert lav == gav
