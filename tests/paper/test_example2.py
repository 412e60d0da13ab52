"""EX2 — Example 2: FO rewriting and the peer consistent answers.

The paper rewrites Q : R1(x,y) into formula (1)::

    Q'': [R1(x,y) ∧ ∀z1 (R3(x,z1) ∧ ¬∃z2 R2(x,z2) → z1 = y)] ∨ R2(x,y)

and states: "The answers to query (1) are (a,b), (c,d), (a,e), precisely
the peer consistent answers to query Q for peer P1".
"""

import pytest

from repro.core import (
    PeerQuerySession,
    answers_via_rewriting,
    peer_consistent_answers,
    rewrite_peer_query,
)
from repro.relational import parse_formula
from repro.workloads import (
    example1_query,
    example1_system,
    example2_rewritten_text,
)

EXPECTED_PCA = {("a", "b"), ("c", "d"), ("a", "e")}


class TestPaperFormula:
    def test_verbatim_formula_answers_on_paper_instance(self):
        """Formula (1) evaluated over the raw global instance returns the
        paper's three tuples."""
        system = example1_system()
        formula = parse_formula(example2_rewritten_text())
        from repro.relational import Query, Variable
        query = Query("q", [Variable("X"), Variable("Y")], formula)
        assert query.answers(system.global_instance()) == EXPECTED_PCA


class TestLibraryRewriting:
    def test_rewriting_answers(self):
        system = example1_system()
        answers = answers_via_rewriting(system, "P1", example1_query())
        assert answers == EXPECTED_PCA

    def test_rewriting_matches_model_theoretic(self):
        system = example1_system()
        model = peer_consistent_answers(system, "P1", example1_query())
        assert set(model.answers) == EXPECTED_PCA

    def test_rewritten_query_shape(self):
        system = example1_system()
        rewritten = rewrite_peer_query(system, "P1", example1_query())
        text = str(rewritten)
        # a guarded base disjunct plus the R2 import disjunct
        assert "R2(X, Y)" in text
        assert "forall" in text and "R3(X," in text

    def test_exchange_log_records_the_two_requests(self):
        """Example 2's narrative: P1 queries P2 for R2, then P3 for R3."""
        system = example1_system()
        answers_via_rewriting(system, "P1", example1_query())
        providers = {(e.provider, e.relation)
                     for e in system.exchange_log.events("P1")}
        assert providers == {("P2", "R2"), ("P3", "R3")}


class TestAllMethodsAgree:
    @pytest.mark.parametrize("method", ["model", "asp", "rewrite"])
    def test_method(self, method):
        session = PeerQuerySession(example1_system())
        result = session.answer("P1", example1_query(), method=method)
        assert set(result.answers) == EXPECTED_PCA


class TestProtectionCornerCase:
    """Where the verbatim formula (1) and Definition 5 diverge — the
    refined protection (DESIGN.md errata) is required.

    Instances: r1 = {R1(a,b)}, r2 = {R2(a,f)}, r3 = {R3(a,f)}.
    R1(a,f) is forced by the import; the pair (R1(a,f), R3(a,f)) is
    consistent, so R3(a,f) need not leave — deleting R1(a,b) or deleting
    R3(a,f) are both minimal, hence R1(a,b) is NOT peer consistent.
    """

    def setup_method(self):
        self.system = example1_system(r1=[("a", "b")], r2=[("a", "f")],
                                      r3=[("a", "f")])

    def test_model_theoretic_excludes_ab(self):
        result = peer_consistent_answers(self.system, "P1",
                                         example1_query())
        assert set(result.answers) == {("a", "f")}

    def test_library_rewriting_matches_model(self):
        answers = answers_via_rewriting(self.system, "P1",
                                        example1_query())
        assert answers == {("a", "f")}

    def test_verbatim_formula_overprotects(self):
        """Documented erratum: the paper's (1) keeps (a,b) here."""
        from repro.relational import Query, Variable
        formula = parse_formula(example2_rewritten_text())
        query = Query("q", [Variable("X"), Variable("Y")], formula)
        verbatim = query.answers(self.system.global_instance())
        assert ("a", "b") in verbatim  # the reason we refined it
