"""Unit tests for Definition 4 (solutions) and Definition 5 (PCAs) beyond
the paper's instances: edge cases, trust variations, local ICs, failure
modes."""

import pytest

from repro.core import (
    DataExchange,
    PCAResult,
    Peer,
    PeerSystem,
    SolutionSearch,
    TrustRelation,
    peer_consistent_answers,
    solutions_for_peer,
)
from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    DenialConstraint,
    Fact,
    FunctionalDependency,
    InclusionDependency,
    EqualityGeneratingConstraint,
    RelAtom,
    Variable,
    parse_query,
)
from repro.workloads import example1_system

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def small_system(r1_rows, r2_rows, trust_level, *, local_ics=(),
                 enforce=True):
    p1 = Peer("P1", DatabaseSchema.of({"A": 2}), local_ics=local_ics)
    p2 = Peer("P2", DatabaseSchema.of({"B": 2}))
    instances = {
        "P1": DatabaseInstance(p1.schema, {"A": r1_rows}),
        "P2": DatabaseInstance(p2.schema, {"B": r2_rows}),
    }
    dec = DataExchange("P1", "P2", InclusionDependency(
        "B", "A", child_arity=2, parent_arity=2, name="imp"))
    trust = TrustRelation([("P1", trust_level, "P2")]) \
        if trust_level else TrustRelation()
    return PeerSystem([p1, p2], instances, [dec], trust,
                      enforce_local_ics=enforce)


class TestTrustVariations:
    def test_less_trust_imports(self):
        system = small_system([], [("c", "d")], "less")
        (solution,) = solutions_for_peer(system, "P1")
        assert Fact("A", ("c", "d")) in solution

    def test_same_trust_import_or_drop(self):
        system = small_system([], [("c", "d")], "same")
        solutions = solutions_for_peer(system, "P1")
        rendered = sorted(str(s) for s in solutions)
        assert rendered == ["{A(c, d), B(c, d)}", "{}"]

    def test_no_trust_edge_dec_ignored(self):
        system = small_system([], [("c", "d")], None)
        solutions = solutions_for_peer(system, "P1")
        assert solutions == [system.global_instance()]

    def test_consistent_system_identity(self):
        system = small_system([("c", "d")], [("c", "d")], "less")
        assert solutions_for_peer(system, "P1") == \
            [system.global_instance()]


class TestNoSolutions:
    def make_contradictory(self):
        """B must flow into A, but a denial forbids A-tuples; everything
        of P2 is fixed: no solution exists."""
        p1 = Peer("P1", DatabaseSchema.of({"A": 2}))
        p2 = Peer("P2", DatabaseSchema.of({"B": 2}))
        instances = {
            "P1": DatabaseInstance(p1.schema),
            "P2": DatabaseInstance(p2.schema, {"B": [("c", "d")]}),
        }
        import_dec = DataExchange("P1", "P2", InclusionDependency(
            "B", "A", child_arity=2, parent_arity=2, name="imp"))
        forbid = DataExchange("P1", "P2", DenialConstraint(
            antecedent=[RelAtom("A", [X, Y]), RelAtom("B", [X, Y])],
            name="forbid"))
        trust = TrustRelation([("P1", "less", "P2")])
        return PeerSystem([p1, p2], instances, [import_dec, forbid],
                          trust)

    def test_empty_solution_set(self):
        system = self.make_contradictory()
        assert solutions_for_peer(system, "P1") == []

    def test_pca_flags_no_solutions(self):
        system = self.make_contradictory()
        result = peer_consistent_answers(system, "P1",
                                         parse_query("q(X,Y) := A(X,Y)"))
        assert result.no_solutions
        assert result.answers == set()


class TestLocalICs:
    def test_import_conflicting_with_fd(self):
        """Imported tuple violates the local FD: with IC enforcement the
        peer must drop its own conflicting tuple (import is pinned)."""
        fd = FunctionalDependency("A", [0], [1], arity=2)
        system = small_system([("k", "own")], [("k", "imported")], "less",
                              local_ics=[fd])
        solutions = solutions_for_peer(system, "P1")
        assert len(solutions) == 1
        assert solutions[0].tuples("A") == frozenset({("k", "imported")})

    def test_local_ics_can_be_excluded(self):
        fd = FunctionalDependency("A", [0], [1], arity=2)
        system = small_system([("k", "own")], [("k", "imported")], "less",
                              local_ics=[fd])
        search = SolutionSearch(system, "P1", include_local_ics=False)
        (solution,) = search.solutions()
        assert solution.tuples("A") == frozenset(
            {("k", "own"), ("k", "imported")})


class TestPriorityBetweenStages:
    def test_less_beats_same(self):
        """A `less` import pins a tuple that a `same` conflict would
        otherwise be free to delete (Example 1's R1(a,e) phenomenon)."""
        system = example1_system(r1=[("a", "b")], r2=[("a", "e")],
                                 r3=[("a", "f")])
        for solution in solutions_for_peer(system, "P1"):
            # the import R1(a,e) survives in every solution...
            assert Fact("R1", ("a", "e")) in solution
            # ...so the conflicting R3(a,f) never does
            assert Fact("R3", ("a", "f")) not in solution

    def test_stage2_changes_same_peer_only(self):
        system = example1_system()
        for solution in solutions_for_peer(system, "P1"):
            assert solution.tuples("R2") == \
                system.instances["P2"].tuples("R2")


class TestPCAResult:
    def test_equality_with_plain_set(self):
        result = PCAResult({("a",)}, 3)
        assert result == {("a",)}
        assert result != {("b",)}

    def test_equality_between_results(self):
        """Two results are equal when both the answers and the solution
        count agree; either one differing makes them unequal."""
        assert PCAResult({("a",)}, 3) == PCAResult({("a",)}, 3)
        assert not PCAResult({("a",)}, 3) != PCAResult({("a",)}, 3)
        assert PCAResult({("a",)}, 3) != PCAResult({("a",)}, 2)
        assert PCAResult({("a",)}, 3) != PCAResult({("b",)}, 3)
        assert PCAResult(set(), None) != PCAResult(set(), 0)

    def test_iteration_sorted(self):
        result = PCAResult({("b",), ("a",)}, 1)
        assert list(result) == [("a",), ("b",)]

    def test_pca_query_scope_enforced(self):
        from repro.core import QueryScopeError
        system = example1_system()
        with pytest.raises(QueryScopeError):
            peer_consistent_answers(system, "P1",
                                    parse_query("q(X,Y) := R2(X,Y)"))

    def test_pca_may_exceed_local_answers(self):
        """The paper: 'a query Q may have peer consistent answers for a
        peer which are not answers to Q when the peer is considered in
        isolation'."""
        system = example1_system()
        query = parse_query("q(X, Y) := R1(X, Y)")
        local = query.answers(system.instances["P1"])
        pca = set(peer_consistent_answers(system, "P1", query).answers)
        assert ("c", "d") in pca - local


class TestBooleanAndProjectionQueries:
    def test_boolean_query(self):
        system = example1_system()
        query = parse_query("q() := exists X exists Y R1(X, Y)")
        result = peer_consistent_answers(system, "P1", query)
        assert result.answers == {()}

    def test_projection_query(self):
        system = example1_system()
        query = parse_query("q(X) := exists Y R1(X, Y)")
        result = peer_consistent_answers(system, "P1", query)
        # 's' appears in R1 only via R1(s,t), which one solution deletes
        assert set(result.answers) == {("a",), ("c",)}

    def test_negation_query(self):
        # FO queries with negation work against the model-theoretic route
        system = example1_system()
        query = parse_query(
            "q(X, Y) := R1(X, Y) & ~exists Z (R1(Z, Y) & Z != X)")
        result = peer_consistent_answers(system, "P1", query)
        assert isinstance(result.answers, set)


class TestEGDBothSidesDeletable:
    def test_two_solutions_per_conflict(self):
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("A", [X, Y]), RelAtom("B", [X, Z])],
            equalities=[(Y, Z)], name="conflict")
        p1 = Peer("P1", DatabaseSchema.of({"A": 2}))
        p2 = Peer("P2", DatabaseSchema.of({"B": 2}))
        instances = {
            "P1": DatabaseInstance(p1.schema, {"A": [("k", "v")]}),
            "P2": DatabaseInstance(p2.schema, {"B": [("k", "w")]}),
        }
        system = PeerSystem(
            [p1, p2], instances,
            [DataExchange("P1", "P2", egd)],
            TrustRelation([("P1", "same", "P2")]))
        solutions = solutions_for_peer(system, "P1")
        assert len(solutions) == 2
