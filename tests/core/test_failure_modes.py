"""Failure injection: contradictory systems, resource limits, and the
footnote-1 extension (peers with locally inconsistent instances)."""

import pytest

from repro.core import (
    DataExchange,
    GavSpecification,
    Peer,
    PeerQuerySession,
    PeerSystem,
    SystemError_,
    TrustRelation,
    asp_solutions_for_peer,
    peer_consistent_answers,
    solutions_for_peer,
)
from repro.datalog import GroundingError, SolverError
from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    DenialConstraint,
    FunctionalDependency,
    InclusionDependency,
    RelAtom,
    Variable,
    parse_query,
)
from repro.workloads import conflict_chain_system

X, Y = Variable("X"), Variable("Y")


class TestContradictorySystems:
    def make_pinned_contradiction(self):
        """Import forces A(c,d); a denial DEC forbids it; both DECs are
        toward the fixed, more-trusted peer: unsatisfiable."""
        p1 = Peer("P1", DatabaseSchema.of({"A": 2}))
        p2 = Peer("P2", DatabaseSchema.of({"B": 2}))
        instances = {
            "P1": DatabaseInstance(p1.schema),
            "P2": DatabaseInstance(p2.schema, {"B": [("c", "d")]}),
        }
        return PeerSystem(
            [p1, p2], instances,
            [DataExchange("P1", "P2", InclusionDependency(
                "B", "A", child_arity=2, parent_arity=2, name="imp")),
             DataExchange("P1", "P2", DenialConstraint(
                 antecedent=[RelAtom("A", [X, Y]), RelAtom("B", [X, Y])],
                 name="forbid"))],
            TrustRelation([("P1", "less", "P2")]))

    def test_model_route_returns_no_solutions(self):
        system = self.make_pinned_contradiction()
        assert solutions_for_peer(system, "P1") == []

    def test_asp_route_has_no_answer_sets(self):
        """Section 3.2: "The absence of solutions for a peer will thus be
        captured by the non existence of answer sets"."""
        system = self.make_pinned_contradiction()
        assert asp_solutions_for_peer(system, "P1") == []

    def test_pca_reports_no_solutions(self):
        system = self.make_pinned_contradiction()
        result = peer_consistent_answers(
            system, "P1", parse_query("q(X, Y) := A(X, Y)"))
        assert result.no_solutions
        assert result.answers == set()

    def test_engine_consistent_behaviour_across_methods(self):
        session = PeerQuerySession(self.make_pinned_contradiction())
        for method in ("model", "asp"):
            result = session.answer(
                "P1", parse_query("q(X, Y) := A(X, Y)"), method=method)
            assert result.answers == set()
            assert result.no_solutions


class TestFootnote1LocalViolations:
    """Footnote 1: "It would not be difficult to extend this scenario to
    one that allows local violations of ICs" — with
    enforce_local_ics=False at construction, the solution semantics
    repairs the local inconsistency."""

    def make_locally_inconsistent(self):
        fd = FunctionalDependency("A", [0], [1], arity=2)
        p1 = Peer("P1", DatabaseSchema.of({"A": 2}), local_ics=[fd])
        instances = {"P1": DatabaseInstance(
            p1.schema, {"A": [("k", "v1"), ("k", "v2")]})}
        return PeerSystem([p1], instances, enforce_local_ics=False)

    def test_construction_rejects_by_default(self):
        fd = FunctionalDependency("A", [0], [1], arity=2)
        p1 = Peer("P1", DatabaseSchema.of({"A": 2}), local_ics=[fd])
        instances = {"P1": DatabaseInstance(
            p1.schema, {"A": [("k", "v1"), ("k", "v2")]})}
        with pytest.raises(SystemError_):
            PeerSystem([p1], instances)

    def test_solutions_repair_the_local_violation(self):
        system = self.make_locally_inconsistent()
        solutions = solutions_for_peer(system, "P1")
        assert len(solutions) == 2  # keep v1 or keep v2
        for solution in solutions:
            assert len(solution.tuples("A")) == 1

    def test_asp_route_agrees(self):
        system = self.make_locally_inconsistent()
        assert asp_solutions_for_peer(system, "P1") == \
            solutions_for_peer(system, "P1")

    def test_pca_certifies_the_key_only(self):
        system = self.make_locally_inconsistent()
        key_query = parse_query("q(X) := exists Y A(X, Y)")
        result = peer_consistent_answers(system, "P1", key_query)
        assert set(result.answers) == {("k",)}
        value_query = parse_query("q(X, Y) := A(X, Y)")
        result = peer_consistent_answers(system, "P1", value_query)
        assert result.answers == set()


class TestResourceLimits:
    def test_grounding_budget(self):
        from repro.datalog import parse_program, ground_program
        program = parse_program("""
            pair(X, Y) :- d(X), d(Y).
            d(1). d(2). d(3). d(4). d(5). d(6).
        """)
        with pytest.raises(GroundingError):
            ground_program(program, max_atoms=10)

    def test_solver_decision_budget(self):
        from repro.datalog import parse_program, ground_program
        from repro.datalog.stable import StableModelSolver
        text = "\n".join(f"a{i} :- not b{i}. b{i} :- not a{i}."
                         for i in range(10))
        ground = ground_program(parse_program(text))
        with pytest.raises(SolverError):
            StableModelSolver(ground, max_decisions=2).solve()

    def test_repair_max_changes_reports_empty(self):
        from repro.cqa import RepairProblem, repairs
        system = conflict_chain_system(3)
        from repro.core.trust import TrustLevel
        constraints = [e.constraint for e in
                       system.trusted_decs_of("P1", TrustLevel.SAME)]
        problem = RepairProblem(system.global_instance(), constraints,
                                max_changes=1)
        assert len(repairs(problem)) == 0

    def test_solution_search_max_solutions_cap(self):
        from repro.core import SolutionSearch
        system = conflict_chain_system(4)
        search = SolutionSearch(system, "P1", max_solutions=5)
        assert len(search.solutions()) == 5


class TestDegenerateSystems:
    def test_single_peer_no_decs(self):
        p = Peer("P", DatabaseSchema.of({"A": 1}))
        system = PeerSystem(
            [p], {"P": DatabaseInstance(p.schema, {"A": [("x",)]})})
        assert solutions_for_peer(system, "P") == \
            [system.global_instance()]
        result = peer_consistent_answers(system, "P",
                                         parse_query("q(X) := A(X)"))
        assert set(result.answers) == {("x",)}

    def test_empty_instances_everywhere(self):
        from repro.workloads import example1_system
        system = example1_system(r1=[], r2=[], r3=[])
        assert solutions_for_peer(system, "P1") == \
            [system.global_instance()]

    def test_empty_system_rejected(self):
        with pytest.raises(SystemError_):
            PeerSystem([], {})

    def test_gav_spec_without_constraints(self):
        instance = DatabaseInstance(DatabaseSchema.of({"A": 1}),
                                    {"A": [("x",)]})
        spec = GavSpecification(instance, [], changeable={"A"})
        assert spec.solutions() == [instance]
