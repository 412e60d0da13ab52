"""Unit tests for the synthetic workload generators (shape guarantees the
tests and the ``bench/`` workloads rely on)."""

import pytest

from repro.core import (
    GavSpecification,
    PeerQuerySession,
    TrustLevel,
    solutions_for_peer,
)
from repro.core.asp_gav import asp_solutions_for_peer
from repro.core.transitive import global_solutions
from repro.workloads import (
    conflict_chain_system,
    import_star_system,
    peer_chain_system,
    referential_system,
    topology_system,
)


class TestConflictChain:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_two_to_the_n_solutions(self, n):
        system = conflict_chain_system(n)
        assert len(solutions_for_peer(system, "P1")) == 2 ** n

    def test_clean_tuples_survive_everywhere(self):
        system = conflict_chain_system(2, n_clean=3)
        for solution in solutions_for_peer(system, "P1"):
            for i in range(3):
                assert (f"c{i}", f"cv{i}") in solution.tuples("R1")

    def test_asp_agrees(self):
        system = conflict_chain_system(2)
        assert asp_solutions_for_peer(system, "P1") == \
            solutions_for_peer(system, "P1")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_program_stays_linear_in_the_conflicts(self, n):
        # Section 3.2: the program represents all 2^n solutions compactly
        # — facts, per-relation persistence and one rule per equality
        system = conflict_chain_system(n)
        same = [e.constraint
                for e in system.trusted_decs_of("P1", TrustLevel.SAME)]
        spec = GavSpecification(system.global_instance(), same,
                                changeable={"R1", "R3"})
        assert len(spec.program) <= 8 * n + 10


class TestImportStar:
    def test_single_solution_without_conflicts(self):
        system = import_star_system(10, n_neighbours=2)
        solutions = solutions_for_peer(system, "P0")
        assert len(solutions) == 1

    def test_everything_imported(self):
        system = import_star_system(6, n_neighbours=2, overlap=0.5)
        (solution,) = solutions_for_peer(system, "P0")
        r0 = solution.tuples("R0")
        for j in (1, 2):
            assert system.instances[f"P{j}"].tuples(f"M{j}") <= r0

    def test_conflicts_create_solution_pairs(self):
        system = import_star_system(4, n_neighbours=1, conflicts=2,
                                    overlap=0.0)
        solutions = solutions_for_peer(system, "P0")
        assert len(solutions) == 4  # 2 independent conflicts

    @pytest.mark.parametrize("n", [20, 60])
    def test_rewriting_agrees_with_asp(self, n):
        system = import_star_system(n, n_neighbours=2, conflicts=2,
                                    seed=11)
        session = PeerQuerySession(system)
        query = "q(X, Y) := R0(X, Y)"
        rewritten = session.answer("P0", query, method="rewrite")
        assert rewritten.answers
        assert rewritten.answers == \
            session.answer("P0", query, method="asp").answers

    def test_deterministic_given_seed(self):
        one = import_star_system(8, n_neighbours=2, seed=3)
        two = import_star_system(8, n_neighbours=2, seed=3)
        assert one.global_instance() == two.global_instance()


class TestReferential:
    def test_solution_count_formula(self):
        # each violation: 1 deletion + n_witnesses insertions
        for violations, witnesses in ((1, 1), (1, 2), (2, 2)):
            system = referential_system(violations, witnesses)
            solutions = solutions_for_peer(system, "P")
            assert len(solutions) == (witnesses + 1) ** violations

    def test_satisfied_pairs_untouched(self):
        system = referential_system(1, 1, n_satisfied=2)
        for solution in solutions_for_peer(system, "P"):
            assert ("sd0", "sm0") in solution.tuples("R1")
            assert ("sd1", "sm1") in solution.tuples("R1")


class TestPeerChain:
    def test_propagation_to_root(self):
        system = peer_chain_system(3, n_tuples=2)
        solutions = global_solutions(system, "P0")
        assert len(solutions) == 1
        root_relation = solutions[0].tuples("T0")
        assert root_relation == frozenset({("x0", "y0"), ("x1", "y1")})

    def test_direct_semantics_sees_one_hop_only(self):
        system = peer_chain_system(2, n_tuples=1)
        direct = solutions_for_peer(system, "P0")
        # T1 is empty originally, so the direct solution imports nothing
        assert direct[0].tuples("T0") == frozenset()

    def test_length_validation(self):
        with pytest.raises(ValueError):
            peer_chain_system(0)


class TestTopologySystem:
    def _reachable(self, system, root="P0"):
        seen, frontier = {root}, [root]
        while frontier:
            current = frontier.pop()
            for neighbour in system.neighbours(current):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen

    @pytest.mark.parametrize("topology", ["chain", "star", "random"])
    def test_every_peer_reachable_from_the_root(self, topology):
        for seed in range(4):
            system = topology_system(5, topology=topology,
                                     extra_edges=2, seed=seed)
            assert self._reachable(system) == set(system.peers)

    def test_chain_and_star_shapes(self):
        chain = topology_system(4, topology="chain")
        assert chain.neighbours("P0") == ("P1",)
        assert chain.neighbours("P2") == ("P3",)
        star = topology_system(4, topology="star")
        assert star.neighbours("P0") == ("P1", "P2", "P3")
        assert star.neighbours("P1") == ()

    def test_deterministic_given_the_seed(self):
        def shape(seed):
            system = topology_system(5, topology="random",
                                     extra_edges=2, seed=seed)
            return ({n: system.neighbours(n) for n in system.peers},
                    {n: system.instances[n].tuples(f"R{i}")
                     for i, n in enumerate(sorted(system.peers))
                     if n != "PC"})
        assert shape(3) == shape(3)
        assert shape(3) != shape(4)

    def test_conflicts_add_a_same_trust_peer(self):
        from repro.core import TrustLevel
        system = topology_system(3, topology="star", conflicts=2)
        assert "PC" in system.peers
        assert system.trust.level("P0", "PC") is TrustLevel.SAME
        # the conflict peer makes P0 genuinely inconsistent: multiple
        # solutions appear
        assert len(asp_solutions_for_peer(system, "P0")) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            topology_system(0)
        with pytest.raises(ValueError):
            topology_system(3, topology="mesh")
