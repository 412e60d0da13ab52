"""EX6 — Example 4: the transitive case.

P --(DEC (3))--> Q --(∀xy U(x,y) → S1(x,y))--> C, all `less` trust.
Instances: r1={(a,b)}, s1={}, r2={}, s2={(c,e),(c,f)}, u={(c,b)}.

The paper: "If we analyze each peer locally, the solution for Q would
contain the tuple S1(c,b) added; and P would have only one solution,
corresponding to the original instances".  Globally, the combined program
has exactly three solutions::

    {S'1(c,b), R'2(a,f), R'1(a,b)},  {S'1(c,b)},  {S'1(c,b), R'2(a,e),
    R'1(a,b)}
    (each together with the unchanged S2 and U facts).
"""

from repro.core import (
    TransitiveSpecification,
    global_solutions,
    solutions_for_peer,
    transitive_peer_consistent_answers,
)
from repro.relational import Fact, parse_query
from repro.workloads import example4_system

BASE = {"S2(c, e)", "S2(c, f)", "U(c, b)", "S1(c, b)"}

EXPECTED_GLOBAL = sorted([
    tuple(sorted(BASE | {"R1(a, b)", "R2(a, f)"})),
    tuple(sorted(BASE)),
    tuple(sorted(BASE | {"R1(a, b)", "R2(a, e)"})),
])


class TestLocalViews:
    def test_q_local_solution_adds_s1cb(self):
        system = example4_system()
        solutions = solutions_for_peer(system, "Q")
        assert len(solutions) == 1
        assert Fact("S1", ("c", "b")) in solutions[0]

    def test_p_local_solution_is_original(self):
        # locally, s1 = {} so DEC (3) is vacuously satisfied for P
        system = example4_system()
        solutions = solutions_for_peer(system, "P")
        assert solutions == [system.global_instance()]


class TestCombinedProgram:
    def test_program_uses_primed_s1_in_p_rules(self):
        spec = TransitiveSpecification(example4_system(), "P")
        text = spec.program.pretty(sort=True)
        # rules (10)/(11): P's trigger reads S'1, not S1
        assert "s1_p(Z, Y)" in text
        # rule (13): Q's import from U
        assert "s1_p(X0, X1) :- u(X0, X1)" in text

    def test_no_cycles_detected(self):
        spec = TransitiveSpecification(example4_system(), "P")
        assert not spec.has_cycles

    def test_three_global_solutions(self):
        solutions = global_solutions(example4_system(), "P")
        rendered = sorted(tuple(sorted(str(f) for f in s.facts()))
                          for s in solutions)
        assert rendered == EXPECTED_GLOBAL

    def test_global_differs_from_direct(self):
        """The crux of Section 4.3: direct solutions for P miss the
        transitively imported S1(c,b) and its consequences."""
        system = example4_system()
        direct = solutions_for_peer(system, "P")
        combined = global_solutions(system, "P")
        assert direct != combined
        assert len(direct) == 1 and len(combined) == 3


class TestTransitivePCA:
    def test_r1_query(self):
        # R1(a,b) is absent from the all-deleted global solution
        result = transitive_peer_consistent_answers(
            example4_system(), "P", parse_query("q(X, Y) := R1(X, Y)"))
        assert set(result.answers) == set()

    def test_r2_query(self):
        # R2 differs across global solutions: nothing certain
        result = transitive_peer_consistent_answers(
            example4_system(), "P", parse_query("q(X, Y) := R2(X, Y)"))
        assert set(result.answers) == set()

    def test_q_perspective(self):
        # from Q's root, S1(c,b) is certain
        result = transitive_peer_consistent_answers(
            example4_system(), "Q", parse_query("q(X, Y) := S1(X, Y)"))
        assert set(result.answers) == {("c", "b")}


class TestCycleDetection:
    def test_cyclic_network_flagged(self):
        from repro.core import DataExchange, Peer, PeerSystem, \
            TrustRelation
        from repro.relational import (DatabaseInstance, DatabaseSchema,
                                      InclusionDependency)
        a = Peer("A", DatabaseSchema.of({"RA": 1}))
        b = Peer("B", DatabaseSchema.of({"RB": 1}))
        system = PeerSystem(
            [a, b],
            {"A": DatabaseInstance(a.schema, {"RA": [("x",)]}),
             "B": DatabaseInstance(b.schema)},
            [DataExchange("A", "B", InclusionDependency(
                "RB", "RA", child_arity=1, parent_arity=1)),
             DataExchange("B", "A", InclusionDependency(
                 "RA", "RB", child_arity=1, parent_arity=1))],
            TrustRelation([("A", "less", "B"), ("B", "less", "A")]))
        spec = TransitiveSpecification(system, "A")
        assert spec.has_cycles
        # the combined program still has answer sets here (benign cycle)
        assert spec.solutions()

    @staticmethod
    def _import_network(edges):
        """One unary relation per peer; each ``(owner, other)`` edge
        imports ``other``'s relation into ``owner``'s, `less` trusted."""
        from repro.core import PeerSystem
        from repro.relational import InclusionDependency
        builder = PeerSystem.builder()
        for peer in sorted({peer for edge in edges for peer in edge}):
            builder.peer(peer, {f"R{peer}": 1},
                         instance={f"R{peer}": [(peer.lower(),)]})
        for owner, other in edges:
            builder.exchange(owner, other, InclusionDependency(
                f"R{other}", f"R{owner}", child_arity=1, parent_arity=1))
            builder.trust(owner, "less", other)
        return builder.build()

    def test_three_peer_cycle_flagged(self):
        system = self._import_network([("A", "B"), ("B", "C"), ("C", "A")])
        for root in "ABC":
            assert TransitiveSpecification(system, root).has_cycles

    def test_acyclic_diamond_not_flagged(self):
        # two paths from A to D, and no way back
        system = self._import_network([("A", "B"), ("A", "C"), ("B", "D"),
                                       ("C", "D")])
        spec = TransitiveSpecification(system, "A")
        assert spec.relevant_peers == ["A", "B", "C", "D"]
        assert not spec.has_cycles

    def test_self_loop_is_a_cycle(self):
        # a DEC always involves two peers, so a self-edge exists only in
        # the graph the check runs on
        from repro.datalog.graphs import has_cycle
        assert has_cycle({"A": {"A"}})
        assert has_cycle({"A": {"B"}, "B": {"B"}})
        assert not has_cycle({"A": {"B"}, "B": set()})
