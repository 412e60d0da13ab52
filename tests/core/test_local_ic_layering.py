"""Unit tests for Section 3.2's two ways of handling local ICs.

"One simple way ... consists in using program denial constraints" — which
*prunes* IC-violating solutions; "A more flexible alternative ... consists
in having the specification program split in two layers, where the first
one builds the solutions, without considering the local ICs, and the
second one repairs the solutions wrt the local ICs".
"""

import pytest

from repro.core import (
    DataExchange,
    GavSpecification,
    Peer,
    PeerSystem,
    SystemError_,
    TrustRelation,
    asp_solutions_for_peer,
    solutions_for_peer,
)
from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    FunctionalDependency,
    InclusionDependency,
    RelAtom,
    TupleGeneratingConstraint,
    Variable,
    parse_query,
)

X, Y = Variable("X"), Variable("Y")


def import_vs_fd_system():
    """An import that violates the local FD: A(k, own) vs imported
    (k, imported)."""
    fd = FunctionalDependency("A", [0], [1], arity=2)
    p1 = Peer("P1", DatabaseSchema.of({"A": 2}), local_ics=[fd])
    p2 = Peer("P2", DatabaseSchema.of({"B": 2}))
    instances = {
        "P1": DatabaseInstance(p1.schema, {"A": [("k", "own")]}),
        "P2": DatabaseInstance(p2.schema, {"B": [("k", "imported")]}),
    }
    dec = DataExchange("P1", "P2", InclusionDependency(
        "B", "A", child_arity=2, parent_arity=2, name="imp"))
    return PeerSystem([p1, p2], instances, [dec],
                      TrustRelation([("P1", "less", "P2")]))


class TestLayeredMode:
    def test_matches_definition4(self):
        system = import_vs_fd_system()
        asp = asp_solutions_for_peer(system, "P1")
        model = solutions_for_peer(system, "P1")
        assert asp == model
        assert len(asp) == 1
        assert asp[0].tuples("A") == frozenset({("k", "imported")})

    def test_final_layer_program_shape(self):
        system = import_vs_fd_system()
        fd = system.peer("P1").local_ics[0]
        dec = system.exchanges[0].constraint
        spec = GavSpecification(system.global_instance(), [dec],
                                changeable={"A"}, local_ics=[fd])
        assert spec.uses_final_layer
        text = spec.program.pretty(sort=True)
        # layer B copies layer A with a deletion exception
        assert "a_f(X0, X1) :- a_p(X0, X1), not -a_f(X0, X1)." in text
        # FD repair triggers on the layer-A state, deletes in layer B
        assert "-a_f(X0, X1) v -a_f(X0, Y1) :- a_p(X0, X1), " \
            "a_p(X0, Y1), X1 != Y1." in text
        # the DEC is re-enforced over the final state (via a sat-witness
        # predicate defined from a_f)
        assert "sat_2(X0, X1) :- a_f(X0, X1)." in text
        assert ":- b(X0, X1), not sat_2(X0, X1)." in text

    def test_query_program_uses_final_layer(self):
        system = import_vs_fd_system()
        fd = system.peer("P1").local_ics[0]
        dec = system.exchanges[0].constraint
        spec = GavSpecification(system.global_instance(), [dec],
                                changeable={"A"}, local_ics=[fd])
        answers = spec.query_program_answers(
            parse_query("q(X, Y) := A(X, Y)"))
        assert answers == {("k", "imported")}

    def test_tgd_local_ic_rejected(self):
        schema = DatabaseSchema.of({"A": 2, "B": 2})
        instance = DatabaseInstance(schema, {"A": [("k", "v")]})
        tgd = TupleGeneratingConstraint(
            antecedent=[RelAtom("A", [X, Y])],
            consequent=[RelAtom("B", [X, Y])], name="local_tgd")
        spec = GavSpecification(instance, [], changeable={"A", "B"},
                                local_ics=[tgd])
        with pytest.raises(SystemError_):
            _ = spec.program


class TestDenialMode:
    def test_denial_mode_prunes_instead_of_repairing(self):
        """The paper's "simple way": when the import forces an FD
        violation, the pruned program has NO solutions (the violation
        cannot be avoided), while the layered one repairs it."""
        system = import_vs_fd_system()
        fd = system.peer("P1").local_ics[0]
        dec = system.exchanges[0].constraint
        pruning = GavSpecification(system.global_instance(), [dec],
                                   changeable={"A"}, local_ics=[fd],
                                   local_ic_mode="denial")
        assert pruning.solutions() == []
        layered = GavSpecification(system.global_instance(), [dec],
                                   changeable={"A"}, local_ics=[fd],
                                   local_ic_mode="layered")
        assert len(layered.solutions()) == 1

    def test_denial_mode_keeps_consistent_solutions(self):
        """When solutions do not violate the IC, both modes coincide."""
        fd = FunctionalDependency("A", [0], [1], arity=2)
        schema = DatabaseSchema.of({"A": 2, "B": 2})
        instance = DatabaseInstance(schema, {
            "A": [("k", "v")], "B": [("j", "w")]})
        dec = InclusionDependency("B", "A", child_arity=2, parent_arity=2)
        for mode in ("denial", "layered"):
            spec = GavSpecification(instance, [dec], changeable={"A"},
                                    local_ics=[fd], local_ic_mode=mode)
            (solution,) = spec.solutions()
            assert solution.tuples("A") == frozenset(
                {("k", "v"), ("j", "w")})

    def test_unknown_mode_rejected(self):
        schema = DatabaseSchema.of({"A": 1})
        instance = DatabaseInstance(schema)
        with pytest.raises(SystemError_):
            GavSpecification(instance, [], changeable={"A"},
                             local_ic_mode="zzz")


class TestTradingScenario:
    """The examples/trading_network.py scenario, pinned as a test."""

    def make_system(self):
        S, P, P2 = Variable("S"), Variable("P"), Variable("P2")
        from repro.relational import EqualityGeneratingConstraint
        retail = Peer("Retail", DatabaseSchema.of({"Catalog": 2}),
                      local_ics=[FunctionalDependency(
                          "Catalog", [0], [1], arity=2)])
        supplier = Peer("Supplier", DatabaseSchema.of({"Official": 2}))
        partner = Peer("Partner",
                       DatabaseSchema.of({"PartnerListing": 2}))
        instances = {
            "Retail": DatabaseInstance(retail.schema, {"Catalog": [
                ("umbrella", 12), ("teapot", 30), ("lamp", 40),
                ("chair", 75)]}),
            "Supplier": DatabaseInstance(supplier.schema, {"Official": [
                ("umbrella", 12), ("teapot", 25), ("rug", 99)]}),
            "Partner": DatabaseInstance(partner.schema,
                                        {"PartnerListing": [
                                            ("lamp", 45), ("chair", 75)]}),
        }
        return PeerSystem(
            [retail, supplier, partner], instances,
            [DataExchange("Retail", "Supplier", InclusionDependency(
                "Official", "Catalog", child_arity=2, parent_arity=2,
                name="official")),
             DataExchange("Retail", "Partner",
                          EqualityGeneratingConstraint(
                              antecedent=[
                                  RelAtom("Catalog", [S, P]),
                                  RelAtom("PartnerListing", [S, P2])],
                              equalities=[(P, P2)], name="agree"))],
            TrustRelation([("Retail", "less", "Supplier"),
                           ("Retail", "same", "Partner")]))

    def test_certified_catalog(self):
        from repro.core import PeerQuerySession
        session = PeerQuerySession(self.make_system())
        result = session.answer(
            "Retail", parse_query("q(S, P) := Catalog(S, P)"),
            method="asp")
        assert set(result.answers) == {
            ("umbrella", 12), ("teapot", 25), ("rug", 99), ("chair", 75)}

    def test_asp_equals_model(self):
        system = self.make_system()
        assert asp_solutions_for_peer(system, "Retail") == \
            solutions_for_peer(system, "Retail")

    def test_two_solutions_lamp_dispute(self):
        system = self.make_system()
        solutions = solutions_for_peer(system, "Retail")
        assert len(solutions) == 2
        lamp_prices = {frozenset(p for (s, p) in sol.tuples("Catalog")
                                 if s == "lamp")
                       for sol in solutions}
        assert lamp_prices == {frozenset({40}), frozenset()}
