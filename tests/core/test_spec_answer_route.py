"""Differential test of the `lav` and `transitive` answer routes.

Both methods keep their specification solved in an ``AspSolutions`` and
answer a conjunctive query off its stable models' atom ids, as ``asp``
does (``test_asp_answer_route.py``).  Every answer and ``solution_count``
here must equal decode-and-intersect over the specification's decoded
``solutions()``, and the model-theoretic ``model`` method wherever the
two semantics coincide.  A conjunctive query over relations the program
holds decodes no instance; a system outside a method's class raises the
typed ``SystemError_``, and where ``asp`` refuses too, ``auto`` answers
it as ``model`` does.

CI runs this file under two hash seeds: answers and counts built from id
sets must not depend on ``PYTHONHASHSEED``.
"""

import pytest

from repro.core import (
    AspSolutions,
    PeerQuerySession,
    PeerSystem,
    SystemError_,
    TransitiveSpecification,
    get_method,
    pca_from_solutions,
    possible_from_solutions,
)
from repro.core.asp_lav import lav_specification_for_peer
from repro.core.transitive import transitive_specification_for_peer
from repro.relational import (
    DatabaseInstance,
    InclusionDependency,
    parse_query,
)
from repro.workloads import (
    example1_system,
    example4_system,
    import_star_system,
    peer_chain_system,
    referential_system,
    section31_dec,
    section31_system,
)

from .test_asp_answer_route import (
    DECODED,
    _queries,
    cycle_system,
    import_vs_fd_system,
    no_solution_system,
    out_of_class_system,
)


def primed_name_system():
    """P's relation ``A_p`` has the source predicate that ``A``'s primed
    version would get by appending ``_p``."""
    return (PeerSystem.builder()
            .peer("P", {"A": 2, "A_p": 2},
                  instance={"A": [("x", "1")], "A_p": [("zzz", "1")]})
            .peer("Q", {"B": 2}, instance={"B": [("y", "2")]})
            .exchange("P", "Q", InclusionDependency(
                "B", "A", child_arity=2, parent_arity=2, name="imp"))
            .trust("P", "less", "Q")
            .build())


def domain_name_system():
    """Section 3.1 under `same` trust, whose unguarded witnesses range
    over the active-domain predicate, plus P's relation ``Dom``."""
    return (PeerSystem.builder()
            .peer("P", {"R1": 2, "R2": 2, "Dom": 1},
                  instance={"R1": [("a", "b")], "Dom": [("zz",)]})
            .peer("Q", {"S1": 2, "S2": 2},
                  instance={"S1": [("c", "b")],
                            "S2": [("c", "e"), ("c", "f")]})
            .exchange("P", "Q", section31_dec())
            .trust("P", "same", "Q")
            .build())


SYSTEMS = {
    "example1": example1_system,
    "section31": section31_system,
    "example4": example4_system,
    "referential_3": lambda: referential_system(3),
    "referential_4": lambda: referential_system(4, 1, n_satisfied=1),
    "import_star": lambda: import_star_system(6, 2, seed=3),
    "import_star_conflicts": lambda: import_star_system(
        6, 2, conflicts=2, seed=4),
    "peer_chain": lambda: peer_chain_system(3),
    "layered_ic": import_vs_fd_system,
    "out_of_class": out_of_class_system,
    "no_solutions": no_solution_system,
    "cycle": cycle_system,
    "primed_name": primed_name_system,
    "domain_name": domain_name_system,
}

SPECS = {
    "lav": lav_specification_for_peer,
    "transitive": transitive_specification_for_peer,
}


def _coincides_with_model(system, peer, method):
    """Whether ``method``'s solutions are Definition 4's for ``peer``.

    LAV's are, on every system it accepts.  The combined program's are
    when no other peer it reaches has DECs of its own (nothing is
    transitive) and no reached peer has local ICs (the program prunes
    them as denials); out of the paper's DEC class it refuses.
    """
    if method == "lav":
        return True
    spec = TransitiveSpecification(system, peer)
    if any(system.trusted_decs_of(other) or system.peer(other).local_ics
           for other in spec.relevant_peers if other != peer):
        return False
    return not system.peer(peer).local_ics


def _cases():
    for name, build in SYSTEMS.items():
        for peer in build().peers:
            for method in SPECS:
                yield pytest.param(name, peer, method,
                                   id=f"{name}-{peer}-{method}")


def _count_replace_relations(monkeypatch):
    calls = []
    original = DatabaseInstance.replace_relations

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DatabaseInstance, "replace_relations", counted)
    return calls


@pytest.mark.parametrize("name,peer,method", list(_cases()))
def test_id_route_matches_every_reference(name, peer, method,
                                          monkeypatch):
    system = SYSTEMS[name]()
    build_spec = SPECS[method]
    try:
        decoded = build_spec(system, peer).solutions()
    except SystemError_:
        # outside the method's class: typed, on every surface
        assert not get_method(method).supports(system, peer)
        query = next(iter(_queries(system, peer).values()))
        with pytest.raises(SystemError_):
            PeerQuerySession(system).answer(peer, query, method=method)
        if not get_method("asp").supports(system, peer):
            # `asp` refuses too: `auto` answers as `model` does
            for label, query in _queries(system, peer).items():
                for semantics in ("certain", "possible"):
                    session = PeerQuerySession(system)
                    auto = session.answer(peer, query, semantics=semantics)
                    model = session.answer(peer, query, method="model",
                                           semantics=semantics)
                    where = (name, peer, label, semantics)
                    assert auto.method_used == "model", where
                    assert auto.answers == model.answers, where
                    assert auto.solution_count == model.solution_count, \
                        where
        return
    assert get_method(method).supports(system, peer)
    assert len(set(decoded)) == len(decoded)
    coincides = _coincides_with_model(system, peer, method)
    for label, query in _queries(system, peer).items():
        session = PeerQuerySession(system)
        certain = session.answer(peer, query, method=method)
        possible = session.answer(peer, query, method=method,
                                  semantics="possible")
        where = (name, peer, method, label)

        reference = pca_from_solutions(system, peer, query, decoded)
        assert certain.answers == reference.answers, where
        assert certain.solution_count == reference.solution_count, where
        brave = possible_from_solutions(system, peer, query, decoded)
        assert possible.answers == brave.answers, where
        assert possible.solution_count == brave.solution_count, where

        if coincides:
            model = session.answer(peer, query, method="model")
            assert certain.answers == model.answers, where
            assert certain.solution_count == model.solution_count, where
            model_brave = session.answer(peer, query, method="model",
                                         semantics="possible")
            assert possible.answers == model_brave.answers, where

        # the id route really answered: a safe conjunctive query over
        # relations the program holds decodes nothing
        spec = build_spec(system, peer)
        held = spec._fact_relations
        decodes = label in DECODED or not query.relations() <= held
        routed = AspSolutions(system, peer, spec=spec)
        replaced = _count_replace_relations(monkeypatch)
        assert routed.certain_answers(query).answers == certain.answers, where
        assert routed.possible_answers(query).answers == possible.answers, \
            where
        assert (routed._instances is not None) == decodes, where
        assert bool(replaced) == (decodes and bool(decoded)), where
        monkeypatch.undo()


def test_cases_cover_every_route():
    """The matrix reaches both methods' id routes and the LAV fallback,
    several solutions, duplicate models, zero solutions, a transitive
    chain and both typed refusals."""
    lav = lav_specification_for_peer(primed_name_system(), "P")
    assert "A_p" not in lav.labels  # answered on the decoded solutions
    for spec in (lav_specification_for_peer(referential_system(3), "P"),
                 TransitiveSpecification(referential_system(3), "P")):
        assert len(spec.solution_models()) == 27
    # the Appendix: four stable models, three solutions
    appendix = lav_specification_for_peer(section31_system(), "P")
    assert len(appendix.answer_sets()) == 4
    assert len(appendix.solution_models()) == 3
    chain = TransitiveSpecification(peer_chain_system(3), "P0")
    assert chain.relevant_peers == ["P0", "P1", "P2", "P3"]
    assert not TransitiveSpecification(
        import_vs_fd_system(), "P1").solution_models()
    with pytest.raises(SystemError_):
        lav_specification_for_peer(import_vs_fd_system(), "P1")
    with pytest.raises(SystemError_):
        TransitiveSpecification(example1_system(), "P1")


def test_transitive_flags_exactly_the_out_of_class_systems():
    """The combined program's class check fires where some relevant
    peer's DECs insert into a relation a DEC antecedent reads — the
    systems on which it used to return solutions that break a DEC — and
    nowhere else in the matrix."""
    flagged = set()
    for name, build in SYSTEMS.items():
        system = build()
        for peer in system.peers:
            try:
                spec = TransitiveSpecification(system, peer)
            except SystemError_:
                continue  # `same` edges: refused before any program
            if spec.out_of_class:
                flagged.add(name)
                assert not get_method("transitive").supports(system, peer)
    assert flagged == {"out_of_class", "no_solutions", "cycle"}


def test_query_over_an_unlabelled_relation():
    """The LAV program holds facts for labelled relations only; a query
    over another relation of the peer is answered on the decoded
    solutions, and right."""
    system = primed_name_system()
    session = PeerQuerySession(system)
    for text, expected in [
            ("q(X) := exists Y A_p(X, Y)", {("zzz",)}),
            ("q(X) := exists Y A(X, Y)", {("x",), ("y",)}),
            ("q(X) := exists Y Z (A(X, Y) & A_p(Z, Y))", {("x",)})]:
        for method in ("model", "asp", "lav", "transitive"):
            result = session.answer("P", text, method=method)
            assert result.answers == expected, (text, method)
            assert result.solution_count == 1, (text, method)


class TestPredicateNameCollisions:
    """Source, primed, final, domain and auxiliary predicates stay
    disjoint, so no relation's rows leak into another's."""

    def test_source_named_like_a_primed_predicate(self):
        system = primed_name_system()
        session = PeerQuerySession(system)
        for text in ("q(X, Y) := A(X, Y)", "q(X, Y) := A_p(X, Y)"):
            model = session.answer("P", text, method="model")
            for method in ("asp", "lav", "transitive"):
                result = session.answer("P", text, method=method)
                assert result.answers == model.answers, (text, method)
                assert result.solution_count == model.solution_count

    def test_relation_named_like_the_domain_predicate(self):
        system = domain_name_system()
        session = PeerQuerySession(system)
        model = session.answer("P", "q(X) := Dom(X)", method="model")
        assert model.answers == {("zz",)}
        asp = session.answer("P", "q(X) := Dom(X)", method="asp")
        assert asp.answers == model.answers
        assert asp.solution_count == model.solution_count
        for method in ("lav", "transitive"):
            with pytest.raises(SystemError_):
                session.answer("P", "q(X) := Dom(X)", method=method)

    def test_lav_aux_names_avoid_relation_predicates(self):
        from repro.core import LavSpecification, labels_for_peer
        system = (PeerSystem.builder()
                  .peer("P", {"R1": 2, "R2": 2, "Aux1": 1},
                        instance={"R1": [("a", "b")],
                                  "Aux1": [("n",)]})
                  .peer("Q", {"S1": 2, "S2": 2},
                        instance={"S1": [("c", "b")],
                                  "S2": [("c", "e"), ("c", "f")]})
                  .exchange("P", "Q", section31_dec())
                  .trust("P", "less", "Q")
                  .build())
        labels = dict(labels_for_peer(system, "P"), Aux1="closed")
        spec = LavSpecification(system.global_instance(),
                                [section31_dec()], labels)
        assert spec.name_map.source("Aux1") == "aux1"
        # only Aux1's facts define the predicate aux1
        assert all(rule.is_fact() for rule in spec.program
                   if "aux1" in rule.head_predicates())
        session = PeerQuerySession(system)
        for query in ("q(X) := Aux1(X)", "q(X, Y) := R2(X, Y)"):
            model = session.answer("P", query, method="model")
            lav = session.answer("P", query, method="lav")
            assert lav.answers == model.answers, query
            assert lav.solution_count == model.solution_count, query
        assert AspSolutions(system, "P", spec=spec).certain_answers(
            parse_query("q(X) := Aux1(X)")).answers == {("n",)}
