"""Differential test of the ASP answer route.

``method="asp"`` answers a conjunctive query off the stable models' atom
ids: the query rule is grounded against the specification's table and
tested against one model per minimal solution, without decoding a single
instance.  Every answer and ``solution_count`` here must equal three
references:

* decode-and-intersect (``pca_from_solutions`` / ``possible_from_solutions``
  over ``asp_solutions_for_peer``), the route this one replaced;
* the model-theoretic ``peer_consistent_answers`` /
  ``possible_peer_answers``;
* ``GavSpecification.query_program_answers`` over every answer set, where
  the Δ-minimality filter discards nothing.

Out of the paper's DEC class, where the program may under-approximate,
``asp`` refuses with the typed ``SystemError_`` instead, and ``auto``
answers as ``model`` does.

CI runs this file under two hash seeds: answers and counts built from id
sets must not depend on ``PYTHONHASHSEED``.
"""

import random

import pytest

from bench.workloads import seeded_conflict_system
from repro.core import (
    AspSolutions,
    GavSpecification,
    PeerQuerySession,
    PeerSystem,
    SystemError_,
    asp_solutions_for_peer,
    get_method,
    pca_from_solutions,
    peer_consistent_answers,
    possible_from_solutions,
    possible_peer_answers,
)
from repro.relational import (
    Cmp,
    DatabaseInstance,
    DatabaseSchema,
    DenialConstraint,
    EqualityGeneratingConstraint,
    FunctionalDependency,
    InclusionDependency,
    RelAtom,
    TupleGeneratingConstraint,
    Variable,
    parse_query,
)
from repro.workloads import (
    example1_system,
    example4_system,
    import_star_system,
    referential_system,
    section31_system,
)

X, Y, Z, W = (Variable(name) for name in "XYZW")


def _import(child, parent, name):
    return InclusionDependency(child, parent, child_arity=2,
                               parent_arity=2, name=name)


def import_vs_fd_system(trust="less"):
    """An import that violates P1's local FD (the layered local-IC
    construction); with ``same`` trust the imported row may go too."""
    return (PeerSystem.builder()
            .peer("P1", {"A": 2}, instance={"A": [("k", "own"),
                                                  ("j", "own")]},
                  local_ics=[FunctionalDependency("A", [0], [1], arity=2)])
            .peer("P2", {"B": 2}, instance={"B": [("k", "imported"),
                                                  ("m", "x")]})
            .exchange("P1", "P2", _import("B", "A", "imp"))
            .trust("P1", trust, "P2")
            .build())


def out_of_class_system():
    """A is inserted by one DEC and triggers another: outside the paper's
    class, where the program prunes what the source triggers miss."""
    functional = DenialConstraint(
        antecedent=[RelAtom("A", [X, Y]), RelAtom("A", [X, Z]),
                    RelAtom("C", [X, X])],
        conditions=[Cmp("!=", Y, Z)], name="functional_on_c")
    return (PeerSystem.builder()
            .peer("P", {"A": 2}, instance={"A": [("k", "2"), ("j", "1"),
                                                 ("j", "3")]})
            .peer("Q", {"B": 2, "C": 2},
                  instance={"B": [("k", "1"), ("n", "4")],
                            "C": [("k", "k"), ("j", "j")]})
            .exchange("P", "Q", _import("B", "A", "imp"))
            .exchange("P", "Q", functional)
            .trust("P", "less", "Q")
            .build())


def no_solution_system():
    """An import forces A(c, d); a denial DEC toward the same fixed peer
    forbids it: no solutions, no answer sets."""
    forbid = DenialConstraint(
        antecedent=[RelAtom("A", [X, Y]), RelAtom("B", [X, Y])],
        name="forbid")
    return (PeerSystem.builder()
            .peer("P1", {"A": 2})
            .peer("P2", {"B": 2}, instance={"B": [("c", "d")]})
            .exchange("P1", "P2", _import("B", "A", "imp"))
            .exchange("P1", "P2", forbid)
            .trust("P1", "less", "P2")
            .build())


def cycle_system():
    """Three peers, all trust `less`: P and Q import each other's
    relation, and P has a key EGD toward R.  The imported A(k, 2) breaks
    the key, and P may not delete it: no solution for P."""
    key = EqualityGeneratingConstraint(
        antecedent=[RelAtom("A", [X, Y]), RelAtom("C", [X, Z])],
        equalities=[(Y, Z)], name="key")
    return (PeerSystem.builder()
            .peer("P", {"A": 2}, instance={"A": [("k", "1")]})
            .peer("Q", {"B": 2}, instance={"B": [("k", "2")]})
            .peer("R", {"C": 2}, instance={"C": [("k", "1")]})
            .exchange("P", "Q", _import("B", "A", "imp_b"))
            .exchange("Q", "P", _import("A", "B", "imp_a"))
            .exchange("P", "R", key)
            .trust("P", "less", "Q")
            .trust("P", "less", "R")
            .trust("Q", "less", "P")
            .build())


def branching_stage1_system():
    """Stage 1 has two solutions (delete A(a, b) or A(b, a)) and a `same`
    DEC follows, so stage 2 runs once per branch: the fallback."""
    loop = DenialConstraint(
        antecedent=[RelAtom("A", [X, Y]), RelAtom("A", [Y, X]),
                    RelAtom("B", [X, X])],
        name="no_loop")
    agree = EqualityGeneratingConstraint(
        antecedent=[RelAtom("A", [X, Y]), RelAtom("C", [X, Z])],
        equalities=[(Y, Z)], name="agree")
    return (PeerSystem.builder()
            .peer("P1", {"A": 2}, instance={"A": [("a", "b"), ("b", "a"),
                                                 ("d", "e")]})
            .peer("P2", {"B": 2}, instance={"B": [("a", "a")]})
            .peer("P3", {"C": 2}, instance={"C": [("a", "c"),
                                                 ("d", "e")]})
            .exchange("P1", "P2", loop)
            .exchange("P1", "P3", agree)
            .trust("P1", "less", "P2")
            .trust("P1", "same", "P3")
            .build())


def non_minimal_system():
    """Witness choices for the existential import leave 24 answer sets
    but only 8 Δ-minimal solutions: the filter does real work."""
    witness = TupleGeneratingConstraint(
        antecedent=[RelAtom("B", [X, Y])],
        consequent=[RelAtom("A", [Y, W])], name="witness")
    return (PeerSystem.builder()
            .peer("P", {"A": 2}, instance={"A": [("c", "b")]})
            .peer("Q", {"B": 2}, instance={"B": [("a", "a"), ("a", "c"),
                                                ("b", "b")]})
            .exchange("P", "Q", _import("B", "A", "imp"))
            .exchange("P", "Q", witness)
            .trust("P", "same", "Q")
            .build())


def chains_system():
    """Loops, chains and shared values in the disputed relation, so the
    self-join, repeated-variable and renamed-apart queries have answers
    that differ between solutions."""
    egd = EqualityGeneratingConstraint(
        antecedent=[RelAtom("R1", [X, Y]), RelAtom("R3", [X, Z])],
        equalities=[(Y, Z)], name="conflict")
    return (PeerSystem.builder()
            .peer("P1", {"R1": 2}, instance={"R1": [
                ("a", "b"), ("b", "c"), ("c", "c"), ("d", "a"), ("b", "b"),
                ("e", "e")]})
            .peer("P3", {"R3": 2}, instance={"R3": [("b", "x"), ("c", "c"),
                                                    ("e", "a")]})
            .exchange("P1", "P3", egd)
            .trust("P1", "same", "P3")
            .build())


SYSTEMS = {
    "example1": example1_system,
    "section31": section31_system,
    "example4": example4_system,
    "referential": lambda: referential_system(2, 2, n_satisfied=1),
    "import_star": lambda: import_star_system(6, 2, seed=3),
    "import_star_conflicts": lambda: import_star_system(
        6, 2, conflicts=2, seed=4),
    "layered_ic_less": import_vs_fd_system,
    "layered_ic_same": lambda: import_vs_fd_system("same"),
    "out_of_class": out_of_class_system,
    "no_solutions": no_solution_system,
    "cycle": cycle_system,
    "branching_stage1": branching_stage1_system,
    "non_minimal": non_minimal_system,
    "chains": chains_system,
}
for _seed, (_conflicts, _clean) in enumerate([(1, 0), (2, 3), (3, 5),
                                              (4, 2)]):
    SYSTEMS[f"seeded_conflict_{_seed}"] = (
        lambda seed=_seed, n=_conflicts, clean=_clean:
        seeded_conflict_system(seed, n, clean))

#: systems with a peer whose specification is outside the paper's DEC
#: class, where ``asp`` refuses
OUT_OF_CLASS = {"out_of_class", "no_solutions", "cycle"}


def _cases():
    for name, build in SYSTEMS.items():
        for peer in build().peers:
            yield pytest.param(name, peer, id=f"{name}-{peer}")


def _queries(system, peer):
    """Conjunctive queries of every supported shape over the peer's first
    relation (and its second, for a cross-relation join), plus one that
    is not safe and two that are not conjunctive."""
    schema = system.peer(peer).schema
    names = list(schema.names)
    rel = names[0]
    rows = sorted(system.global_instance().tuples(rel))
    constant = rows[0][0] if rows else "a"
    queries = {"full": f"q(X, Y) := {rel}(X, Y)",
               "exists": f"q(X) := exists Y {rel}(X, Y)",
               "constant": f"q(Y) := {rel}(\"{constant}\", Y)",
               "comparison": f"q(X, Y) := {rel}(X, Y) & X != Y & Y < \"t\"",
               "repeated": f"q(X) := {rel}(X, X)",
               "self_join": f"q(X, Z) := exists Y ({rel}(X, Y) & "
                            f"{rel}(Y, Z))",
               "bound_by_equality": f"q(X, Z) := exists Y ({rel}(X, Y) & "
                                    f"Z = Y)",
               "renamed_apart": f"q(X) := exists Y {rel}(X, Y) & "
                                f"exists Y {rel}(Y, X)",
               "boolean": f"q() := exists X Y {rel}(X, Y)",
               "unsafe": f"q(X, Y) := exists Z ({rel}(X, Z) & Y != Z)",
               "negation": f"q(X) := exists Y {rel}(X, Y) & not {rel}(X, X)",
               "disjunction": f"q(X, Y) := {rel}(X, Y) | {rel}(Y, X)"}
    if len(names) > 1:
        queries["join"] = (f"q(X) := exists Y (exists Z ({rel}(X, Y) & "
                           f"{names[1]}(X, Z)))")
    return {label: parse_query(text) for label, text in queries.items()}


#: queries the id route hands to decode-and-intersect
DECODED = {"unsafe", "negation", "disjunction"}


def _refused_and_answered_by_model(system, peer, where):
    """Outside the class: ``asp`` raises typed on both semantics, and
    ``auto`` gives exactly what ``model`` gives."""
    assert not get_method("asp").supports(system, peer)
    for label, query in _queries(system, peer).items():
        for semantics in ("certain", "possible"):
            session = PeerQuerySession(system)
            with pytest.raises(SystemError_):
                session.answer(peer, query, method="asp",
                               semantics=semantics)
            auto = session.answer(peer, query, semantics=semantics)
            model = session.answer(peer, query, method="model",
                                   semantics=semantics)
            assert auto.method_used == "model", where + (label,)
            assert auto.answers == model.answers, where + (label,)
            assert auto.solution_count == model.solution_count, \
                where + (label,)


@pytest.mark.parametrize("name,peer", list(_cases()))
def test_id_route_matches_every_reference(name, peer):
    system = SYSTEMS[name]()
    spec = AspSolutions.for_peer(system, peer).spec
    if spec is not None and spec.out_of_class:
        assert name in OUT_OF_CLASS
        _refused_and_answered_by_model(system, peer, (name, peer))
        return
    assert get_method("asp").supports(system, peer)
    decoded = asp_solutions_for_peer(system, peer)
    entry = AspSolutions.for_peer(system, peer)
    spec = entry.spec
    filter_is_noop = spec is not None and (
        len(spec.solution_models(minimal_only=False))
        == len(spec.solution_models()))
    for label, query in _queries(system, peer).items():
        session = PeerQuerySession(system)
        certain = session.answer(peer, query, method="asp")
        possible = session.answer(peer, query, method="asp",
                                  semantics="possible")
        where = (name, peer, label)

        reference = pca_from_solutions(system, peer, query, decoded)
        assert certain.answers == reference.answers, where
        assert certain.solution_count == reference.solution_count, where
        brave = possible_from_solutions(system, peer, query, decoded)
        assert possible.answers == brave.answers, where
        assert possible.solution_count == brave.solution_count, where

        model = peer_consistent_answers(system, peer, query)
        assert certain.answers == model.answers, where
        assert certain.solution_count == model.solution_count, where
        model_brave = possible_peer_answers(system, peer, query)
        assert possible.answers == model_brave.answers, where
        assert possible.solution_count == model_brave.solution_count, \
            where

        if filter_is_noop and label not in DECODED:
            assert spec.query_program_answers(query) == certain.answers, \
                where
            assert spec.query_program_answers(query, skeptical=False) \
                == possible.answers, where

        # the id route really answered: nothing was decoded for a safe
        # conjunctive query over a specification
        routed = AspSolutions.for_peer(system, peer)
        routed.certain_answers(query)
        routed.possible_answers(query)
        decodes = routed.spec is None or label in DECODED
        assert (routed._instances is not None) == decodes, where


def test_cases_cover_every_route():
    """The matrix reaches the id route, the layered final layer, an
    out-of-class specification, zero solutions and the two-stage
    fallback."""
    def entry(name, peer):
        return AspSolutions.for_peer(SYSTEMS[name](), peer)

    assert entry("seeded_conflict_3", "P1").spec is not None
    assert entry("layered_ic_same", "P1").spec.uses_final_layer
    assert entry("out_of_class", "P").spec.out_of_class
    assert entry("no_solutions", "P1").certain_answers(
        parse_query("q(X, Y) := A(X, Y)")).solution_count == 0
    branching = entry("branching_stage1", "P1")
    assert branching.spec is None and len(list(branching)) > 2
    spec = entry("non_minimal", "P").spec
    assert len(spec.solution_models(minimal_only=False)) == 24
    assert len(spec.solution_models()) == 8


@pytest.mark.parametrize("name,peer,expected,count", [
    ("out_of_class", "P", {("k", "1"), ("n", "4")}, 2),
    ("no_solutions", "P1", set(), 0),
    ("cycle", "P", set(), 0)])
def test_auto_answers_out_of_class_systems_exactly(name, peer, expected,
                                                   count):
    """The three out-of-class rows: ``auto`` falls back to ``model`` and
    gets the semantics' answer, where ``asp`` would have reported no
    solutions on the first; ``asp`` refuses, typed, on all three."""
    system = SYSTEMS[name]()
    session = PeerQuerySession(system)
    result = session.answer(peer, "q(X, Y) := A(X, Y)")
    assert result.method_used == "model"
    assert result.answers == expected
    assert result.solution_count == count
    assert len(session.solutions(peer)) == count
    with pytest.raises(SystemError_):
        session.answer(peer, "q(X, Y) := A(X, Y)", method="asp")


def _random_dec(rng):
    first, second = rng.sample("ABC", 2)
    kind = rng.randrange(4)
    if kind == 0:
        return _import(first, second, None)
    if kind == 1:
        return DenialConstraint(
            antecedent=[RelAtom(first, [X, Y]), RelAtom(second, [Y, Z])])
    if kind == 2:
        return EqualityGeneratingConstraint(
            antecedent=[RelAtom(first, [X, Y]), RelAtom(second, [X, Z])],
            equalities=[(Y, Z)])
    return TupleGeneratingConstraint(antecedent=[RelAtom(first, [X, Y])],
                                     consequent=[RelAtom(second, [Y, W])])


def test_id_level_minimality_is_the_instance_delta():
    """On random specifications, the Δ-minimal solutions picked on atom
    id sets are exactly those picked by comparing each decoded instance's
    ``delta`` to the source."""
    rng = random.Random(31)
    schema = DatabaseSchema.of({"A": 2, "B": 2, "C": 2})
    discarded = 0
    for trial in range(300):
        instance = DatabaseInstance(schema, {
            relation: [(rng.choice("abc"), rng.choice("abc"))
                       for _ in range(rng.randint(0, 3))]
            for relation in "ABC"})
        spec = GavSpecification(
            instance, [_random_dec(rng) for _ in range(rng.randint(1, 3))],
            changeable=rng.sample("ABC", rng.randint(1, 2)))
        every = spec.solutions(minimal_only=False)
        deltas = [solution.delta(instance) for solution in every]
        expected = [solution for solution, delta in zip(every, deltas)
                    if not any(other < delta for other in deltas)]
        assert spec.solutions() == expected, trial
        assert len(spec.solution_models()) == len(expected), trial
        discarded += len(every) - len(expected)
    assert discarded > 0  # the filter did real work
