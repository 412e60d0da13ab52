"""Answers by components against whole-program enumeration.

A specification's engine solves each independent component of its
program once, and the shared core answers from the per-component models:
the Δ-minimality filter runs per component, ``solution_count`` is the
product of the per-component counts, and a query's ground body is
checked against the components its atoms lie in only.  The oracle here
is the whole-program route it replaced, kept in this file only: every
stable model of the program from one ``StableModelSolver`` search, one
model per distinct projection onto the solution atoms, the filter over
whole models, and each body tested model by model.  ``asp``, ``lav`` and
``transitive`` must agree with it on answers, possible answers,
``solution_count`` and decoded ``solutions()``, with ``minimal_only``
both on and off.

The count tests pin the work in models, never in time: six independent
conflicts are searched as six components of two models each, and the
answer route never builds the cross product.

CI runs this file under two hash seeds: component order follows atom
ids, and answers and counts must not depend on ``PYTHONHASHSEED``.
"""

from itertools import product

import pytest

from bench.workloads import seeded_conflict_system
from repro.core import AspSolutions, PeerQuerySession, SystemError_
from repro.core.asp_common import Specification, _holding_answers
from repro.core.asp_lav import lav_specification_for_peer
from repro.core.transitive import transitive_specification_for_peer
from repro.datalog import AnswerSetEngine, StableModelSolver
from repro.datalog.errors import SafetyError
from repro.relational import parse_query
from repro.relational.instance import canonical_order
from repro.workloads import (
    conflict_chain_system,
    import_star_system,
    referential_system,
)

from .test_asp_answer_route import SYSTEMS as ASP_SYSTEMS, _queries
from .test_spec_answer_route import SYSTEMS as SPEC_SYSTEMS

SYSTEMS = {**ASP_SYSTEMS, **SPEC_SYSTEMS}
for _seed in range(3):
    SYSTEMS[f"seeded_conflict_{_seed}_small"] = (
        lambda seed=_seed: seeded_conflict_system(seed, 3, 2))
    SYSTEMS[f"import_star_{_seed}_conflicts"] = (
        lambda seed=_seed: import_star_system(5, 2, conflicts=3, seed=seed))
SYSTEMS["conflict_chain"] = lambda: conflict_chain_system(4, n_clean=2)
SYSTEMS["referential_wide"] = lambda: referential_system(3, n_satisfied=2)
SYSTEMS["referential_witnesses"] = lambda: referential_system(2, 3)

SPECS = {
    "asp": lambda system, peer: AspSolutions.for_peer(system, peer).spec,
    "lav": lav_specification_for_peer,
    "transitive": transitive_specification_for_peer,
}


# ---------------------------------------------------------------------------
# The oracle: the whole-program route
# ---------------------------------------------------------------------------

def _whole_solution_models(spec, minimal_only):
    """One whole stable model per distinct solution, Δ-filtered over
    whole models, and the solution rows of their atoms."""
    models = StableModelSolver(spec.engine.ground).solve()
    literal_for = spec.engine.ground.table.literal_for
    rows = {}
    for ident in frozenset().union(*models):
        literal = literal_for(ident)
        entry = literal.positive and spec._solution_row(
            literal.predicate, literal.atom.value_tuple())
        if entry and entry[0] in spec._replaced:
            rows[ident] = entry
    distinct = {}
    for model in models:
        distinct.setdefault(model & frozenset(rows), model)
    kept = list(distinct.values())
    if minimal_only and spec.delta_minimal:
        source = frozenset(ident for ident, (relation, row) in rows.items()
                           if row in spec.instance.tuples(relation))
        deltas = [projection ^ source for projection in distinct]
        kept = [model for model, delta in zip(kept, deltas)
                if not any(other < delta for other in deltas)]
    return kept, rows


def _whole_holding(instances, models, skeptical):
    if not models:
        return set()
    bodies = {}
    for answer, body in instances:
        bodies.setdefault(answer, []).append(frozenset(body))
    quantifier = all if skeptical else any
    return {answer for answer, found in bodies.items()
            if quantifier(any(body <= model for body in found)
                          for model in models)}


def _whole_decoded(spec, models, rows):
    decoded = []
    for model in models:
        replaced = {relation: set(fixed)
                    for relation, fixed in spec._fixed_rows().items()}
        for ident in model:
            if ident in rows:
                relation, row = rows[ident]
                replaced[relation].add(row)
        decoded.append(spec.instance.replace_relations(replaced))
    return canonical_order(decoded)


def _cross_queries(system, peer):
    """Queries whose ground bodies join two rows of the peer's first
    relation: with independent conflicts, their atoms lie in two
    components, and an answer has several such bodies."""
    rel = list(system.peer(peer).schema.names)[0]
    return {
        "cross_pair": parse_query(
            f"q(X, Z) := exists Y W ({rel}(X, Y) & {rel}(Z, W) & X != Z)"),
        "cross_boolean": parse_query(
            f"q() := exists X Y Z W ({rel}(X, Y) & {rel}(Z, W) & X != Z)"),
    }


def _cases():
    for name, build in SYSTEMS.items():
        for peer in build().peers:
            for method in SPECS:
                yield pytest.param(name, peer, method,
                                   id=f"{name}-{peer}-{method}")


@pytest.mark.parametrize("name,peer,method", list(_cases()))
def test_components_answer_as_the_whole_program(name, peer, method):
    system = SYSTEMS[name]()
    try:
        spec = SPECS[method](system, peer)
    except SystemError_:
        return  # outside the method's class; its refusal is tested apart
    if spec is None:
        return  # no specification: decoded instances, no components
    queries = {**_queries(system, peer), **_cross_queries(system, peer)}
    for minimal_only in (True, False):
        models, rows = _whole_solution_models(spec, minimal_only)
        where = (name, peer, method, minimal_only)
        assert spec.solution_count(minimal_only=minimal_only) \
            == len(models), where
        assert len(spec.solution_models(minimal_only=minimal_only)) \
            == len(models), where
        assert spec.solutions(minimal_only=minimal_only) \
            == _whole_decoded(spec, models, rows), where
        entry = AspSolutions(system, peer, spec=spec,
                             minimal_only=minimal_only)
        for label, query in queries.items():
            try:
                instances = list(spec.query_instances(query))
            except (SystemError_, SafetyError):
                continue  # answered on the decoded solutions, compared above
            for skeptical in (True, False):
                expected = _whole_holding(instances, models, skeptical)
                result = entry.certain_answers(query) if skeptical \
                    else entry.possible_answers(query)
                assert result.answers == expected, where + (label,)
                assert result.solution_count == len(models), where
                if minimal_only:
                    every = StableModelSolver(spec.engine.ground).solve()
                    assert spec.query_program_answers(
                        query, skeptical=skeptical) == _whole_holding(
                            instances, every, skeptical), where + (label,)


def test_a_cross_query_spans_two_components():
    """The cross queries really reach bodies over two components, and
    answers with several bodies."""
    system = seeded_conflict_system(0, 3, 2)
    spec = AspSolutions.for_peer(system, "P1").spec
    index = spec.engine.component_index
    instances = list(spec.query_instances(
        _cross_queries(system, "P1")["cross_pair"]))
    spans = [len({index[atom] for atom in body}) for _, body in instances]
    assert max(spans) == 2
    boolean = list(spec.query_instances(
        _cross_queries(system, "P1")["cross_boolean"]))
    assert len(boolean) > 1


def test_several_bodies_cover_each_other_across_components():
    """Two components of two models each: an answer whose bodies cover
    every combination holds in every model although no body alone does;
    one that misses a combination does not."""
    parts = [[frozenset({0}), frozenset({1})],
             [frozenset({2}), frozenset({3})]]
    index = [0, 0, 1, 1]
    covering = [("a", body) for body in product((0, 1), (2, 3))]
    gapped = [("b", (0, 2)), ("b", (1, 3))]
    assert _holding_answers(covering + gapped, parts, index, True) == {"a"}
    assert _holding_answers(covering + gapped, parts, index, False) \
        == {"a", "b"}
    # an atom in no component is false in every model
    assert _holding_answers([("c", (4,))], parts, index + [-1], False) \
        == set()


# ---------------------------------------------------------------------------
# Counts, never time
# ---------------------------------------------------------------------------

@pytest.fixture
def searched(monkeypatch):
    """The number of models each ``StableModelSolver.solve`` returned."""
    found = []
    solve = StableModelSolver.solve

    def counting(self):
        models = solve(self)
        found.append(len(models))
        return models

    monkeypatch.setattr(StableModelSolver, "solve", counting)
    return found


@pytest.fixture
def no_cross_product(monkeypatch):
    """Building the cross product of the components' models raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("the cross product was built")

    monkeypatch.setattr(AnswerSetEngine, "id_models", refuse)
    monkeypatch.setattr(AnswerSetEngine, "answer_sets", refuse)
    monkeypatch.setattr(Specification, "solution_models", refuse)
    monkeypatch.setattr(Specification, "solutions", refuse)


def test_six_conflicts_are_searched_as_six_components(searched,
                                                      no_cross_product):
    system = seeded_conflict_system(0)
    result = PeerQuerySession(system).answer(
        "P1", "q(X, Y) := R1(X, Y)", method="asp")
    assert searched == [2] * 6
    assert sum(searched) == 12  # not 2 ** 6 = 64
    assert result.solution_count == 64
    assert len(result.answers) == 50


@pytest.mark.parametrize("build,peer,count,expected,leaves", [
    (lambda: conflict_chain_system(16), "P1", 65_536, set(), [2] * 16),
    # a violation: delete, or insert one of two witnesses (four stable
    # models, three distinct solutions)
    (lambda: referential_system(8, n_satisfied=50), "P", 6_561,
     {(f"sd{i}", f"sm{i}") for i in range(50)}, [4] * 8),
])
def test_exponentially_many_solutions_are_never_listed(
        build, peer, count, expected, leaves, searched, no_cross_product):
    system = build()
    session = PeerQuerySession(system)
    certain = session.answer(peer, "q(X, Y) := R1(X, Y)", method="asp")
    assert certain.solution_count == count
    assert certain.answers == expected
    possible = session.answer(peer, "q(X, Y) := R1(X, Y)", method="asp",
                              semantics="possible")
    assert possible.solution_count == count
    assert possible.answers == system.global_instance().tuples("R1")
    # each component is searched once
    assert searched == leaves


def test_the_answer_route_builds_no_cross_product(no_cross_product):
    """Every answer method over a specification answers a conjunctive
    query off the components alone."""
    for method, system, peer in [
            ("asp", seeded_conflict_system(1), "P1"),
            ("lav", referential_system(3), "P"),
            ("transitive", referential_system(3), "P")]:
        session = PeerQuerySession(system)
        for semantics in ("certain", "possible"):
            result = session.answer(peer, "q(X, Y) := R1(X, Y)",
                                    method=method, semantics=semantics)
            assert result.solution_count > 1, (method, semantics)
