"""Corners of the shared slot join, grounder against the naive oracle.

The grounder runs rule bodies on :mod:`repro.relational.join`: equalities
with a constant seed the join, an ``X = Y`` comparison makes ``X`` share
``Y``'s slot (also when ``X`` is a head variable), delta rows replace a
relation at the semi-naive pivot and are checked on its bound columns,
and :func:`ground_rule_over` joins deterministic tables with id-tagged
literals.  Each case is checked against :func:`naive_ground`'s models.
"""

from itertools import product

import pytest

from repro.datalog import answer_sets, ground_program, parse_program, \
    parse_rule, stable_models
from repro.datalog.grounding import ground_rule_over
from repro.datalog.terms import Atom, Comparison, Constant, Literal

from .naive import herbrand_universe, naive_answer_sets, naive_ground

PROGRAMS = {
    # an `X = Y` comparison binding a head variable
    "eq_binds_head": """
        p(a, b). p(b, b). p(c, a).
        q(X, Z) :- p(X, Y), Z = Y.
        r(Z) :- p(X, Y), Y = Z, Z != a.
        s(Z, W) :- p(X, Y), Z = X, W = Z.
    """,
    "eq_binds_disjunctive_head": """
        p(a, b). p(b, b). t(b).
        r(X, Z) v s(X) :- p(X, Y), Z = Y, not t(Z).
    """,
    "eq_seeds_the_join": """
        p(a, b). p(b, c). p(c, c).
        q(Y) :- X = b, p(X, Y).
        u(Y) :- a = X, Z = X, p(Z, Y).
        w :- p(X, X), X = c.
    """,
    # repeated variables and constants in body and head
    "repeats_and_constants": """
        p(a, a). p(a, b). p(b, b). p(c, a). m(a, b, a). m(b, b, c).
        q(X) :- p(X, X).
        r(X, k) :- m(X, b, X).
        s(X) :- p(X, Y), m(Y, b, Y), not q(Y).
        t(Y) :- p(a, Y), p(Y, a).
    """,
    # recursive rules driving the semi-naive pivot
    "recursion": """
        e(a, b). e(b, c). e(c, a). e(c, c). e(d, d).
        t(X, Y) :- e(X, Y).
        t(X, Z) :- t(X, Y), e(Y, Z).
        loop(X) :- t(X, X).
        back(X) :- t(a, X), t(X, a), not e(X, X).
        r(X) v s(X) :- t(a, X), not loop(d).
    """,
    # the recursive atom after a binder: the pivot's delta rows must
    # agree with the bound column
    "right_recursion": """
        e(a, b). e(b, c). e(c, d). e(d, d). e(b, b).
        t(X, Y) :- e(X, Y).
        t(X, Z) :- e(X, Y), t(Y, Z).
        r(X) v s(X) :- t(X, d), not t(d, X).
    """,
    "mutual_recursion_with_repeats": """
        e(a, b). e(b, a). e(b, b). e(c, a).
        odd(X, Y) :- e(X, Y).
        even(X, Z) :- odd(X, Y), e(Y, Z).
        odd(X, Z) :- even(X, Y), e(Y, Z).
        both(X) :- odd(X, X), even(X, X).
        p(X) v q(X) :- even(X, X), not both(X).
    """,
    # one name, two arities: p/1 and p/2 are two predicates
    "two_arities_scan": """
        p(a). p(a, b).
        q(X, Y) :- p(X, Y).
    """,
    "two_arities_project": """
        p(a). q(X) :- p(X, Y).
    """,
    "two_arities_probe": """
        p(a). p(b). p(a, b). p(b, c). p(c, c). -p(a, c).
        q(X, Y) :- p(X), p(X, Y).
        r(Y) :- p(X, Y), p(Y).
        s(X) v t(X) :- p(Y, X), not p(X).
        u(X) :- p(X, X), not s(X).
    """,
    "two_arities_derived": """
        e(a, b). e(b, c). e(c, c).
        p(X) :- e(X, Y).
        p(X, Y) :- e(Y, X).
        p(X, Y, Z) :- p(X), p(Y, X), p(Z).
        r(X) v s(X) :- p(X, X), not p(X, X, X).
    """,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_answer_sets_match_naive_grounding(name):
    program = parse_program(PROGRAMS[name])
    found = sorted(sorted(str(literal) for literal in model)
                   for model in answer_sets(program))
    assert found == naive_answer_sets(program)


def _naive_instances(rule, universe, model):
    """Head tuples of ``rule`` whose body holds in ``model`` (rendered
    literals), over the whole Herbrand universe."""
    variables = sorted(rule.variables(), key=lambda v: v.name)
    heads = set()
    for combo in product(universe, repeat=len(variables)):
        subst = dict(zip(variables, combo))

        def ground(literal):
            return str(Literal(Atom(literal.predicate, [
                subst.get(t, t) for t in literal.atom.args]),
                literal.positive))

        if all(ground(literal) in model
               for literal in rule.positive_body()) and all(
                Comparison(c.op, subst.get(c.left, c.left),
                           subst.get(c.right, c.right)).evaluate()
                for c in rule.comparisons()):
            heads.add(tuple(subst.get(t, t).value
                            for t in rule.head[0].atom.args))
    return heads


TABLED = """
    e(a, b). e(b, c). e(c, c). e(b, b).
    f(X) v g(X) :- e(X, Y).
"""

#: ``e`` and ``f`` each with two arities, deterministic and tagged
TWO_ARITIES = """
    e(a, b). e(b, c). e(c, c). e(b, b). e(b). e(c).
    f(X) v g(X) :- e(X, Y).
    f(X, Y) :- e(X, Y), f(Y).
"""


@pytest.mark.parametrize("text, query", [
    (TABLED, "ans(X, Z) :- e(X, Y), f(Y), Z = Y."),
    (TABLED, "ans(X) :- e(X, Y), f(Y), g(X)."),
    (TABLED, "ans(X, Y) :- f(X), e(X, Y), e(Y, Y)."),
    (TABLED, "ans(Y) :- e(a, Y), g(Y)."),
    (TABLED, "ans(X) :- e(X, X)."),
    (TWO_ARITIES, "ans(X, Y) :- e(X), e(X, Y)."),
    (TWO_ARITIES, "ans(X, Y) :- f(X, Y), f(Y), e(Y)."),
    (TWO_ARITIES, "ans(X) :- f(X), e(X, Y), f(X, Y)."),
])
def test_ground_rule_over_matches_naive(text, query):
    """Deterministic ``e`` joins as a table; ``f``/``g`` join through the
    ids of the ground program's literals."""
    program = parse_program(text)
    rule = parse_rule(query)
    ground = ground_program(program)
    instances = list(ground_rule_over(rule, ground))
    universe = herbrand_universe(program) + [
        t for literal in rule.positive_body() for t in literal.atom.args
        if isinstance(t, Constant)]
    models = stable_models(ground)
    assert len(models) > 1
    naive = naive_ground(program)
    naive_models = {frozenset(str(naive.table.literal_for(i)) for i in model)
                    for model in stable_models(naive)}
    for model in models:
        literals = {str(literal) for literal in ground.model_literals(model)}
        assert frozenset(literals) in naive_models
        found = {head for head, ids in instances if set(ids) <= set(model)}
        assert found == _naive_instances(rule, universe, literals)


