"""Corners of the shared slot join, planner against the naive evaluator.

The planner's atom scans run on :mod:`repro.relational.join`: constants
and bound variables probe the index, a repeated variable is checked
within the row, quantified variables get slots of their own, and union
branches are moved into one slot order.  Each case below pins one of
those paths on hand-picked and seeded instances, including the empty
one, and compares every answer set with ``evaluator="naive"``.
"""

import random

import pytest

from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    QueryPlanner,
    evaluation_domain,
    parse_query,
)

SCHEMA = DatabaseSchema.of({"R": 2, "S": 1, "T": 3})
VALUES = ("a", "b", 1)

#: (name, query) — one join path each
CASES = [
    # repeated variables and constant columns
    ("repeat", "q(X) := R(X, X)"),
    ("repeat3", "q(X, Y) := T(X, Y, X)"),
    ("const", "q(Y) := R(a, Y)"),
    ("const_int", "q(X) := R(X, 1)"),
    ("const_repeat", "q(X) := T(X, a, X)"),
    ("closed", "q() := R(a, a)"),
    ("bound_repeat", "q(X, Y) := R(X, Y) & T(Y, X, Y)"),
    ("bound_const", "q(X) := S(X) & T(X, b, X)"),
    ("reordered_head", "q(Y, X) := R(X, Y) | R(Y, X)"),
    # quantifier shadowing and the empty-domain corner
    ("exists_shadow", "q(X) := R(X, X) & exists X S(X)"),
    ("exists_inner", "q(X) := S(X) & exists X R(X, X)"),
    ("exists_bound", "q(X) := S(X) & exists Y (R(X, Y) & S(Y))"),
    ("forall_shadow", "q(X) := S(X) & forall X (R(X, X) -> S(X))"),
    ("forall_unguarded", "q() := forall X S(X)"),
    ("forall_missing", "q() := forall X Y (S(X) -> R(X, Y))"),
    ("exists_closed", "q() := exists X true"),
    ("exists_ignored", "q() := exists X exists X R(a, a)"),
    # disjunction branches binding fewer variables
    ("or_fewer", "q(X, Y) := R(X, Y) | S(X)"),
    ("or_other", "q(X, Y) := S(Y) | R(X, a)"),
    ("or_none", "q(X, Y) := R(X, Y) | R(a, a)"),
    ("or_eq", "q(X, Y, Z) := T(X, Y, Z) | (S(X) & Y = Z)"),
    ("or_nested", "q(X) := exists Y (R(X, Y) | S(Y))"),
    # range-unrestricted variables
    ("negation", "q(X) := ~S(X)"),
    ("eq_pair", "q(X, Y) := X = Y & ~R(X, Y)"),
    ("extra_head", "q(X, Y) := S(X)"),
]


def _instances():
    fixed = [
        DatabaseInstance(SCHEMA, {}),
        DatabaseInstance(SCHEMA, {"R": [("a", "a"), ("a", "b"), ("b", 1)],
                                  "S": [("a",)],
                                  "T": [("a", "a", "a"), ("b", "a", "b"),
                                        ("a", "b", 1)]}),
    ]
    rng = random.Random(47)
    seeded = [DatabaseInstance(SCHEMA, {
        "R": {(rng.choice(VALUES), rng.choice(VALUES)) for _ in range(4)},
        "S": {(rng.choice(VALUES),) for _ in range(rng.randrange(3))},
        "T": {tuple(rng.choice(VALUES) for _ in range(3))
              for _ in range(4)}}) for _ in range(6)]
    return fixed + seeded


INSTANCES = _instances()


@pytest.mark.parametrize("name, text", CASES, ids=[c[0] for c in CASES])
def test_corner_matches_naive(name, text):
    query = parse_query(text)
    for instance in INSTANCES:
        assert query.answers(instance) == \
            query.answers(instance, evaluator="naive"), (name, instance)


@pytest.mark.parametrize("name, text", CASES, ids=[c[0] for c in CASES])
def test_corner_matches_naive_over_a_given_domain(name, text):
    """An explicitly passed domain keeps its meaning: the planner ranges
    over it, not over the instance."""
    query = parse_query(text)
    instance = INSTANCES[1]
    domain = evaluation_domain(instance, query.formula) + ("zz",)
    assert query.answers(instance, domain) == \
        query.answers(instance, domain, evaluator="naive")


def test_each_plan_reads_its_own_formulas_domain():
    """Read, a plan's domain is ``evaluation_domain``'s for its formula,
    in its order; what a shared planner planned before does not change
    it."""
    instance = INSTANCES[1]
    planner = QueryPlanner(instance)
    with_zz = parse_query("q(X) := ~R(X, zz)")
    without = parse_query("q(X) := ~S(X)")
    for query in (with_zz, without, with_zz):
        assert planner.answers(query) == query.answers(instance,
                                                       evaluator="naive")
        assert planner.plan(query.formula).domain == \
            evaluation_domain(instance, query.formula)
    assert ("zz",) not in planner.answers(without)
