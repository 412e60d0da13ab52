"""Work counts of the default path, asserted as counts, never as time.

A rewrite answer over ``import_star_system`` evaluates a union of atom
scans: it must not build the evaluation domain, which nothing in that
plan reads, and its variable hashing must not grow with the rows (slot
environments are tuples indexed by position).  Queries that do read the
domain — range-unrestricted variables under ``¬``, ``∀`` or a union
branch missing a head variable — must still build it, in
``evaluation_domain`` order.
"""

import pytest

from repro.core import PeerQuerySession
from repro.datalog.terms import Variable
from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    QueryPlanner,
    evaluation_domain,
    parse_query,
)
from repro.workloads import import_star_system


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``DatabaseInstance.active_domain`` and
    ``Variable.__hash__``, counted from the last reset."""
    counted = {"active_domain": 0, "variable_hash": 0}
    active_domain = DatabaseInstance.active_domain
    variable_hash = Variable.__hash__

    def counting_domain(self):
        counted["active_domain"] += 1
        return active_domain(self)

    def counting_hash(self):
        counted["variable_hash"] += 1
        return variable_hash(self)

    monkeypatch.setattr(DatabaseInstance, "active_domain", counting_domain)
    monkeypatch.setattr(Variable, "__hash__", counting_hash)
    return counted


def _rewrite_answer(counts, n):
    """One fresh-session rewrite answer (after one that warms the
    system), with the counts it took."""
    system = import_star_system(n, 3)
    query = parse_query("q(X, Y) := R0(X, Y)")
    PeerQuerySession(system).answer("P0", query, method="rewrite")
    counts.update(dict.fromkeys(counts, 0))
    result = PeerQuerySession(system).answer("P0", query, method="rewrite")
    assert result.method_used == "rewrite"
    return dict(counts), len(result.answers)


def test_a_rewrite_answer_neither_builds_the_domain_nor_grows(counts):
    small, small_rows = _rewrite_answer(counts, 100)
    large, large_rows = _rewrite_answer(counts, 400)
    assert large_rows > 3 * small_rows
    assert small["active_domain"] == large["active_domain"] == 0
    assert small["variable_hash"] == large["variable_hash"]


@pytest.mark.parametrize("text", [
    "q(X) := ~S(X)",
    "q() := forall X S(X)",
    "q(X, Y) := R(X, Y) | S(X)",
])
def test_range_unrestricted_variables_still_build_the_domain(counts, text):
    instance = DatabaseInstance(DatabaseSchema.of({"R": 2, "S": 1}), {
        "R": [("b", 2), ("a", "c")], "S": [(1,), ("c",)]})
    query = parse_query(text)
    planner = QueryPlanner(instance)
    answers = planner.answers(query)
    assert counts["active_domain"] >= 1
    assert planner.plan(query.formula).domain == \
        evaluation_domain(instance, query.formula)
    assert answers == query.answers(instance, evaluator="naive")


def test_a_root_union_is_deduplicated_once(monkeypatch):
    """``QueryPlanner.answers`` builds a set of the answer tuples, so the
    rewritten union at the root streams its rows into it without the
    generator ``_distinct``; a union nested under a projection still
    deduplicates its own rows."""
    from repro.relational import planner

    calls = []
    distinct = planner._distinct

    def counting(rows, closed):
        calls.append(closed)
        return distinct(rows, closed)

    monkeypatch.setattr(planner, "_distinct", counting)
    _, rows = _rewrite_answer({}, 100)
    assert rows > 100
    assert calls == []

    instance = DatabaseInstance(DatabaseSchema.of({"R": 2, "S": 2}), {
        "R": [("a", 1), ("a", 2)], "S": [("a", 1), ("b", 3)]})
    for text, expected, deduplicated in [
            ("q(X, Y) := R(X, Y) | S(X, Y)",
             {("a", 1), ("a", 2), ("b", 3)}, []),
            ("q(X) := exists Y (R(X, Y) | S(X, Y))", {("a",), ("b",)},
             [False]),
            # a root binding nothing still stops at its first row
            ("q() := exists X Y (R(X, Y) | S(X, Y))", {()}, [False, True])]:
        calls.clear()
        assert QueryPlanner(instance).answers(parse_query(text)) == expected
        assert sorted(calls) == deduplicated
