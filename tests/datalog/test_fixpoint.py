"""Unit tests for least models, reducts and minimality checks."""

import pytest

from repro.datalog import ground_program, parse_program
from repro.datalog.fixpoint import (
    gelfond_lifschitz_reduct,
    is_minimal_model,
    is_model,
    least_model,
    satisfies_rule,
)
from repro.datalog.grounding import AtomTable, GroundProgram, GroundRule
from repro.datalog.terms import Atom, Literal


def _ground(text):
    return ground_program(parse_program(text))


def _hand_ground(*rules):
    """A ground program built without the grounder, which would evaluate
    these stratified programs to deterministic tables and leave no rules.
    Each rule is a ``(head, pos,
    naf)`` triple of strings whose letters name propositional atoms."""
    table = AtomTable()

    def ids(names):
        return tuple(table.add(Literal(Atom(name))) for name in names)

    return GroundProgram(table, [GroundRule(ids(head), ids(pos), ids(naf))
                                 for head, pos, naf in rules])


def _ids(ground, *names):
    by_name = {str(lit): i for i, lit in
               enumerate(ground.table.literals())}
    return [by_name[n] for n in names]


class TestLeastModel:
    def test_chain(self):
        ground = _hand_ground(("a", "", ""), ("b", "a", ""), ("c", "b", ""))
        model = least_model(ground.rules)
        assert len(model) == 3

    def test_unsupported_not_included(self):
        ground = _hand_ground(("a", "b", ""), ("c", "", ""))
        model = least_model(ground.rules)
        names = {str(ground.table.literal_for(i)) for i in model}
        assert names == {"c"}

    def test_cycle_not_self_supported(self):
        ground = _hand_ground(("a", "b", ""), ("b", "a", ""), ("c", "", ""))
        model = least_model(ground.rules)
        names = {str(ground.table.literal_for(i)) for i in model}
        assert names == {"c"}

    def test_rejects_naf(self):
        ground = _hand_ground(("a", "", "b"), ("b", "", ""))
        with pytest.raises(ValueError):
            least_model(ground.rules)

    def test_rejects_disjunction(self):
        ground = _ground("a v b.")
        with pytest.raises(ValueError):
            least_model(ground.rules)

    def test_constraints_skipped(self):
        ground = _hand_ground(("a", "", ""), ("", "a", ""))
        model = least_model(ground.rules)
        assert len(model) == 1  # constraint checked by callers, not here


class TestReduct:
    def test_rule_with_true_naf_dropped(self):
        ground = _hand_ground(("a", "", "b"), ("b", "c", ""), ("c", "", ""))
        (b_id,) = _ids(ground, "b")
        reduct = gelfond_lifschitz_reduct(ground.rules, {b_id})
        # the rule `a :- not b` must be gone
        heads = {tuple(r.head) for r in reduct}
        a_id = _ids(ground, "a")[0]
        assert (a_id,) not in heads

    def test_naf_stripped_from_survivors(self):
        ground = _hand_ground(("a", "", "b"), ("b", "", ""))
        reduct = gelfond_lifschitz_reduct(ground.rules, set())
        assert all(not rule.naf for rule in reduct)

    def test_positive_rules_unchanged(self):
        ground = _hand_ground(("a", "b", ""), ("b", "", ""))
        reduct = gelfond_lifschitz_reduct(ground.rules, set())
        assert reduct == list(ground.rules)


class TestModelChecks:
    def test_satisfies_rule(self):
        rule = GroundRule((0,), (1,), (2,))
        assert satisfies_rule(rule, {0, 1})       # body true, head true
        assert satisfies_rule(rule, {1, 2})       # body blocked by naf
        assert not satisfies_rule(rule, {1})      # body true, head false
        assert satisfies_rule(rule, set())        # body false

    def test_is_model(self):
        ground = _hand_ground(("a", "b", ""), ("b", "", ""))
        ids = _ids(ground, "a", "b")
        assert is_model(ground.rules, set(ids))
        assert not is_model(ground.rules, {ids[1]})


class TestMinimalModel:
    def test_least_model_is_minimal(self):
        ground = _hand_ground(("a", "", ""), ("b", "a", ""))
        model = least_model(ground.rules)
        assert is_minimal_model(ground.rules, model)

    def test_superset_not_minimal(self):
        ground = _ground("a v b. c :- a.")
        a, b, c = _ids(ground, "a", "b", "c")
        assert is_minimal_model(ground.rules, {a, c})
        assert is_minimal_model(ground.rules, {b})
        assert not is_minimal_model(ground.rules, {a, b, c})

    def test_non_model_rejected(self):
        ground = _ground("a v b.")
        assert not is_minimal_model(ground.rules, set())

    def test_empty_model(self):
        assert is_minimal_model([], set())

    def test_disjunctive_loop_minimality(self):
        # a v b with a :- b and b :- a: {a, b} is the only model, and it IS
        # minimal.
        ground = _ground("a v b. a :- b. b :- a.")
        a, b = _ids(ground, "a", "b")
        assert is_minimal_model(ground.rules, {a, b})

    def test_rejects_naf(self):
        ground = _hand_ground(("a", "", "b"), ("b", "", ""))
        with pytest.raises(ValueError):
            is_minimal_model(ground.rules, set())

