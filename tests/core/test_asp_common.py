"""Direct unit tests for the constraint-to-rules translation layer
(repro.core.asp_common) — the rule shapes of Section 3.1, per family."""

import pytest

from repro.core.asp_common import (
    TranslationContext,
    dec_rules,
    hard_constraint_rules,
    instance_facts,
    make_aux_names,
)
from repro.core.asp_gav import GavSpecification
from repro.core.naming import NameMap
from repro.datalog.terms import Atom, Literal
from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    DenialConstraint,
    EqualityGeneratingConstraint,
    InclusionDependency,
    RelAtom,
    TupleGeneratingConstraint,
    Variable,
)

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
RELATIONS = ["R1", "R2", "S1", "S2"]


def make_context(changeable, foreign_primed=()):
    return TranslationContext(NameMap(RELATIONS), changeable,
                              foreign_primed)


def rule_texts(rules):
    return sorted(str(r) for r in rules)


class TestPredicateSelection:
    def test_body_pred_uses_source_for_local(self):
        context = make_context({"R1"})
        assert context.body_pred("R1") == "r1"
        assert context.body_pred("S1") == "s1"

    def test_body_pred_uses_primed_for_foreign(self):
        context = make_context({"R1"}, foreign_primed={"S1"})
        assert context.body_pred("S1") == "s1_p"

    def test_solution_pred(self):
        context = make_context({"R1"}, foreign_primed={"S1"})
        assert context.solution_pred("R1") == "r1_p"
        assert context.solution_pred("S1") == "s1_p"
        assert context.solution_pred("S2") == "s2"

    def test_changeable_foreign_overlap_rejected(self):
        from repro.core import SystemError_
        with pytest.raises(SystemError_):
            make_context({"R1"}, foreign_primed={"R1"})


class TestTgdTranslation:
    def dec3(self):
        return TupleGeneratingConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [Z, Y])],
            consequent=[RelAtom("R2", [X, W]), RelAtom("S2", [Z, W])],
            name="dec3")

    def test_paper_shape_less_trust(self):
        context = make_context({"R1", "R2"})
        rules = dec_rules(self.dec3(), context,
                          make_aux_names(context.name_map))
        texts = rule_texts(rules)
        assert len(texts) == 4  # aux1, aux2, rule (6), rule (9)
        assert any(t.startswith("aux1_") for t in texts)
        assert any(t.startswith("aux2_") for t in texts)
        assert any("choice((X, Z), (W))" in t for t in texts)
        deletion = [t for t in texts if t.startswith("-r1_p")]
        assert len(deletion) == 2  # rule (6) and the choice rule head

    def test_same_trust_uses_marker_and_domain(self):
        context = make_context({"R1", "R2", "S1", "S2"})
        rules = dec_rules(self.dec3(), context,
                          make_aux_names(context.name_map))
        texts = rule_texts(rules)
        assert any("dom" in rule.body_predicates() for rule in rules)
        assert any("ins_" in t and "dom(W)" in t for t in texts)
        # both consequent atoms get insertion rules from the marker
        assert any(t.startswith("r2_p") and ":- ins_" in t
                   for t in texts)
        assert any(t.startswith("s2_p") and ":- ins_" in t
                   for t in texts)
        # both antecedent atoms are deletable now
        assert any("-r1_p(X, Y) v -s1_p(Z, Y)" in t for t in texts)

    def test_full_inclusion_is_import_rule(self):
        ind = InclusionDependency("S1", "R1", child_arity=2,
                                  parent_arity=2, name="imp")
        context = make_context({"R1"})
        rules = dec_rules(ind, context, make_aux_names(context.name_map))
        texts = rule_texts(rules)
        # no deletion heads (antecedent S1 is fixed), no choice: a plain
        # guarded import plus the aux1 satisfaction check
        assert len(texts) == 2
        assert any(t.startswith("r1_p(") and "s1(" in t for t in texts)
        assert not any("choice" in t for t in texts)

    def test_unfixable_violation_becomes_constraint(self):
        # nothing changeable: violations are denials
        ind = InclusionDependency("S1", "R1", child_arity=2,
                                  parent_arity=2)
        context = make_context(set())
        rules = dec_rules(ind, context, make_aux_names(context.name_map))
        assert any(r.is_constraint() for r in rules)


class TestEgdTranslation:
    def test_single_deletable(self):
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [X, Z])],
            equalities=[(Y, Z)], name="egd")
        context = make_context({"R1"})
        rules = dec_rules(egd, context, make_aux_names(context.name_map))
        assert rule_texts(rules) == [
            "-r1_p(X, Y) :- r1(X, Y), s1(X, Z), Y != Z."]

    def test_both_deletable_disjunction(self):
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [X, Z])],
            equalities=[(Y, Z)], name="egd")
        context = make_context({"R1", "S1"})
        rules = dec_rules(egd, context, make_aux_names(context.name_map))
        assert rule_texts(rules) == [
            "-r1_p(X, Y) v -s1_p(X, Z) :- r1(X, Y), s1(X, Z), Y != Z."]

    def test_multiple_equalities_one_rule_each(self):
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [X, Z])],
            equalities=[(Y, Z), (X, Z)], name="egd")
        context = make_context({"R1"})
        rules = dec_rules(egd, context, make_aux_names(context.name_map))
        assert len(rules) == 2

    def test_nothing_deletable_is_denial(self):
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [X, Z])],
            equalities=[(Y, Z)], name="egd")
        context = make_context(set())
        rules = dec_rules(egd, context, make_aux_names(context.name_map))
        assert all(r.is_constraint() for r in rules)


class TestDenialTranslation:
    def test_denial_with_condition(self):
        from repro.relational import Cmp
        denial = DenialConstraint(
            antecedent=[RelAtom("R1", [X, Y])],
            conditions=[Cmp("=", X, "bad")], name="den")
        context = make_context({"R1"})
        rules = dec_rules(denial, context,
                          make_aux_names(context.name_map))
        assert rule_texts(rules) == [
            "-r1_p(X, Y) :- r1(X, Y), X = bad."]


class TestHardConstraints:
    def test_tgd_hard_constraint_shape(self):
        ind = InclusionDependency("S1", "R1", child_arity=2,
                                  parent_arity=2)
        context = make_context({"R1"})
        rules = hard_constraint_rules(ind, context,
                                      make_aux_names(context.name_map))
        texts = rule_texts(rules)
        assert any(t.startswith(":- s1(") and "not sat_" in t
                   for t in texts)
        assert any(t.startswith("sat_") and "r1_p" in t for t in texts)

    def test_egd_hard_constraint(self):
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [X, Z])],
            equalities=[(Y, Z)])
        context = make_context({"R1"})
        rules = hard_constraint_rules(egd, context,
                                      make_aux_names(context.name_map))
        assert rule_texts(rules) == [
            ":- r1_p(X, Y), s1(X, Z), Y != Z."]


class TestFactsAndDecode:
    def test_instance_facts_sorted_and_typed(self):
        schema = DatabaseSchema.of({"R1": 2})
        instance = DatabaseInstance(schema, {"R1": [("b", 2), ("a", 1)]})
        facts = instance_facts(instance, ["R1"], NameMap(["R1"]))
        assert [str(f) for f in facts] == ["r1(1, a).", "r1(2, b)."] or \
            [str(f) for f in facts] == ["r1(a, 1).", "r1(b, 2)."]

    @staticmethod
    def deleting_spec():
        """R1 is changeable and the denial DEC deletes R1(c, d); S1 is
        read only."""
        schema = DatabaseSchema.of({"R1": 2, "S1": 2})
        base = DatabaseInstance(schema, {"R1": [("a", "b"), ("c", "d")],
                                         "S1": [("c", "d")]})
        denial = DenialConstraint(
            antecedent=[RelAtom("R1", [X, Y]), RelAtom("S1", [X, Y])])
        return GavSpecification(base, [denial], changeable={"R1"})

    def test_decode_replaces_changeable_only(self):
        solution, = self.deleting_spec().solutions()
        assert solution.tuples("R1") == frozenset({("a", "b")})
        assert solution.tuples("S1") == frozenset({("c", "d")})

    def test_decode_ignores_negative_literals(self):
        spec = self.deleting_spec()
        model, = spec.answer_sets()
        assert Literal(Atom("r1_p", ("c", "d")), positive=False) in model
        solution, = spec.solutions()
        assert ("c", "d") not in solution.tuples("R1")
