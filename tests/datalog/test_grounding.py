"""Unit tests for the relevant grounder."""

import pytest

from repro.datalog import (
    GroundingError,
    SafetyError,
    answer_sets,
    ground_program,
    parse_program,
)
from repro.datalog.grounding import ground_rule_over
from repro.datalog.parser import parse_rule
from repro.datalog.terms import Atom, Literal


def _rendered_rules(ground):
    return ground.pretty().splitlines()


def _atoms(ground):
    """Every ground literal: those with ids and the deterministic ones."""
    return {str(lit) for lit in (*ground.table.literals(),
                                 *ground.fact_literals())}


class TestBasicGrounding:
    def test_facts_only(self):
        # facts stay a table: no atom ids, no rules
        ground = ground_program(parse_program("p(a). p(b)."))
        assert ground.fact_count == 2
        assert ground.atom_count == 0
        assert ground.rules == []
        assert set(ground.facts["p"]) == {("a",), ("b",)}

    def test_single_rule_instantiation(self):
        # deterministic: evaluated during grounding, so facts come out
        ground = ground_program(parse_program("q(X) :- p(X). p(a). p(b)."))
        assert _rendered_rules(ground) == ["p(a).", "p(b).", "q(a).",
                                           "q(b)."]

    def test_join(self):
        ground = ground_program(parse_program("""
            r(X, Z) :- e(X, Y), e(Y, Z).
            e(a, b). e(b, c).
        """))
        lines = _rendered_rules(ground)
        assert "r(a, c)." in lines
        # no spurious instantiations
        assert not any(line.startswith("r(a, b)") for line in lines)

    def test_transitive_closure_fixpoint(self):
        ground = ground_program(parse_program("""
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
            e(1, 2). e(2, 3). e(3, 4).
        """))
        atoms = _atoms(ground)
        assert "t(1, 4)" in atoms

    def test_irrelevant_rule_not_instantiated(self):
        ground = ground_program(parse_program("""
            q(X) :- p(X).
            r(X) :- s(X).
            p(a).
        """))
        atoms = _atoms(ground)
        assert "q(a)" in atoms
        assert not any(a.startswith("r(") for a in atoms)

    def test_comparison_filters_instances(self):
        ground = ground_program(parse_program("""
            q(X, Y) :- p(X), p(Y), X != Y.
            p(a). p(b).
        """))
        lines = _rendered_rules(ground)
        assert any(line.startswith("q(a, b)") for line in lines)
        assert not any(line.startswith("q(a, a)") for line in lines)

    def test_equality_seed_binding(self):
        ground = ground_program(parse_program("q(X) :- X = a."))
        assert "q(a)." in _rendered_rules(ground)

    def test_equality_to_a_bound_variable_binds(self):
        """``Y = X`` makes ``Y`` safe (Rule.safe_variables); the grounder
        binds it instead of raising on an unbound comparison."""
        ground = ground_program(parse_program("""
            q(X, Z) :- p(X), Y = X, Z = Y, Z != b.
            p(a). p(b).
        """))
        lines = _rendered_rules(ground)
        assert "q(a, a)." in lines
        assert not any(line.startswith("q(b") for line in lines)


class TestGroundRuleOver:
    def test_instances_over_the_table_only(self):
        ground = ground_program(parse_program("""
            e(a, b). e(b, c). f(X) v g(X) :- e(X, Y).
        """))
        rule = parse_rule("ans(X, Z) :- e(X, Y), f(Y), Z = Y.")
        table = ground.table
        found = {head: {str(table.literal_for(ident)) for ident in body}
                 for head, body in ground_rule_over(rule, ground)}
        # f(c) is not in the table: nothing can derive it; e is a
        # deterministic relation, so e(a, b) holds and adds no id
        assert found == {("a", "b"): {"f(b)"}}

    def test_rejects_naf_and_unsafe_rules(self):
        ground = ground_program(parse_program("p(a)."))
        with pytest.raises(GroundingError):
            list(ground_rule_over(parse_rule("q(X) :- p(X), not r(X)."),
                                  ground))
        with pytest.raises(SafetyError):
            list(ground_rule_over(parse_rule("q(X, Y) :- p(X)."), ground))


class TestNafSimplification:
    def test_underivable_naf_removed(self):
        # r is never derivable, so `not r(X)` is true and vanishes.
        ground = ground_program(parse_program("""
            q(X) :- p(X), not r(X), not s.
            p(a).
            s v t.
        """))
        assert "q(a) :- not s." in _rendered_rules(ground)

    def test_derivable_naf_kept(self):
        ground = ground_program(parse_program("""
            q(X) :- p(X), not r(X).
            r(a) v s(a).
            p(a).
        """))
        assert "q(a) :- not r(a)." in _rendered_rules(ground)

    def test_naf_head_interplay(self):
        # a rule body requiring both x and `not x` never fires
        ground = ground_program(parse_program("""
            q(X) :- p(X), not p(X).
            p(a).
        """))
        assert not any(line.startswith("q")
                       for line in _rendered_rules(ground))

    def test_tautology_removed(self):
        ground = ground_program(parse_program("""
            p(X) :- p(X), q(X).
            q(a). p(a).
        """))
        assert "p(a) :- p(a), q(a)." not in _rendered_rules(ground)


class TestDisjunctiveAndConstraints:
    def test_disjunctive_heads_all_derivable(self):
        ground = ground_program(parse_program("""
            a(X) v b(X) :- c(X).
            d(X) :- b(X).
            c(1).
        """))
        atoms = _atoms(ground)
        assert {"a(1)", "b(1)", "c(1)", "d(1)"} <= atoms

    def test_constraints_grounded(self):
        ground = ground_program(parse_program("""
            :- p(X), q(X).
            p(a). q(a) v r(a). q(b) v r(b).
        """))
        assert ":- q(a)." in _rendered_rules(ground)
        assert not any(":- q(b)" in line for line in _rendered_rules(ground))

    def test_classical_negation_complement_pairs(self):
        # -p branches, so p does too: both get ids and form a pair
        ground = ground_program(parse_program("""
            -p(X) v s(X) :- q(X).
            p(a). q(a).
        """))
        pairs = ground.table.complement_pairs()
        assert len(pairs) == 1
        pos, neg = pairs[0]
        assert str(ground.table.literal_for(pos)) == "p(a)"
        assert str(ground.table.literal_for(neg)) == "-p(a)"


class TestGroundingErrors:
    def test_unsafe_rule_rejected(self):
        with pytest.raises(SafetyError):
            ground_program(parse_program("p(X) :- q(Y)."))

    def test_choice_must_be_unfolded(self):
        program = parse_program(
            "p(X, W) :- q(X, W), choice((X), (W)). q(a, b).")
        with pytest.raises(GroundingError):
            ground_program(program)

    def test_atom_budget_enforced(self):
        program = parse_program("""
            p(X, Y) :- d(X), d(Y).
            d(1). d(2). d(3). d(4). d(5). d(6). d(7). d(8).
        """)
        with pytest.raises(GroundingError):
            ground_program(program, max_atoms=10)


class TestDeterministicSplit:
    """The deterministic part of a program is evaluated while grounding."""

    def test_deterministic_rule_becomes_fact(self):
        ground = ground_program(parse_program("""
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
            q(X) :- n(X), not t(X, X).
            e(1, 2). e(2, 1). e(3, 1). n(1). n(3).
        """))
        assert ground.rules == []
        lines = _rendered_rules(ground)
        assert "q(3)." in lines and "q(1)." not in lines
        assert "t(3, 2)." in lines

    def test_rule_blocked_by_true_naf_dropped(self):
        # r(a) is a fact, so `not r(a)` is false and the q(a) instance
        # never fires; q(b) stays, depending on the choice of s or t.
        ground = ground_program(parse_program("""
            q(X) :- p(X), not r(X), not s.
            p(a). p(b). r(a).
            s v t.
        """))
        lines = _rendered_rules(ground)
        assert "q(b) :- not s." in lines
        assert not any(line.startswith("q(a)") for line in lines)
        assert "q(a)" not in _atoms(ground)

    def test_deterministic_positive_literal_dropped(self):
        ground = ground_program(parse_program("""
            q(X) :- p(X), s.
            p(a).
            s v t.
        """))
        assert "q(a) :- s." in _rendered_rules(ground)

    def test_constraint_decided_while_grounding(self):
        program = parse_program("p(a). q(b) :- p(a). :- q(b). :- p(c).")
        ground = ground_program(program)
        assert ":- ." in _rendered_rules(ground)
        assert len(ground.rules) == 1
        assert ground.fact_count == 2
        assert answer_sets(program) == []

    def test_deterministic_complement_pair_leaves_the_empty_constraint(self):
        program = parse_program("-p(X) :- q(X). p(a). q(a).")
        ground = ground_program(program)
        assert _rendered_rules(ground) == [
            "-p(a).", ":- .", "p(a).", "q(a)."]
        assert ground.atom_count == 0
        assert answer_sets(program) == []

    def test_complement_from_a_disjunction_keeps_key_residual(self):
        # -p branches, so p does too: q keeps its p(a) body literal.
        ground = ground_program(parse_program("""
            p(X) :- d(X).
            q(X) :- p(X).
            -p(X) v r(X) :- d(X).
            d(a).
        """))
        lines = _rendered_rules(ground)
        assert "q(a) :- p(a)." in lines
        assert "d(a)." in lines

    def test_same_predicate_disjunction_is_not_deterministic(self):
        # `p(X) v p(Y)` adds no dependency edge; the multi-literal head
        # alone must keep p and q out of the deterministic part.
        program = parse_program("""
            d(1). d(2).
            p(X) v p(Y) :- d(X), d(Y), X != Y.
            q(X) :- p(X).
        """)
        expected = [["d(1)", "d(2)", "p(1)", "q(1)"],
                    ["d(1)", "d(2)", "p(2)", "q(2)"]]
        for shift_hcf in (False, True):
            models = answer_sets(program, shift_hcf=shift_hcf)
            assert sorted(sorted(str(lit) for lit in model)
                          for model in models) == expected
        assert "q(1) :- p(1)." in _rendered_rules(ground_program(program))

    def test_atom_budget_counts_deterministic_atoms(self):
        program = parse_program("""
            pair(X, Y) :- d(X), d(Y).
            d(1). d(2). d(3). d(4). d(5). d(6).
        """)
        assert ground_program(program, max_atoms=42).fact_count == 42
        with pytest.raises(GroundingError):
            ground_program(program, max_atoms=41)


class TestAtomTable:
    def test_interning_is_stable(self):
        from repro.datalog.grounding import AtomTable
        table = AtomTable()
        lit = Literal(Atom("p", ["a"]))
        first = table.add(lit)
        second = table.add(lit)
        assert first == second
        assert table.literal_for(first) == lit
        assert table.id_for(lit) == first

    def test_rejects_naf(self):
        from repro.datalog.grounding import AtomTable
        table = AtomTable()
        with pytest.raises(ValueError):
            table.add(Literal(Atom("p", ["a"]), naf=True))


class TestSemiNaiveEquivalence:
    def test_matches_naive_reachability(self):
        # Compare grounder-derived atoms against a hand-rolled closure.
        edges = [(1, 2), (2, 3), (3, 4), (4, 2), (5, 6)]
        text = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n"
        text += "\n".join(f"e({a}, {b})." for a, b in edges)
        ground = ground_program(parse_program(text))
        derived = set(ground.facts["t"])
        # naive closure
        closure = set(edges)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(closure):
                for (c, d) in edges:
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        assert derived == closure
