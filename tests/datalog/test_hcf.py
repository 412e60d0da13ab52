"""Unit tests for shifting (Section 4.1, Example 3)."""

import pytest

from repro.datalog import (
    ProgramError,
    answer_sets,
    can_shift,
    parse_program,
    parse_rule,
    shift_program,
    shift_rule,
)


class TestShiftRule:
    def test_non_disjunctive_unchanged(self):
        rule = parse_rule("a :- b.")
        assert shift_rule(rule) == [rule]

    def test_two_way_shift(self):
        rule = parse_rule("a v b :- c.")
        shifted = shift_rule(rule)
        texts = sorted(str(r) for r in shifted)
        assert texts == ["a :- c, not b.", "b :- c, not a."]

    def test_three_way_shift(self):
        rule = parse_rule("a v b v c.")
        shifted = shift_rule(rule)
        assert len(shifted) == 3
        for r in shifted:
            assert len(r.naf_body()) == 2

    def test_classical_negation_in_head(self):
        rule = parse_rule("-a v b :- c.")
        shifted = sorted(str(r) for r in shift_rule(rule))
        assert shifted == ["-a :- c, not b.", "b :- c, not -a."]

    def test_paper_example3_shape(self):
        # Example 3: shifting rule (9) with the choice goal retained.
        rule = parse_rule("""
            -r1p(X, Y) v r2p(X, W) :- r1(X, Y), s1(Z, Y), not aux1(X, Z),
                                      s2(Z, W), choice((X, Z), (W)).""")
        shifted = shift_rule(rule)
        assert len(shifted) == 2
        for r in shifted:
            assert r.choice_goal() is not None
            assert len(r.head) == 1
        naf_preds = sorted(r.naf_body()[-1].predicate for r in shifted)
        assert naf_preds == ["r1p", "r2p"]
        polarities = sorted((r.naf_body()[-1].predicate,
                             r.naf_body()[-1].positive) for r in shifted)
        # `not r2p(x,w)` in the -r1p rule; `not -r1p(x,y)` in the r2p rule
        assert polarities == [("r1p", False), ("r2p", True)]


class TestShiftProgram:
    def test_hcf_program_shifts(self):
        program = parse_program("a v b :- c. c.")
        shifted = shift_program(program)
        assert not shifted.has_disjunction()

    def test_non_hcf_refused(self):
        program = parse_program("a v b. a :- b. b :- a.")
        assert not can_shift(program)
        with pytest.raises(ProgramError):
            shift_program(program)

    def test_force_shift_changes_semantics(self):
        # The ablation case: forcing the shift on a non-HCF program loses
        # the {a, b} model.
        program = parse_program("a v b. a :- b. b :- a.")
        shifted = shift_program(program, force=True)
        original_models = answer_sets(program, shift_hcf=False)
        shifted_models = answer_sets(shifted)
        assert [sorted(str(l) for l in m) for m in original_models] == \
            [["a", "b"]]
        assert shifted_models == []

    def test_coinciding_head_literals_not_shifted(self):
        # Shifting `p(X) v p(Y)` would add `p(a) :- d(a), not p(a)` for
        # X = Y = a; the solver shifts such rules after grounding instead,
        # where the grounder has merged the coinciding literals.
        for text in ("p(X) v p(X) :- d(X). d(a).",
                     "p(X) v p(Y) :- d(X), d(Y). d(a)."):
            program = parse_program(text)
            assert not can_shift(program)
            assert [sorted(str(l) for l in m)
                    for m in answer_sets(program)] == [["d(a)", "p(a)"]]
        assert can_shift(parse_program("p(X, a) v p(Y, b) :- d(X), d(Y)."))

    def test_no_disjunction_identity(self):
        program = parse_program("a :- b. b.")
        assert shift_program(program) is program

    def test_shift_preserves_answer_sets_hcf(self):
        texts = [
            "a v b :- c. c. :- a.",
            "p(X) v q(X) :- r(X). r(1). r(2). :- q(1).",
            "a v b. c :- a. d :- b.",
        ]
        for text in texts:
            program = parse_program(text)
            direct = answer_sets(program, shift_hcf=False)
            shifted = answer_sets(shift_program(program))
            assert sorted(sorted(str(l) for l in m) for m in direct) == \
                sorted(sorted(str(l) for l in m) for m in shifted), text
