"""Unit tests for the AnswerSetEngine facade and query answering."""

from repro.datalog import (
    AnswerSetEngine,
    answer_sets,
    brave_answers,
    has_answer_set,
    parse_atom,
    parse_program,
    skeptical_answers,
)

from .naive import naive_answer_sets


class TestAnswerSets:
    def test_stratified_fast_path_used(self):
        program = parse_program("""
            q(X) :- p(X), not r(X).
            p(a). p(b). r(a).
        """)
        engine = AnswerSetEngine(program)
        models = engine.answer_sets()
        assert len(models) == 1
        names = {str(l) for l in models[0]}
        assert "q(b)" in names and "q(a)" not in names

    def test_fast_path_matches_search(self):
        program = parse_program("""
            q(X) :- p(X), not r(X).
            r(X) :- s(X).
            p(a). p(b). s(b).
        """)
        assert AnswerSetEngine(program).ground.pretty().splitlines() == [
            "p(a).", "p(b).", "q(a).", "r(b).", "s(b)."]
        assert sorted(sorted(str(l) for l in m)
                      for m in answer_sets(program)) == \
            naive_answer_sets(program)

    def test_fast_path_classical_negation_consistency(self):
        program = parse_program("p(a). -p(X) :- q(X). q(a).")
        assert answer_sets(program) == []

    def test_choice_program_end_to_end(self):
        program = parse_program("""
            pick(X, W) :- opt(X, W), choice((X), (W)).
            opt(1, a). opt(1, b).
        """)
        assert len(answer_sets(program)) == 2

    def test_models_cached(self):
        engine = AnswerSetEngine(parse_program("a v b."))
        assert engine.answer_sets() is engine.answer_sets()

    def test_deterministic_model_order(self):
        program_text = "a :- not b. b :- not a."
        runs = [answer_sets(parse_program(program_text)) for _ in range(3)]
        rendered = [[sorted(str(l) for l in m) for m in models]
                    for models in runs]
        assert rendered[0] == rendered[1] == rendered[2]


class TestQueries:
    PROGRAM = """
        holds(X) :- base(X), not removed(X).
        removed(X) v kept(X) :- flagged(X).
        base(1). base(2). base(3).
        flagged(2).
    """

    def test_skeptical(self):
        answers = skeptical_answers(parse_program(self.PROGRAM),
                                    parse_atom("holds(X)"))
        assert answers == {(1,), (3,)}

    def test_brave(self):
        answers = brave_answers(parse_program(self.PROGRAM),
                                parse_atom("holds(X)"))
        assert answers == {(1,), (2,), (3,)}

    def test_skeptical_with_constant_filter(self):
        answers = skeptical_answers(parse_program(self.PROGRAM),
                                    parse_atom("holds(1)"))
        assert answers == {()}

    def test_skeptical_no_models_is_empty(self):
        program = parse_program("a. :- a.")
        assert skeptical_answers(program, parse_atom("a")) == set()

    def test_repeated_variable_in_query(self):
        program = parse_program("e(1, 1). e(1, 2).")
        answers = skeptical_answers(program, parse_atom("e(X, X)"))
        assert answers == {(1,)}

    def test_has_answer_set(self):
        assert has_answer_set(parse_program("a v b."))
        assert not has_answer_set(parse_program("a. :- a."))

    def test_propositional_query(self):
        program = parse_program("a :- not b.")
        assert skeptical_answers(program, parse_atom("a")) == {()}
        assert skeptical_answers(program, parse_atom("b")) == set()


class TestShiftIntegration:
    def test_hcf_shifted_same_answers(self):
        text = "p(X) v q(X) :- r(X). r(1). r(2). :- q(1)."
        with_shift = answer_sets(parse_program(text), shift_hcf=True)
        without = answer_sets(parse_program(text), shift_hcf=False)
        assert sorted(sorted(str(l) for l in m) for m in with_shift) == \
            sorted(sorted(str(l) for l in m) for m in without)
