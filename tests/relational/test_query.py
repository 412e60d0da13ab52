"""Unit tests for FO query evaluation (active-domain semantics)."""

import pytest

from repro.relational import (
    And,
    Cmp,
    DatabaseInstance,
    DatabaseSchema,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Query,
    QueryError,
    RelAtom,
    TRUE,
    FALSE,
    Variable,
    evaluation_domain,
    holds,
    parse_formula,
    parse_query,
)

SCHEMA = DatabaseSchema.of({"R": 2, "S": 2, "T": 1})
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def inst(**data):
    return DatabaseInstance(SCHEMA, data)


class TestHolds:
    def setup_method(self):
        self.db = inst(R=[("a", "b"), ("b", "c")], S=[("a", "b")],
                       T=[("a",)])
        self.domain = ("a", "b", "c")

    def test_atom(self):
        assert holds(RelAtom("R", ["a", "b"]), self.db, {}, self.domain)
        assert not holds(RelAtom("R", ["b", "a"]), self.db, {}, self.domain)

    def test_atom_with_env(self):
        assert holds(RelAtom("R", [X, "b"]), self.db, {X: "a"}, self.domain)

    def test_unbound_variable_raises(self):
        with pytest.raises(QueryError):
            holds(RelAtom("R", [X, Y]), self.db, {}, self.domain)

    def test_cmp(self):
        assert holds(Cmp("!=", X, Y), self.db, {X: "a", Y: "b"},
                     self.domain)

    def test_and_or_not(self):
        f = And(RelAtom("R", [X, Y]), Not(RelAtom("S", [X, Y])))
        assert holds(f, self.db, {X: "b", Y: "c"}, self.domain)
        assert not holds(f, self.db, {X: "a", Y: "b"}, self.domain)
        g = Or(RelAtom("S", [X, Y]), RelAtom("R", [X, Y]))
        assert holds(g, self.db, {X: "a", Y: "b"}, self.domain)

    def test_implies(self):
        f = Implies(RelAtom("S", [X, Y]), RelAtom("R", [X, Y]))
        assert holds(f, self.db, {X: "a", Y: "b"}, self.domain)   # both
        assert holds(f, self.db, {X: "c", Y: "c"}, self.domain)   # vacuous

    def test_exists(self):
        f = Exists(Y, RelAtom("R", [X, Y]))
        assert holds(f, self.db, {X: "a"}, self.domain)
        assert not holds(f, self.db, {X: "c"}, self.domain)

    def test_forall(self):
        # every R-successor of a is b
        f = Forall(Y, Implies(RelAtom("R", [X, Y]), Cmp("=", Y, "b")))
        assert holds(f, self.db, {X: "a"}, self.domain)
        assert not holds(
            Forall(Y, RelAtom("R", [X, Y])), self.db, {X: "a"}, self.domain)

    def test_quantifier_shadowing(self):
        # inner X shadows outer binding
        f = Exists(X, RelAtom("T", [X]))
        assert holds(f, self.db, {X: "zzz"}, self.domain)

    def test_truth_constants(self):
        assert holds(TRUE, self.db, {}, self.domain)
        assert not holds(FALSE, self.db, {}, self.domain)

    def test_nested_quantifiers(self):
        # exists a path of length 2
        f = Exists([X, Y, Z], And(RelAtom("R", [X, Y]),
                                  RelAtom("R", [Y, Z])))
        assert holds(f, self.db, {}, self.domain)


class TestAnswers:
    def setup_method(self):
        self.db = inst(R=[("a", "b"), ("b", "c"), ("a", "c")],
                       S=[("a", "b")], T=[("a",)])

    def test_atom_query(self):
        q = Query("q", [X, Y], RelAtom("R", [X, Y]))
        assert q.answers(self.db) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_projection_via_exists(self):
        q = Query("q", [X], Exists(Y, RelAtom("R", [X, Y])))
        assert q.answers(self.db) == {("a",), ("b",)}

    def test_join(self):
        q = Query("q", [X, Z], Exists(Y, And(RelAtom("R", [X, Y]),
                                             RelAtom("R", [Y, Z]))))
        assert q.answers(self.db) == {("a", "c")}

    def test_negation(self):
        q = Query("q", [X, Y], And(RelAtom("R", [X, Y]),
                                   Not(RelAtom("S", [X, Y]))))
        assert q.answers(self.db) == {("b", "c"), ("a", "c")}

    def test_disjunction_of_different_relations(self):
        q = Query("q", [X, Y], Or(RelAtom("R", [X, Y]),
                                  RelAtom("S", [X, Y])))
        assert q.answers(self.db) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_disjunct_binding_subset_of_head(self):
        # second disjunct leaves Y unbound: active-domain completion
        q = Query("q", [X, Y], Or(RelAtom("R", [X, Y]), RelAtom("T", [X])))
        answers = q.answers(self.db)
        # T(a) contributes (a, d) for every d in the active domain
        assert ("a", "a") in answers and ("a", "b") in answers
        assert ("b", "b") not in answers

    def test_constant_in_query(self):
        q = Query("q", [Y], RelAtom("R", ["a", Y]))
        assert q.answers(self.db) == {("b",), ("c",)}

    def test_comparison_filter(self):
        q = Query("q", [X, Y], And(RelAtom("R", [X, Y]),
                                   Cmp("!=", Y, "c")))
        assert q.answers(self.db) == {("a", "b")}

    def test_boolean_query(self):
        q = Query("q", [], Exists([X, Y], RelAtom("R", [X, Y])))
        assert q.is_true(self.db)
        empty = inst()
        assert not q.is_true(empty)

    def test_free_variable_validation(self):
        with pytest.raises(QueryError):
            Query("q", [X], RelAtom("R", [X, Y]))  # Y free but not in head

    def test_repeated_head_variable_rejected(self):
        with pytest.raises(QueryError):
            Query("q", [X, X], RelAtom("R", [X, X]))

    def test_guarded_forall(self):
        # all R-successors of X are also S-successors of X
        q = Query("q", [X],
                  And(RelAtom("T", [X]),
                      Forall(Y, Implies(RelAtom("R", [X, Y]),
                                        RelAtom("S", [X, Y])))))
        db = inst(R=[("a", "b")], S=[("a", "b")], T=[("a",)])
        assert q.answers(db) == {("a",)}
        db2 = inst(R=[("a", "b"), ("a", "c")], S=[("a", "b")], T=[("a",)])
        assert q.answers(db2) == set()


class TestAnswersDeduplication:
    """Regression for the documented ``bindings`` leak: disjunction
    branches binding fewer variables yield duplicate *partial*
    environments, and ``answers`` used to re-run the full
    ``product(domain, repeat=unbound)`` completion for every repeat.
    Completed environments depend only on the candidate's base, so each
    base must be processed exactly once."""

    def test_partial_candidates_completed_once(self, monkeypatch):
        import repro.relational.query as query_module
        db = inst(T=[("a",), ("b",)])
        # both branches are identical, so `bindings` yields every
        # T-candidate twice, each leaving Y unbound
        q = Query("q", [X, Y], Or(RelAtom("T", [X]), RelAtom("T", [X])))
        calls = {"completions": 0}
        real_product = query_module.product

        def counting_product(*args, **kwargs):
            calls["completions"] += 1
            return real_product(*args, **kwargs)

        monkeypatch.setattr(query_module, "product", counting_product)
        answers = q.answers(db, evaluator="naive")
        domain = ("a", "b")
        assert answers == {(x, y) for x in domain for y in domain}
        # one completion product per *distinct* base — (a, ?) and
        # (b, ?) — not one per yielded candidate (which would be 4)
        assert calls["completions"] == 2

    def test_duplicate_full_candidates_also_deduplicated(self,
                                                         monkeypatch):
        import repro.relational.query as query_module
        db = inst(R=[("a", "b")], S=[("a", "b")])
        q = Query("q", [X, Y], Or(RelAtom("R", [X, Y]),
                                  RelAtom("S", [X, Y])))
        seen = []
        real_holds = query_module.holds

        def counting_holds(formula, instance, env, domain):
            if formula is q.formula:  # top-level verification only
                seen.append(dict(env))
            return real_holds(formula, instance, env, domain)

        monkeypatch.setattr(query_module, "holds", counting_holds)
        assert q.answers(db, evaluator="naive") == {("a", "b")}
        # the (a, b) environment reaches verification exactly once even
        # though both branches produce it
        assert len([e for e in seen if e == {X: "a", Y: "b"}]) == 1

    def test_dedup_matches_planner(self):
        db = inst(R=[("a", "b"), ("b", "c")], T=[("a",), ("c",)])
        q = Query("q", [X, Y], Or(RelAtom("R", [X, Y]),
                                  RelAtom("T", [X]),
                                  RelAtom("T", [X])))
        assert q.answers(db, evaluator="naive") == \
            q.answers(db, evaluator="planner")


class TestEvaluationDomain:
    def test_includes_constants(self):
        db = inst(R=[("a", "b")])
        domain = evaluation_domain(db, RelAtom("R", ["zzz", X]))
        assert "zzz" in domain and "a" in domain


class TestParser:
    def test_parse_formula_precedence(self):
        f = parse_formula("R(X, Y) & S(X, Y) | T(X)")
        assert isinstance(f, Or)  # & binds tighter than |

    def test_parse_implication_right_assoc(self):
        f = parse_formula("T(X) -> T(X) -> T(X)")
        assert isinstance(f, Implies)
        assert isinstance(f.conclusion, Implies)

    def test_parse_not(self):
        f = parse_formula("~T(X)")
        assert isinstance(f, Not)
        g = parse_formula("not T(X)")
        assert f == g

    def test_parse_quantifiers(self):
        f = parse_formula("exists X Y R(X, Y)")
        assert isinstance(f, Exists) and len(f.variables) == 2

    def test_parse_quantifier_body_atom_uppercase_relation(self):
        f = parse_formula("exists Z2 R2(X, Z2)")
        assert isinstance(f, Exists)
        assert f.variables == (Variable("Z2"),)

    def test_parse_spaced_paren_after_variables_opens_the_body(self):
        # `Z (` is a variable then a parenthesised body: a relation name
        # is directly followed by `(`
        q = parse_query("q(X) := exists Y Z (R(X, Y) & S(X, Z))")
        assert isinstance(q.formula, Exists)
        assert q.formula.variables == (Variable("Y"), Variable("Z"))
        assert isinstance(q.formula.sub, And)
        # an adjacent `(` still makes the IDENT the body's relation atom
        f = parse_formula("exists Y Z(X, Y)")
        assert f.variables == (Variable("Y"),)
        assert isinstance(f.sub, RelAtom) and f.sub.relation == "Z"
        f = parse_formula("forall Z1 (R(Z1) -> S(Z1))")
        assert isinstance(f, Forall)
        assert f.variables == (Variable("Z1"),)

    def test_parse_example2_rewriting(self):
        text = ("(R1(X, Y) & forall Z1 ((R3(X, Z1) & "
                "~exists Z2 R2(X, Z2)) -> Z1 = Y)) | R2(X, Y)")
        f = parse_formula(text)
        assert isinstance(f, Or)

    def test_parse_query_headed(self):
        q = parse_query("answer(X) := exists Y R(X, Y)")
        assert q.name == "answer"
        assert q.head == (X,)

    def test_parse_query_bare(self):
        q = parse_query("R(X, Y) & T(X)")
        assert q.head == (X, Y)

    def test_parse_query_head_must_be_variables(self):
        with pytest.raises(QueryError):
            parse_query("q(a) := T(a)")

    def test_keywords_and_synonyms(self):
        f = parse_formula("T(X) and T(X) or not T(X)")
        assert isinstance(f, Or)

    def test_parse_equality_synonym(self):
        f = parse_formula("X = Y & T(X)")
        assert isinstance(f, And)

    def test_trailing_garbage(self):
        with pytest.raises(QueryError):
            parse_formula("T(X) T(Y)")

    def test_roundtrip_str(self):
        text = "(R(X, Y) -> exists Z S(Y, Z))"
        f = parse_formula(text)
        g = parse_formula(str(f))
        assert f == g

    def test_evaluation_of_parsed_query(self):
        db = inst(R=[("a", "b"), ("b", "c")], S=[("a", "b")])
        q = parse_query("q(X) := exists Y (R(X, Y) & ~S(X, Y))")
        assert q.answers(db) == {("b",)}
