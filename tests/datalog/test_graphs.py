"""Unit tests for dependency analysis: SCCs, stratification, HCF."""

from repro.datalog import parse_program
from repro.datalog.graphs import (
    dependency_edges,
    head_cycle_components,
    is_head_cycle_free,
    is_stratified,
    objective_key,
    positive_dependency_graph,
    stratification,
    strongly_connected_components,
)
from repro.datalog.parser import parse_rule


class TestObjectiveKey:
    def test_positive(self):
        rule = parse_rule("p(a).")
        assert objective_key(rule.head[0]) == "p"

    def test_negative(self):
        rule = parse_rule("-p(a).")
        assert objective_key(rule.head[0]) == "-p"


class TestSCC:
    def test_self_loop(self):
        components = strongly_connected_components({"a": {"a"}})
        assert components == [{"a"}]

    def test_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}}
        components = strongly_connected_components(graph)
        assert {"a", "b", "c"} in components

    def test_dag_components_singletons(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": set()}
        components = strongly_connected_components(graph)
        assert all(len(c) == 1 for c in components)
        # reverse topological: dependencies first
        order = [next(iter(c)) for c in components]
        assert order.index("c") < order.index("b") < order.index("a")

    def test_two_components(self):
        graph = {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"},
                 "e": {"a", "c"}}
        components = strongly_connected_components(graph)
        assert {"a", "b"} in components and {"c", "d"} in components

    def test_large_chain_no_recursion_error(self):
        n = 5000
        graph = {i: {i + 1} for i in range(n)}
        graph[n] = set()
        components = strongly_connected_components(graph)
        assert len(components) == n + 1


class TestStratification:
    def test_positive_recursion_is_stratified(self):
        program = parse_program("p(X) :- e(X, Y), p(Y). p(X) :- s(X).")
        assert is_stratified(program)

    def test_negative_recursion_not_stratified(self):
        program = parse_program("a :- not b. b :- not a.")
        assert not is_stratified(program)

    def test_strata_levels(self):
        program = parse_program("""
            r(X) :- q(X), not p(X).
            p(X) :- e(X).
            s(X) :- r(X).
        """)
        strata = stratification(program)
        assert strata is not None
        assert strata["p"] < strata["r"] <= strata["s"]

    def test_negation_through_chain_not_stratified(self):
        program = parse_program("""
            a :- b.
            b :- not c.
            c :- a.
        """)
        assert not is_stratified(program)

    def test_disjunction_treated_as_unstratified(self):
        # Disjunctive heads entangle their literals: a cycle through
        # negation, so the grounder never evaluates them as deterministic.
        program = parse_program("a v b :- c. c.")
        assert not is_stratified(program)

    def test_classical_negation_separate_strata(self):
        # -p and p are distinct nodes: no false cycles.
        program = parse_program("p(X) :- q(X), not -p(X). -p(X) :- r(X).")
        assert is_stratified(program)

    def test_dependency_edges_orientation(self):
        program = parse_program("p(X) :- q(X), not r(X).")
        graph, negative = dependency_edges(program)
        assert "q" in graph["p"] and "r" in graph["p"]
        assert ("p", "r") in negative and ("p", "q") not in negative


class TestHeadCycleFree:
    def test_simple_disjunction_is_hcf(self):
        assert is_head_cycle_free(parse_program("a v b :- c."))

    def test_mutual_recursion_between_head_literals(self):
        program = parse_program("""
            a v b.
            a :- b.
            b :- a.
        """)
        assert not is_head_cycle_free(program)
        witnesses = head_cycle_components(program)
        assert ("a", "b") in witnesses or ("b", "a") in witnesses

    def test_cycle_not_through_head_pair_is_hcf(self):
        program = parse_program("""
            a v b.
            c :- a.
            a :- c.
        """)
        assert is_head_cycle_free(program)

    def test_naf_cycle_does_not_count(self):
        # HCF looks at the *positive* dependency graph only.
        program = parse_program("""
            a v b.
            a :- not b.
            b :- not a.
        """)
        assert is_head_cycle_free(program)

    def test_choice_goals_ignored(self):
        # Paper Section 4.1: a choice program is HCF iff the program minus
        # its choice goals is HCF.
        program = parse_program("""
            -r1p(X, Y) v r2p(X, W) :- r1(X, Y), s2(Z, W),
                                      choice((X, Z), (W)).
        """)
        assert is_head_cycle_free(program)

    def test_paper_section31_program_is_hcf(self):
        program = parse_program("""
            r1p(X, Y) :- r1(X, Y), not -r1p(X, Y).
            r2p(X, Y) :- r2(X, Y).
            -r1p(X, Y) :- r1(X, Y), s1(Z, Y), not aux1(X, Z), not aux2(Z).
            aux1(X, Z) :- r2(X, W), s2(Z, W).
            aux2(Z) :- s2(Z, W).
            -r1p(X, Y) v r2p(X, W) :- r1(X, Y), s1(Z, Y), not aux1(X, Z),
                                      s2(Z, W), choice((X, Z), (W)).
        """)
        assert is_head_cycle_free(program)

    def test_positive_graph_shape(self):
        program = parse_program("p(X) :- q(X). q(X) :- r(X).")
        graph = positive_dependency_graph(program)
        assert "p" in graph["q"]
        assert "q" in graph["r"]
