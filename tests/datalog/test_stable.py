"""Unit tests for the stable-model solver, including brute-force
cross-checks against the Gelfond-Lifschitz definition."""

from itertools import combinations

import pytest

from repro.datalog import (
    SolverError,
    ground_program,
    parse_program,
    stable_models,
)
from repro.datalog.stable import (
    StableModelSolver,
    ground_head_cycle_free,
    is_stable_model,
    shift_ground,
)


def _models_as_names(ground, models):
    return sorted(
        sorted(str(literal) for literal in ground.model_literals(model))
        for model in models)


def _solve(text, **kwargs):
    ground = ground_program(parse_program(text))
    return ground, stable_models(ground, **kwargs)


def brute_force_stable_models(ground):
    """All stable models by exhaustive subset enumeration (exponential)."""
    n = ground.atom_count
    found = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            candidate = set(subset)
            if is_stable_model(ground, candidate):
                found.append(frozenset(candidate))
    return sorted(found, key=lambda m: sorted(m))


class TestNormalPrograms:
    def test_definite_program_single_model(self):
        ground, models = _solve("a. b :- a. c :- b.")
        assert len(models) == 1
        assert len(ground.model_literals(models[0])) == 3

    def test_even_loop_two_models(self):
        ground, models = _solve("a :- not b. b :- not a.")
        assert _models_as_names(ground, models) == [["a"], ["b"]]

    def test_odd_loop_no_models(self):
        _, models = _solve("a :- not a.")
        assert models == []

    def test_positive_loop_unfounded(self):
        ground, models = _solve("a :- b. b :- a. c :- not a.")
        assert _models_as_names(ground, models) == [["c"]]

    def test_constraint_prunes(self):
        ground, models = _solve("a :- not b. b :- not a. :- a.")
        assert _models_as_names(ground, models) == [["b"]]

    def test_unsatisfiable_constraints(self):
        _, models = _solve("a. :- a.")
        assert models == []

    def test_choice_like_three_way(self):
        text = """
            a :- not b, not c.
            b :- not a, not c.
            c :- not a, not b.
        """
        ground, models = _solve(text)
        assert _models_as_names(ground, models) == [["a"], ["b"], ["c"]]

    def test_supported_but_unfounded_pair(self):
        # {p, q} is a supported model but not stable.
        ground, models = _solve("p :- q. q :- p. p :- not r. r :- not p.")
        assert _models_as_names(ground, models) == [["p", "q"], ["r"]]


class TestClassicalNegation:
    def test_complement_kills_model(self):
        _, models = _solve("a. -a.")
        assert models == []

    def test_complement_branches(self):
        ground, models = _solve("a :- not b. b :- not a. -a :- b.")
        assert _models_as_names(ground, models) == [["-a", "b"], ["a"]]


class TestDisjunctivePrograms:
    def test_plain_disjunction(self):
        ground, models = _solve("a v b.")
        assert _models_as_names(ground, models) == [["a"], ["b"]]

    def test_disjunction_with_constraint(self):
        ground, models = _solve("a v b. :- a.")
        assert _models_as_names(ground, models) == [["b"]]

    def test_non_hcf_single_model(self):
        ground, models = _solve("a v b. a :- b. b :- a.")
        assert _models_as_names(ground, models) == [["a", "b"]]

    def test_non_hcf_three_way(self):
        text = """
            a v b v c.
            a :- b.
            b :- a.
        """
        ground, models = _solve(text)
        # {c} minimal; {a,b} minimal (c false).
        assert _models_as_names(ground, models) == [["a", "b"], ["c"]]

    def test_disjunction_minimality(self):
        # b also derivable directly; a v b has minimal models {b} and... {a}?
        # {a} requires b false, but b is a fact: models must contain b, so
        # the disjunct is already satisfied; minimality discards a.
        ground, models = _solve("a v b. b.")
        assert _models_as_names(ground, models) == [["b"]]

    def test_head_repeated_atom(self):
        ground, models = _solve("a v a.")
        assert _models_as_names(ground, models) == [["a"]]

    def test_shift_equivalence_on_hcf(self):
        text = "a v b :- c. c. :- a."
        ground = ground_program(parse_program(text))
        shifted = shift_ground(ground)
        assert not shifted.is_disjunctive()
        unshifted_models = stable_models(ground, shift_hcf=False)
        shifted_models = stable_models(shifted)
        assert sorted(map(sorted, unshifted_models)) == \
            sorted(map(sorted, shifted_models))

    def test_ground_hcf_detection(self):
        hcf = ground_program(parse_program("a v b. c :- a."))
        assert ground_head_cycle_free(hcf)
        non_hcf = ground_program(parse_program("a v b. a :- b. b :- a."))
        assert not ground_head_cycle_free(non_hcf)


class TestBruteForceCrossCheck:
    """The solver must agree with the GL definition, exhaustively."""

    PROGRAMS = [
        "a :- not b. b :- not a.",
        "a :- not a.",
        "a v b. :- b.",
        "a v b. a :- b. b :- a.",
        "p :- q. q :- p. p :- not r. r :- not p.",
        "a. -a :- not b. b :- not c. c :- not b.",
        "a v b v c. :- a. b :- c. c :- b.",
        "x :- not y. y :- not x. z :- x. z :- y. :- z, x.",
        "p(1). p(2). q(X) :- p(X), not r(X). r(1).",
        "a :- b, not c. b :- not d. d :- not b. c v e :- b.",
    ]

    @pytest.mark.parametrize("text", PROGRAMS)
    def test_matches_brute_force(self, text):
        ground = ground_program(parse_program(text))
        solver_models = sorted(stable_models(ground),
                               key=lambda m: sorted(m))
        brute = brute_force_stable_models(ground)
        assert solver_models == brute

    @pytest.mark.parametrize("text", PROGRAMS)
    def test_every_model_passes_is_stable_model(self, text):
        ground = ground_program(parse_program(text))
        for model in stable_models(ground):
            assert is_stable_model(ground, set(model))


class TestSolverControls:
    def test_max_models(self):
        ground = ground_program(parse_program(
            "a :- not b. b :- not a. c :- not d. d :- not c."))
        models = stable_models(ground, max_models=2)
        assert len(models) == 2

    def test_decision_budget(self):
        text = "\n".join(f"a{i} :- not b{i}. b{i} :- not a{i}."
                         for i in range(8))
        ground = ground_program(parse_program(text))
        solver = StableModelSolver(ground, max_decisions=3)
        with pytest.raises(SolverError):
            solver.solve()

    def test_deterministic_order(self):
        text = "a :- not b. b :- not a."
        ground = ground_program(parse_program(text))
        first = stable_models(ground)
        second = stable_models(ground_program(parse_program(text)))
        assert [sorted(m) for m in first] == [sorted(m) for m in second]
