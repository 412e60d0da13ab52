"""Cross-check: relevant grounding preserves stable models.

The grounder evaluates the deterministic part of a program exactly, prunes
irrelevant instantiations and simplifies NAF literals; these tests compare
its output against *naive full instantiation* over the Herbrand universe —
the semantics-defining baseline — on random non-ground programs with
disjunctive heads (two literals of one predicate included), classically
negated literals, ``!=`` guards and denial constraints.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.datalog import (
    Program,
    Rule,
    answer_sets,
    ground_program,
    stable_models,
)
from repro.datalog.graphs import is_stratified
from repro.datalog.grounding import GroundRule
from repro.datalog.terms import Atom, Comparison, Constant, Literal, \
    Variable

from .naive import naive_ground

CONSTANTS = [Constant("a"), Constant("b"), Constant("c")]
X, Y = Variable("X"), Variable("Y")
TERMS = [X, Y] + CONSTANTS
PREDICATES = ["p", "q", "r"]


def _names(literals, predicates):
    return sorted(str(literal) for literal in literals
                  if literal.predicate in predicates)


def _models_as_names(ground, models, predicates):
    return sorted(_names(ground.model_literals(m), predicates)
                  for m in models)


@st.composite
def objective_literals(draw, terms):
    """``p(t)`` or, one time in three, its classical negation ``-p(t)``."""
    atom = Atom(draw(st.sampled_from(PREDICATES)),
                [draw(st.sampled_from(terms))])
    return Literal(atom, positive=draw(st.sampled_from([True, True, False])))


@st.composite
def nonground_rules(draw):
    """Random rules over unary predicates p, q, r with variables/constants
    and guaranteed safety (head/naf variables occur positively): normal
    rules, two-literal disjunctive heads and denial constraints."""
    head = [draw(objective_literals(TERMS))
            for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
    if len(head) == 2 and draw(st.booleans()):
        # one predicate on both sides: `p(X) v p(Y)` adds no graph edge
        first = head[0]
        head[1] = Literal(Atom(first.predicate,
                               [draw(st.sampled_from(TERMS))]),
                          first.positive)
    body: list = []
    pos_vars: set = set()
    min_pos = 0 if head else 1  # a denial needs a body
    for _ in range(draw(st.integers(min_value=min_pos, max_value=2))):
        literal = draw(objective_literals(TERMS))
        body.append(literal)
        pos_vars |= literal.variables()
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        candidates = sorted(pos_vars, key=lambda v: v.name) + CONSTANTS
        body.append(draw(objective_literals(candidates)).negated_naf())
    head_vars = set().union(*(lit.variables() for lit in head))
    for variable in sorted(head_vars - pos_vars, key=lambda v: v.name):
        body.append(Literal(Atom("dom", [variable])))
    # `p(X) v p(Y) :- ..., X != Y` is the shape that truly branches
    if {X, Y} <= pos_vars | head_vars and draw(st.booleans()):
        body.append(Comparison("!=", X, Y))
    return Rule(head=head, body=body)


@st.composite
def nonground_programs(draw):
    rules = draw(st.lists(nonground_rules(), min_size=1, max_size=5))
    facts = [Rule(head=[Atom("dom", [c])]) for c in CONSTANTS]
    for pred in PREDICATES:
        if draw(st.booleans()):
            facts.append(Rule(head=[Atom(
                pred, [draw(st.sampled_from(CONSTANTS))])]))
    return Program(rules + facts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonground_programs())
def test_relevant_grounding_preserves_stable_models(program):
    relevant = ground_program(program)
    naive = naive_ground(program)
    for shift_hcf in (True, False):
        expected = _models_as_names(
            naive, stable_models(naive, shift_hcf=shift_hcf), PREDICATES)
        assert _models_as_names(
            relevant, stable_models(relevant, shift_hcf=shift_hcf),
            PREDICATES) == expected
        assert sorted(_names(model, PREDICATES) for model in answer_sets(
            program, shift_hcf=shift_hcf)) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nonground_programs())
def test_relevant_grounding_never_larger(program):
    relevant = ground_program(program)
    naive = naive_ground(program)
    assert len(relevant.rules) <= len(naive.rules)
    assert relevant.atom_count + relevant.fact_count <= naive.atom_count


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nonground_programs())
def test_stratified_programs_ground_to_facts(program):
    """With no disjunction and no recursion through negation every key
    is deterministic: only tables and the empty constraint are left."""
    assume(is_stratified(program) and not program.has_disjunction())
    ground = ground_program(program)
    assert ground.rules in ([], [GroundRule((), (), ())]), ground.rules
    assert ground.atom_count == 0
