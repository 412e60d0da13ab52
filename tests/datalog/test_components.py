"""Solving by components against whole-program enumeration.

The engine splits a ground program into components that share no atom
and solves each on its own; the program's answer sets are the unions of
one model per component.  The oracle here is the whole-program search,
``StableModelSolver(ground).solve()``, on small Hypothesis-drawn ground
programs with disjunctive (also non-head-cycle-free) rules, denial
constraints, complement pairs, the empty constraint ``:- .`` and
isolated facts.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    AnswerSetEngine,
    Program,
    StableModelSolver,
    parse_atom,
    parse_program,
)
from repro.datalog.engine import solve_components, split_components
from repro.datalog.grounding import AtomTable, GroundProgram, GroundRule
from repro.datalog.terms import Atom, Literal

from .test_properties import disjunctive_rules, with_denials

#: three blocks of four atoms, ``p0``..``p11``, then ``-p0``, ``-p4`` and
#: ``-p8``: one complement pair per block
LITERALS = [Literal(Atom(f"p{i}")) for i in range(12)] \
    + [Literal(Atom(f"p{i}"), positive=False) for i in (0, 4, 8)]
IDS = st.integers(min_value=0, max_value=len(LITERALS) - 1)


def _block(number):
    """A block's ids: its four atoms and its one negation."""
    return [4 * number + i for i in range(4)] + [12 + number]


def _ids(pool, max_size, min_size=0):
    return st.lists(st.sampled_from(pool), min_size=min_size,
                    max_size=max_size, unique=True).map(tuple)


def _rules(pool):
    """Disjunctive rules (with positive bodies, so head cycles happen),
    denials and facts over the ids in ``pool``."""
    return st.one_of(
        st.builds(GroundRule, _ids(pool, 3, 1), _ids(pool, 2),
                  _ids(pool, 2)),
        st.builds(GroundRule, st.just(()), _ids(pool, 2, 1),
                  _ids(pool, 1)),
        st.builds(GroundRule, _ids(pool, 1, 1), st.just(()), st.just(())))


@st.composite
def ground_programs(draw):
    """Up to three blocks of rules over disjoint atoms, so the program
    falls apart into components, some with an even loop so that several
    components have several models; now and then a rule over any atoms
    bridges blocks, and rarely the empty constraint ``:- .`` is added."""
    table = AtomTable()
    for literal in LITERALS:
        table.add(literal)
    rules = []
    for number in range(draw(st.integers(min_value=1, max_value=3))):
        block = _block(number)
        if draw(st.booleans()):
            # an even loop through negation: a choice between two atoms
            first, second = draw(_ids(block, 2, 2))
            rules += [GroundRule((first,), (), (second,)),
                      GroundRule((second,), (), (first,))]
        rules += draw(st.lists(_rules(block), min_size=1, max_size=5))
    rules += draw(st.lists(_rules(list(range(len(LITERALS)))),
                           max_size=1))
    if draw(st.sampled_from([False] * 9 + [True])):
        rules.append(GroundRule((), (), ()))
    return GroundProgram(table, rules)


def _product(components):
    return sorted((frozenset().union(*combination) for combination
                   in product(*(c.models for c in components))), key=sorted)


@settings(max_examples=300, deadline=None)
@given(ground_programs(), st.booleans())
def test_component_product_is_the_whole_program_search(ground, shift_hcf):
    expected = StableModelSolver(ground, shift_hcf=shift_hcf).solve()
    components = solve_components(ground, shift_hcf=shift_hcf)
    assert _product(components) == expected
    # the components partition the atoms they hold
    seen = [atom for component in components for atom in component.atoms]
    assert len(seen) == len(set(seen))


@settings(max_examples=300, deadline=None)
@given(ground_programs())
def test_no_rule_or_pair_spans_two_components(ground):
    parts = split_components(ground)
    if parts is None:
        assert GroundRule((), (), ()) in ground.rules
        return
    owner = {atom: number for number, (atoms, _) in enumerate(parts)
             for atom in atoms}
    for number, (atoms, rules) in enumerate(parts):
        assert atoms == sorted(atoms)
        for rule in rules:
            assert {owner[a] for a in rule.head + rule.pos + rule.naf} \
                == {number}
    for first, second in ground.table.complement_pairs():
        assert owner[first] == owner[second]
    assert sum(len(rules) for _, rules in parts) == len(ground.rules)
    # in the order of their smallest atom
    assert [atoms[0] for atoms, _ in parts] == \
        sorted(atoms[0] for atoms, _ in parts)


@settings(max_examples=150, deadline=None)
@given(with_denials(disjunctive_rules(), 6))
def test_engine_models_are_the_whole_program_search(rules):
    engine = AnswerSetEngine(Program(rules), shift_hcf=False)
    expected = StableModelSolver(engine.ground, shift_hcf=False).solve()
    assert engine.id_models() == expected
    assert engine.is_consistent() == bool(expected)


def test_isolated_facts_form_one_component_without_search(monkeypatch):
    """Atoms defined by facts alone are read off the rules, together;
    only the disjunction is searched."""
    searched = []
    solve = StableModelSolver.solve

    def counting(self):
        models = solve(self)
        searched.append(len(models))
        return models

    monkeypatch.setattr(StableModelSolver, "solve", counting)
    engine = AnswerSetEngine(parse_program("""
        p(X) :- d(X), not -p(X).
        -p(X) v w(X) :- e(X).
        d(1). d(2). d(3). e(2).
    """), shift_hcf=False)
    first = engine.components()[0]
    assert first.models == [frozenset(first.atoms)]
    # p(1) and p(3): nothing can delete them, so their rules are facts
    assert sorted(str(engine.ground.table.literal_for(atom))
                  for atom in first.atoms) == ["p(1)", "p(3)"]
    assert searched == [2]  # {-p(2)} and {p(2), w(2)}
    assert len(engine.id_models()) == 2


def test_a_non_hcf_component_beside_an_independent_one():
    """``a v b`` with ``a :- b`` and ``b :- a`` is not head-cycle-free:
    its one model {a, b} must survive minimality checking next to an
    independent choice."""
    program = parse_program("""
        a v b. a :- b. b :- a.
        x :- not y. y :- not x.
    """)
    engine = AnswerSetEngine(program)
    assert len(engine.components()) == 2
    rendered = sorted(sorted(map(str, model))
                      for model in engine.answer_sets())
    assert rendered == [["a", "b", "x"], ["a", "b", "y"]]


def test_the_empty_constraint_leaves_no_model():
    table = AtomTable()
    table.add(LITERALS[0])
    ground = GroundProgram(table, [GroundRule((0,), (), ()),
                                   GroundRule((), (), ())])
    assert split_components(ground) is None
    components = solve_components(ground)
    assert [c.models for c in components] == [[]]
    assert StableModelSolver(ground).solve() == []


def test_a_complement_pair_joins_two_facts_and_kills_them():
    engine = AnswerSetEngine(parse_program("p(a) v q. -p(a). r."))
    assert engine.is_consistent()
    assert [sorted(map(str, m)) for m in engine.answer_sets()] == \
        [["-p(a)", "q", "r"]]
    engine = AnswerSetEngine(parse_program("p(a) :- s. s :- not t. "
                                           "-p(a) :- u. u :- not w."))
    assert not engine.is_consistent()
    assert engine.id_models() == []


def test_max_models_caps_the_product():
    text = " ".join(f"a{i} :- not b{i}. b{i} :- not a{i}."
                    for i in range(4))
    assert len(AnswerSetEngine(parse_program(text)).id_models()) == 16
    capped = AnswerSetEngine(parse_program(text), max_models=3)
    assert len(capped.id_models()) == 3
    assert all(len(c.models) <= 3 for c in capped.components())
    assert capped.is_consistent()


def test_cautious_and_brave_answers_never_build_the_product(monkeypatch):
    """Fifteen independent disjunctions have 2**15 answer sets; cautious
    and brave answers read each component's two models instead, so
    neither the product of ids nor its rendering is ever built."""
    text = " ".join(f"p({i}) v q({i}) :- r({i}). r({i})."
                    for i in range(15))
    engine = AnswerSetEngine(parse_program(
        text + " s(X) :- p(X). s(X) :- q(X)."))

    def refuse(self):
        raise AssertionError("the cross product was built")

    monkeypatch.setattr(AnswerSetEngine, "id_models", refuse)
    monkeypatch.setattr(AnswerSetEngine, "answer_sets", refuse)
    every = {(i,) for i in range(15)}
    assert engine.skeptical_answers(parse_atom("p(X)")) == set()
    assert engine.brave_answers(parse_atom("p(X)")) == every
    assert engine.skeptical_answers(parse_atom("s(X)")) == every
    assert engine.skeptical_answers(parse_atom("r(3)")) == {()}
    assert engine.brave_answers(parse_atom("q(15)")) == set()
    assert len(engine.components()) == 15  # one per disjunction
