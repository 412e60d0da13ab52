"""Property-based tests (hypothesis) for the ASP engine.

These check the engine against the Gelfond-Lifschitz *definition* on random
programs: every reported model must pass the exact stability check, and the
solver must agree with brute-force subset enumeration on small programs.
The random programs include denial constraints and classically negated
literals (whose complement pairs the solver must keep apart), and some are
built directly as ground programs so that positive loops the grounder
would drop reach the solver.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Program,
    Rule,
    ground_program,
    parse_program,
    stable_models,
)
from repro.datalog.graphs import is_head_cycle_free
from repro.datalog.grounding import AtomTable, GroundProgram, GroundRule
from repro.datalog.hcf import shift_program
from repro.datalog.stable import ground_tight, is_stable_model
from repro.datalog.terms import Atom, Literal

ATOMS = [Atom(f"p{i}") for i in range(6)]
#: objective literals: the atoms plus the classical negation of two of them
OBJECTIVE = [Literal(a) for a in ATOMS] \
    + [Literal(a, positive=False) for a in ATOMS[:2]]


def _body(pos, naf, heads=()):
    body = [literal for literal in pos if literal not in heads]
    body += [literal.negated_naf() for literal in naf]
    return body


@st.composite
def normal_rules(draw):
    """A random propositional normal rule over a small literal pool."""
    head = draw(st.sampled_from(OBJECTIVE))
    pos = draw(st.lists(st.sampled_from(OBJECTIVE), max_size=2, unique=True))
    naf = draw(st.lists(st.sampled_from(OBJECTIVE), max_size=2, unique=True))
    return Rule(head=[head], body=_body(pos, naf, [head]))


@st.composite
def denial_rules(draw):
    """A random denial constraint ``:- body``."""
    pos = draw(st.lists(st.sampled_from(OBJECTIVE), min_size=1, max_size=2,
                        unique=True))
    naf = draw(st.lists(st.sampled_from(OBJECTIVE), max_size=1, unique=True))
    return Rule(head=[], body=_body(pos, naf))


@st.composite
def disjunctive_rules(draw):
    heads = draw(st.lists(st.sampled_from(OBJECTIVE), min_size=1,
                          max_size=3, unique=True))
    pos = draw(st.lists(st.sampled_from(OBJECTIVE), max_size=2, unique=True))
    naf = draw(st.lists(st.sampled_from(OBJECTIVE), max_size=1, unique=True))
    return Rule(head=heads, body=_body(pos, naf, heads))


def with_denials(rules, max_size):
    """Rule lists drawn from ``rules``, followed by up to two denial
    constraints."""
    return st.tuples(st.lists(rules, min_size=1, max_size=max_size),
                     st.lists(denial_rules(), max_size=2)
                     ).map(lambda parts: parts[0] + parts[1])


#: ``p0..p4``, ``-p0`` and ``-p1``: ids 0..4 are atoms, 5 and 6 negations
RAW_LITERALS = OBJECTIVE[:5] + OBJECTIVE[6:]
RAW_IDS = st.integers(min_value=0, max_value=len(RAW_LITERALS) - 1)


@st.composite
def raw_ground_programs(draw):
    """Ground programs built without the grounder: nothing is simplified
    away, so positive loops, tautologies and rules no fact reaches all get
    to the solver.  Empty heads are denial constraints."""
    table = AtomTable()
    for literal in RAW_LITERALS:
        table.add(literal)
    max_head = draw(st.sampled_from([1, 2]))
    rules = draw(st.lists(
        st.builds(GroundRule,
                  st.lists(RAW_IDS, max_size=max_head, unique=True).map(tuple),
                  st.lists(RAW_IDS, max_size=2, unique=True).map(tuple),
                  st.lists(RAW_IDS, max_size=2, unique=True).map(tuple)),
        min_size=1, max_size=7))
    return GroundProgram(table, rules)


def brute_force(ground):
    n = ground.atom_count
    found = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            if is_stable_model(ground, set(subset)):
                found.append(frozenset(subset))
    return sorted(found, key=lambda m: sorted(m))


@settings(max_examples=120, deadline=None)
@given(with_denials(normal_rules(), 7))
def test_normal_solver_matches_brute_force(rules):
    ground = ground_program(Program(rules))
    assert sorted(stable_models(ground), key=lambda m: sorted(m)) == \
        brute_force(ground)


@settings(max_examples=120, deadline=None)
@given(with_denials(disjunctive_rules(), 6))
def test_disjunctive_solver_matches_brute_force(rules):
    ground = ground_program(Program(rules))
    assert sorted(stable_models(ground), key=lambda m: sorted(m)) == \
        brute_force(ground)


@settings(max_examples=200, deadline=None)
@given(raw_ground_programs(), st.booleans())
def test_raw_ground_solver_matches_brute_force(ground, shift_hcf):
    assert sorted(stable_models(ground, shift_hcf=shift_hcf),
                  key=lambda m: sorted(m)) == brute_force(ground)


@settings(max_examples=120, deadline=None)
@given(with_denials(disjunctive_rules(), 6))
def test_every_reported_model_is_stable(rules):
    ground = ground_program(Program(rules))
    for model in stable_models(ground):
        assert is_stable_model(ground, set(model))


@settings(max_examples=120, deadline=None)
@given(with_denials(disjunctive_rules(), 6))
def test_models_are_incomparable(rules):
    """Distinct answer sets of a disjunctive program are
    subset-incomparable — a classic ASP invariant."""
    ground = ground_program(Program(rules))
    models = stable_models(ground)
    for i, first in enumerate(models):
        for second in models[i + 1:]:
            assert not (first < second or second < first)


@settings(max_examples=120, deadline=None)
@given(with_denials(disjunctive_rules(), 6))
def test_shift_preserves_models_on_hcf(rules):
    program = Program(rules)
    if not is_head_cycle_free(program):
        return
    direct = stable_models(ground_program(program), shift_hcf=False)
    shifted = stable_models(ground_program(shift_program(program)))

    def render(ground_models, program_):
        ground = ground_program(program_)
        return sorted(
            sorted(str(ground.table.literal_for(a)) for a in m)
            for m in ground_models)

    assert render(direct, program) == render(shifted,
                                             shift_program(program))


def _loop_program():
    """``p :- q. q :- p. r :- not s. s :- not r.``, built as a ground
    program: the grounder would drop the loop no fact reaches."""
    table = AtomTable()
    p, q, r, s = (table.add(Literal(Atom(name))) for name in "pqrs")
    return GroundProgram(table, [GroundRule((p,), (q,), ()),
                                 GroundRule((q,), (p,), ()),
                                 GroundRule((r,), (), (s,)),
                                 GroundRule((s,), (), (r,))])


def test_positive_loop_is_not_tight():
    assert not ground_tight(_loop_program())


def test_positive_loop_stays_unfounded():
    """``{p, q, r}`` is a supported model but not a stable one."""
    ground = _loop_program()
    assert [sorted(str(ground.table.literal_for(a)) for a in model)
            for model in stable_models(ground)] == [["r"], ["s"]]


def test_conflict_specification_shifts_to_a_tight_program():
    """The program shape of the benchmark's ``asp_search`` (independent
    same-trust EGD conflicts, 2^6 solutions) is tight once shifted, so
    the solver skips the unfounded-set check on it."""
    from repro.core import GavSpecification
    from repro.core.trust import TrustLevel
    from repro.workloads import conflict_chain_system
    system = conflict_chain_system(6, n_clean=50)
    same = [e.constraint for e in system.trusted_decs_of("P1",
                                                         TrustLevel.SAME)]
    spec = GavSpecification(system.global_instance(), same, {"R1", "R3"})
    ground = spec.engine.ground
    assert not ground.is_disjunctive()
    assert ground_tight(ground)
    assert len(spec.answer_sets()) == 64


@st.composite
def stratified_programs(draw):
    """Random non-ground stratified programs: p_{i} may negate only p_{j<i}."""
    lines = ["d(1). d(2). d(3)."]
    n_preds = draw(st.integers(min_value=2, max_value=4))
    lines.append("p0(X) :- d(X), X != 2.")
    for i in range(1, n_preds):
        lower = draw(st.integers(min_value=0, max_value=i - 1))
        polarity = draw(st.booleans())
        if polarity:
            lines.append(f"p{i}(X) :- d(X), p{lower}(X).")
        else:
            lines.append(f"p{i}(X) :- d(X), not p{lower}(X).")
    return parse_program("\n".join(lines))


@settings(max_examples=60, deadline=None)
@given(stratified_programs())
def test_stratified_fast_path_agrees_with_search(program):
    from repro.datalog import answer_sets
    fast = answer_sets(program, use_stratified_fast_path=True)
    slow = answer_sets(program, use_stratified_fast_path=False)
    assert [sorted(str(l) for l in m) for m in fast] == \
        [sorted(str(l) for l in m) for m in slow]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_choice_model_count_is_product_of_domains(n_options_1, n_options_2):
    """choice((X),(W)) must yield exactly prod_i |options(i)| models."""
    lines = ["pick(X, W) :- item(X), opt(X, W), choice((X), (W))."]
    lines.append("item(1). item(2).")
    for w in range(n_options_1):
        lines.append(f"opt(1, w{w}).")
    for w in range(n_options_2):
        lines.append(f"opt(2, v{w}).")
    from repro.datalog import answer_sets
    models = answer_sets(parse_program("\n".join(lines)))
    assert len(models) == n_options_1 * n_options_2
