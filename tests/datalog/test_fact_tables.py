"""Differential: facts given as tables, facts written as rules, naive.

The grounder takes ground facts as per-predicate tables, handed over by a
caller (a specification's source rows) or lifted out of the program's own
bodyless ground rules.  Either way the answer sets must be the same, and
must equal those of :mod:`.naive`'s full instantiation, which never calls
the grounder.  Compared as sets of rendered literals:

* every program written as a string literal in this package's tests;
* the specifications of the ``asp_search`` and ``asp_ground`` benchmark
  workloads, seeded as the benchmark seeds them: tables against rules at
  full size, and all three routes on smaller systems from the same
  generators (naive instantiation over the Herbrand universe is
  exponential in a rule's variables).
"""

import ast
from pathlib import Path

import pytest

from bench.workloads import seeded_conflict_system
from repro.core import GavSpecification
from repro.datalog import (
    AnswerSetEngine,
    DatalogError,
    Program,
    parse_program,
    unfold_choice,
)
from repro.datalog.graphs import objective_key
from repro.workloads import import_star_system

from .naive import naive_answer_sets


def _program_texts() -> dict[str, str]:
    """``text -> where`` for every string constant of this package's test
    modules that parses as a non-empty program."""
    texts: dict[str, str] = {}
    here = Path(__file__)
    for path in sorted(here.parent.glob("test_*.py")):
        if path == here:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            try:
                program = parse_program(node.value)
            except DatalogError:
                continue
            if len(program):
                texts.setdefault(node.value, f"{path.stem}:{node.lineno}")
    return texts


PROGRAMS = _program_texts()


def _split(program: Program) -> tuple[Program, dict[str, list[tuple]]]:
    """The program's proper rules, and its facts as tables of raw
    values."""
    tables: dict[str, list[tuple]] = {}
    for rule in program.facts:
        literal = rule.head[0]
        tables.setdefault(objective_key(literal), []).append(
            literal.atom.value_tuple())
    return Program(rule for rule in program if not rule.is_fact()), tables


def _rendered(models) -> set[frozenset[str]]:
    return {frozenset(map(str, model)) for model in models}


def test_the_corpus_is_the_package_programs():
    # a guard against the collector silently finding nothing
    assert len(PROGRAMS) >= 80
    assert "a :- not b. b :- not a." in PROGRAMS


@pytest.mark.parametrize("text", sorted(PROGRAMS),
                         ids=[PROGRAMS[text] for text in sorted(PROGRAMS)])
def test_tables_rules_and_naive_agree(text):
    program = unfold_choice(parse_program(text))
    rules, tables = _split(program)
    try:
        as_rules = _rendered(AnswerSetEngine(program).answer_sets())
    except DatalogError as exc:
        # the error-path programs (unsafe, over budget) fail either way
        with pytest.raises(type(exc)):
            AnswerSetEngine(rules, facts=tables).answer_sets()
        return
    as_tables = _rendered(AnswerSetEngine(rules, facts=tables).answer_sets())
    assert as_tables == as_rules
    assert as_rules == {frozenset(model)
                        for model in naive_answer_sets(program)}


def _gav_specification(system, peer: str) -> GavSpecification:
    """The one-stage program ``method="asp"`` builds for ``peer``: its
    `same` DECs, or its `less` ones when it has no `same` DEC."""
    from repro.core.trust import TrustLevel
    same = [e.constraint
            for e in system.trusted_decs_of(peer, TrustLevel.SAME)]
    less = [e.constraint
            for e in system.trusted_decs_of(peer, TrustLevel.LESS)]
    changeable = set(system.peer(peer).schema.names)
    for exchange in system.trusted_decs_of(peer, TrustLevel.SAME):
        changeable |= set(system.peer(exchange.other).schema.names)
    return GavSpecification(system.global_instance(), same or less,
                            changeable)


#: (workload, system builder, peer, seed), at the benchmark's sizes; the seeds
#: are those of the benchmark's first seed, one per system variant
BENCH_SPECS = [
    *[("asp_search", lambda seed=seed: seeded_conflict_system(seed), "P1",
       seed) for seed in range(3)],
    *[("asp_ground", lambda seed=seed: import_star_system(250, 3,
                                                          seed=seed),
       "P0", seed) for seed in range(3)],
]

#: the same generators, small enough for naive instantiation
SMALL_SPECS = [
    *[("asp_search", lambda seed=seed: seeded_conflict_system(seed, 2, 3),
       "P1", seed) for seed in range(3)],
    *[("asp_ground", lambda seed=seed: import_star_system(6, 3, seed=seed),
       "P0", seed) for seed in range(3)],
]


@pytest.mark.parametrize("workload,build,peer,seed", BENCH_SPECS,
                         ids=[f"{case[0]}-{case[3]}" for case in BENCH_SPECS])
def test_benchmark_specifications_tables_equal_rules(workload, build, peer,
                                                     seed):
    spec = _gav_specification(build(), peer)
    as_tables = _rendered(spec.answer_sets())
    assert as_tables == _rendered(AnswerSetEngine(spec.program).answer_sets())
    assert len(as_tables) == (64 if workload == "asp_search" else 1)


@pytest.mark.parametrize("workload,build,peer,seed", SMALL_SPECS,
                         ids=[f"{case[0]}-{case[3]}" for case in SMALL_SPECS])
def test_small_specifications_agree_with_naive(workload, build, peer, seed):
    spec = _gav_specification(build(), peer)
    as_tables = _rendered(spec.answer_sets())
    assert as_tables == _rendered(AnswerSetEngine(spec.program).answer_sets())
    assert as_tables == {frozenset(model)
                         for model in naive_answer_sets(spec.program)}


def test_tables_are_copied_never_kept():
    """The possible set is mutated while grounding, so a caller's table
    (an instance's rows, whose indexes other threads may share) must
    come out untouched and unshared."""
    rows = {("a",)}
    engine = AnswerSetEngine(parse_program("p(X) :- q(X)."),
                             facts={"p": rows, "q": [("b",)]})
    ground = engine.ground
    assert set(ground.facts["p"]) == {("a",), ("b",)}
    assert rows == {("a",)}
    assert ground.facts["p"].rows is not rows


def test_specification_tables_do_not_alias_the_instance():
    system = import_star_system(6, 3, seed=0)
    spec = _gav_specification(system, "P0")
    instance = spec.instance
    indexes = {relation: instance.index(relation)
               for relation in instance.relations()}
    ground = spec.engine.ground
    held = {id(relation) for relation in ground.facts.values()}
    held |= {id(relation.rows) for relation in ground.facts.values()}
    assert not held & {id(index) for index in indexes.values()}
    assert not held & {id(instance.tuples(relation))
                       for relation in instance.relations()}
    assert all(instance.index(relation) is index
               for relation, index in indexes.items())
