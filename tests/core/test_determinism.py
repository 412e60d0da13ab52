"""Model and solution order is a function of content alone.

Answer sets and solution lists are ordered without looking at atom ids or
hash-salted iteration order, so two interpreters with different
``PYTHONHASHSEED``s must print them identically, and every answer method
whose solutions coincide must list them in the same order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import PeerQuerySession
from repro.workloads import (
    conflict_chain_system,
    example1_system,
    referential_system,
    section31_system,
)

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: (system factory, peer, the methods whose solutions coincide there)
CASES = {
    "example1": (example1_system, "P1", ("model", "asp")),
    "section31": (section31_system, "P",
                  ("model", "asp", "lav", "transitive")),
    "referential": (lambda: referential_system(2, n_witnesses=3,
                                               n_satisfied=1), "P",
                    ("model", "asp", "lav", "transitive")),
    "conflicts": (lambda: conflict_chain_system(3, n_clean=2), "P1",
                  ("model", "asp")),
}

DUMP = """
from repro.core import GavSpecification, PeerQuerySession
from repro.datalog import AnswerSetEngine, parse_program
from repro.workloads import conflict_chain_system
from tests.core.test_determinism import CASES

for name, (build, peer, methods) in CASES.items():
    session = PeerQuerySession(build())
    for method in methods:
        print(name, method, [str(s) for s in session.solutions(
            peer, method=method)])
system = conflict_chain_system(4, n_clean=3)
spec = GavSpecification(system.global_instance(),
                        [e.constraint for e in system.trusted_decs_of("P1")],
                        {"R1", "R3"})
programs = [spec.program, parse_program(
    "a(1). a(2). a(3). b(X) v c(X) :- a(X). d :- b(1), not c(2).")]
for program in programs:
    for model in AnswerSetEngine(program).answer_sets():
        print(sorted(str(literal) for literal in model))
"""


def _dump(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, str(Path(SRC_DIR).parent), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", DUMP], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120).stdout


def test_order_is_the_same_under_two_hash_seeds():
    first, second = _dump("0"), _dump("1")
    assert first == second
    # one line per (case, method) solution list, then 16 + 8 models
    assert len(first.splitlines()) == 12 + 16 + 8


@pytest.mark.parametrize("name", sorted(CASES))
def test_methods_list_shared_solutions_in_one_order(name):
    build, peer, methods = CASES[name]
    session = PeerQuerySession(build())
    reference = session.solutions(peer, method=methods[0])
    assert len(reference) > 1
    for method in methods[1:]:
        assert session.solutions(peer, method=method) == reference
