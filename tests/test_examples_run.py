"""Smoke tests: every bundled example must run and print its key
findings (keeps `examples/` from rotting)."""

import importlib.util
import os

import pytest

BASE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_main(name):
    path = os.path.join(BASE, "examples", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"examples_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


EXAMPLE_EXPECTATIONS = {
    "quickstart": ["Solutions for P1", "method=rewrite",
                   "method=auto", "('c', 'd')"],
    "referential_exchange": ["stable models: 4",
                             "GAV solutions == LAV solutions == "
                             "Definition 4: True",
                             "answers agree with asp: True"],
    "transitive_network": ["global solutions for P",
                           "transitive PCAs at P0"],
    "trading_network": ["certified catalog",
                        "('rug', 99)"],
    "json_network": ["Possible (brave) answers",
                     "python -m repro query"],
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_EXPECTATIONS))
def test_example_runs(name, capsys):
    _run_main(name)
    out = capsys.readouterr().out
    for needle in EXAMPLE_EXPECTATIONS[name]:
        assert needle in out, (name, needle)
