"""Smoke tests for the benchmark itself: seconds, no processes spawned."""

import json
import re
from pathlib import Path

import pytest

from bench import compare
from bench.metrics import END_TO_END, PER_LAYER
from bench.spans import SpanLog
from bench.workloads import (
    WORKLOADS,
    EvalWorkload,
    conflict_expected,
    import_expected,
    seeded_conflict_system,
)
from repro.workloads import import_star_system

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ops_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]
    first, again, other = (workload.generate(seed).ops
                           for seed in (3, 3, 4))
    assert first == again
    assert first != other
    assert len(first) == len(other)


def test_benchmark_json_names_are_the_ones_run_py_emits():
    listed = [entry["name"] for key in ("workloads", "end_to_end",
                                        "per_layer") for entry in SPEC[key]]
    assert len(listed) == len(set(listed))
    for name in listed:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert SPEC["paths"] == ["bench"]


TINY = [
    EvalWorkload("tiny_asp_search", "", peer="P1", relation="R1",
                 build=lambda seed: seeded_conflict_system(seed, 2, 5),
                 expected=conflict_expected, method="asp",
                 resolves_to="asp", cross_method="rewrite", min_ops=3),
    EvalWorkload("tiny_asp_ground", "", peer="P0", relation="R0",
                 build=lambda seed: import_star_system(30, 2, seed=seed),
                 expected=import_expected, method="asp",
                 resolves_to="asp", cross_method="rewrite", min_ops=3),
    EvalWorkload("tiny_rewrite", "", peer="P0", relation="R0",
                 build=lambda seed: import_star_system(200, 2, seed=seed),
                 expected=import_expected, method="auto",
                 resolves_to="rewrite", cross_method="asp", min_ops=3),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_stage_replay_covers_the_pipeline(workload, tmp_path):
    inputs = workload.open(workload.generate(1), tmp_path)
    spans = SpanLog()
    measured, layer = workload.trace(inputs, 0.3, spans)
    assert measured.failed == 0
    assert set(layer) <= set(PER_LAYER)
    assert layer["core.stage_coverage"] >= 0.9
    assert workload.measure(inputs, 0.0).failed == 0
    # self time never exceeds the span and children never overlap it away
    for span_id, own in spans.self_times().items():
        assert -1e-9 <= own <= spans.spans[span_id].duration + 1e-9


def _record(scale: float = 1.0) -> dict:
    metrics = {name: {"value": 10.0, "unit": unit}
               for name, unit in END_TO_END.items()}
    metrics["answer_p50_ms"]["value"] *= scale
    return {"workloads": {name: {"end_to_end": {"metrics": metrics}}
                          for name in WORKLOADS}}


def test_compare_same_and_worse(tmp_path, capsys):
    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_record()))
    slow.write_text(json.dumps(_record(1.3)))
    assert compare.main([str(base), str(base)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.endswith("same") for line in lines) \
        == len(WORKLOADS) * len(END_TO_END)
    assert compare.main([str(base), str(slow)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.endswith("worse") for line in lines) == len(WORKLOADS)
    # the other way round the gap is a third, past the bound: "better"
    slower = tmp_path / "c.json"
    slower.write_text(json.dumps(_record(1.5)))
    assert compare.main([str(slower), str(base)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.endswith("better") for line in lines) == len(WORKLOADS)
