"""Unit tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.core import dump_system
from repro.workloads import example1_system


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "net.json"
    dump_system(example1_system(), str(path))
    return str(path)


class TestQueryCommand:
    def test_certain_answers(self, system_file, capsys):
        code = main(["query", system_file, "P1", "q(X, Y) := R1(X, Y)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "a, b" in out and "c, d" in out and "a, e" in out
        assert "s, t" not in out

    def test_brave_answers(self, system_file, capsys):
        code = main(["query", system_file, "P1", "q(X, Y) := R1(X, Y)",
                     "--brave"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s, t" in out

    def test_method_selection(self, system_file, capsys):
        for method in ("model", "rewrite"):
            code = main(["query", system_file, "P1",
                         "q(X, Y) := R1(X, Y)", "--method", method])
            assert code == 0
            assert "a, e" in capsys.readouterr().out

    def test_empty_answers_reported(self, system_file, capsys):
        code = main(["query", system_file, "P1",
                     "q(X, Y) := R1(zzz, Y) & R1(X, Y)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(none)" in out

    def test_no_solutions_exit_code(self, tmp_path, capsys):
        data = {
            "peers": {
                "P1": {"schema": {"A": 2}},
                "P2": {"schema": {"B": 2},
                       "instance": {"B": [["c", "d"]]}},
            },
            "exchanges": [
                {"owner": "P1", "other": "P2",
                 "constraint": {"type": "inclusion", "child": "B",
                                "parent": "A", "child_arity": 2,
                                "parent_arity": 2}},
                {"owner": "P1", "other": "P2",
                 "constraint": {"type": "denial",
                                "antecedent": ["A(X, Y)", "B(X, Y)"]}},
            ],
            "trust": [["P1", "less", "P2"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["query", str(path), "P1", "q(X, Y) := A(X, Y)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NO solutions" in out


class TestNetworkCommand:
    EXPECTED = ("a, b", "c, d", "a, e")

    def test_answers_and_exchange_trace(self, system_file, capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)"])
        out = capsys.readouterr().out
        assert code == 0
        for row in self.EXPECTED:
            assert row in out
        assert "exchange trace" in out
        assert "P1 <- P2" in out and "P1 <- P3" in out

    def test_network_command_matches_local_query(self, system_file,
                                                 capsys):
        main(["query", system_file, "P1", "q(X, Y) := R1(X, Y)"])
        local_out = capsys.readouterr().out
        code = main(["network", system_file, "P1", "q(X, Y) := R1(X, Y)"])
        network_out = capsys.readouterr().out
        assert code == 0
        for row in self.EXPECTED:
            assert row in local_out and row in network_out

    def test_latency_and_json(self, system_file, capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--latency", "1",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["answers"]) == [["a", "b"], ["a", "e"],
                                              ["c", "d"]]
        assert payload["error"] is None
        assert payload["exchange_requests"] > 0

    def test_json_includes_exchange_trace(self, system_file, capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)  # the trace lives INSIDE the document
        trace = payload["exchange_trace"]
        assert trace, "a cold gather must record exchanges"
        providers = {event["provider"] for event in trace}
        assert {"P2", "P3"} <= providers
        for event in trace:
            assert set(event) == {"requester", "provider", "relation",
                                  "tuples", "bytes_estimate", "purpose",
                                  "hop", "timestamp"}
            assert event["timestamp"] > 0.0

    def test_routing_flag_same_answers_and_counters(self, system_file,
                                                    capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--routing", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["answers"]) == [["a", "b"], ["a", "e"],
                                              ["c", "d"]]
        assert payload["exchange_neighbours_pruned"] >= 0
        assert payload["exchange_subtrees_pruned"] >= 0
        assert payload["exchange_neighbours_contacted"] > 0
        # the generated negative form is accepted too
        assert main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--no-routing"]) == 0
        capsys.readouterr()

    def test_network_routing_flag_text_output(self, system_file, capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--routing"])
        out = capsys.readouterr().out
        assert code == 0
        for row in self.EXPECTED:
            assert row in out

    def test_routing_without_network_backend_is_rejected(
            self, system_file, capsys):
        # `query` is local only: the network knobs live on `network`
        for flag in ("--routing", "--tracing", "--network"):
            with pytest.raises(SystemExit) as exited:
                main(["query", system_file, "P1", "q(X, Y) := R1(X, Y)",
                      flag])
            assert exited.value.code != 0
        capsys.readouterr()

    def test_tracing_renders_span_tree(self, system_file, capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--tracing"])
        out = capsys.readouterr().out
        assert code == 0
        for row in self.EXPECTED:
            assert row in out
        assert "exchange trace" in out
        assert "span(s), depth" in out and "* = critical path" in out
        assert "answer@P1" in out and "gather@P1" in out
        assert "serve:gather@P2" in out and "serve:gather@P3" in out
        assert "critical path: answer@P1 -> " in out
        assert "timings: " in out and "gather_s=" in out

    def test_tracing_json_embeds_spans_and_exchange_trace(self,
                                                          system_file,
                                                          capsys):
        code = main(["network", system_file, "P1",
                     "q(X, Y) := R1(X, Y)", "--tracing", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"], "a traced answer must carry its spans"
        assert {"answer", "gather", "eval"} <= {
            span["name"] for span in payload["trace"]}
        assert payload["exchange_trace"]
        assert set(payload["timings"]) >= {"gather_s", "eval_s",
                                           "total_s"}

    def test_insufficient_hop_budget_exit_3(self, tmp_path, capsys):
        from repro.workloads import topology_system
        path = tmp_path / "chain.json"
        dump_system(topology_system(4, topology="chain", n_tuples=2,
                                    seed=0), str(path))
        code = main(["network", str(path), "P0",
                     "q(X, Y) := R0(X, Y)", "--hops", "1"])
        out = capsys.readouterr().out
        assert code == 3
        assert "hop-budget-exhausted" in out


class TestSolutionsCommand:
    def test_direct(self, system_file, capsys):
        code = main(["solutions", system_file, "P1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 direct solution(s)" in out

    def test_transitive(self, tmp_path, capsys):
        from repro.workloads import example4_system
        path = tmp_path / "ex4.json"
        dump_system(example4_system(), str(path))
        code = main(["solutions", str(path), "P", "--transitive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 global solution(s)" in out


class TestReportAndExamples:
    def test_examples_run(self, capsys):
        code = main(["examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Solutions for P1" in out
        assert "certified catalog" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "x.json", "P", "q() := true",
                 "--method", "quantum"])
