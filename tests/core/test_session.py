"""Unit tests for :class:`PeerQuerySession`: caching, invalidation,
batching, explain, and the rich :class:`QueryResult`."""

import pytest

from repro.core import (
    P2PError,
    PeerQuerySession,
    QueryRequest,
    QueryResult,
    UnknownMethodError,
)
from repro.core.explain import AnswerExplanation
from repro.relational import parse_query
from repro.workloads import example1_query, example1_system

EXPECTED = {("a", "b"), ("c", "d"), ("a", "e")}


class TestAnswer:
    def test_query_result_fields(self):
        session = PeerQuerySession(example1_system())
        result = session.answer("P1", example1_query(), method="asp")
        assert isinstance(result, QueryResult)
        assert result.peer == "P1"
        assert result.answers == EXPECTED
        assert result.semantics == "certain"
        assert result.method_requested == "asp"
        assert result.method_used == "asp"
        assert result.solution_count == 2
        assert not result.no_solutions
        assert result.elapsed >= 0.0
        assert result.exchange.requests == 2  # R2 from P2, R3 from P3
        assert result.exchange.tuples_transferred == 4

    def test_textual_queries_accepted(self):
        session = PeerQuerySession(example1_system())
        result = session.answer("P1", "q(X, Y) := R1(X, Y)",
                                method="asp")
        assert result.answers == EXPECTED

    def test_result_container_protocol(self):
        session = PeerQuerySession(example1_system())
        result = session.answer("P1", example1_query(), method="asp")
        assert list(result) == sorted(EXPECTED)
        assert ("a", "b") in result
        assert len(result) == 3

    def test_to_dict_round_trips_to_json(self):
        import json
        session = PeerQuerySession(example1_system())
        result = session.answer("P1", example1_query(), method="rewrite")
        data = json.loads(json.dumps(result.to_dict()))
        assert data["solution_count"] is None
        assert data["method_used"] == "rewrite"
        assert sorted(map(tuple, data["answers"])) == sorted(EXPECTED)

    def test_unknown_default_method_fails_fast(self):
        with pytest.raises(UnknownMethodError):
            PeerQuerySession(example1_system(), default_method="quantum")

    def test_unknown_peer_rejected(self):
        session = PeerQuerySession(example1_system())
        with pytest.raises(P2PError):
            session.answer("P9", example1_query())

    def test_bad_semantics_rejected(self):
        with pytest.raises(P2PError):
            QueryRequest("P1", "q(X, Y) := R1(X, Y)",
                         semantics="sideways")


class TestCaching:
    def test_solutions_cached_across_queries(self):
        session = PeerQuerySession(example1_system(),
                                   default_method="asp")
        first = session.answer("P1", example1_query())
        second = session.answer("P1", "q(X) := exists Y R1(X, Y)")
        assert not first.from_cache
        assert second.from_cache
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.entries == 1

    def test_methods_cached_independently(self):
        session = PeerQuerySession(example1_system())
        session.answer("P1", example1_query(), method="asp")
        result = session.answer("P1", example1_query(), method="model")
        assert not result.from_cache  # different method, own entry
        assert session.cache_info().entries == 2

    def test_invalidate_clears_entries(self):
        session = PeerQuerySession(example1_system(),
                                   default_method="asp")
        session.answer("P1", example1_query())
        session.invalidate()
        assert session.cache_info().entries == 0
        result = session.answer("P1", example1_query())
        assert not result.from_cache

    def test_cache_invalidated_by_functional_update(self):
        """with_global_instance yields a new version; cached solutions
        for the old data must not be served for the new."""
        system = example1_system()
        session = PeerQuerySession(system, default_method="asp")
        before = session.answer("P1", example1_query())
        assert before.answers == EXPECTED

        # drop P3's data: the conflicts disappear, so P1 keeps its own
        # tuples AND the imports — including (s, t), uncertain before
        from repro.relational.instance import Fact
        updated_global = system.global_instance().without_facts(
            [Fact("R3", ("a", "f")), Fact("R3", ("s", "u"))])
        updated = system.with_global_instance(updated_global)
        assert updated.version() != system.version()

        session.use_system(updated)
        after = session.answer("P1", example1_query())
        assert not after.from_cache
        assert after.answers == EXPECTED | {("s", "t")}

    def test_returned_solutions_safe_to_mutate(self):
        """Regression: the cache hands out copies — clearing the returned
        list must not corrupt later answers."""
        session = PeerQuerySession(example1_system(),
                                   default_method="asp")
        session.solutions("P1").clear()
        result = session.answer("P1", example1_query())
        assert result.answers == EXPECTED
        assert not result.no_solutions

    def test_use_system_prunes_stale_entries(self):
        system = example1_system()
        session = PeerQuerySession(system, default_method="asp")
        session.answer("P1", example1_query())
        assert session.cache_info().entries == 1
        from repro.relational.instance import Fact
        changed = system.with_global_instance(
            system.global_instance().with_facts([Fact("R1", ("z", "z"))]))
        session.use_system(changed)
        assert session.cache_info().entries == 0

    def test_use_system_keeps_entries_for_identical_content(self):
        # versions are content-derived: a no-op swap (same data, maybe a
        # freshly re-built or re-loaded system object) keeps the warm
        # cache instead of recomputing the solutions
        system = example1_system()
        session = PeerQuerySession(system, default_method="asp")
        first = session.answer("P1", example1_query())
        session.use_system(
            system.with_global_instance(system.global_instance()))
        assert session.cache_info().entries == 1
        again = session.answer("P1", example1_query())
        assert again.from_cache
        assert again.answers == first.answers


class TestAnswerMany:
    def test_batch_results_in_order(self):
        session = PeerQuerySession(example1_system(),
                                   default_method="asp")
        results = session.answer_many([
            QueryRequest("P1", "q(X, Y) := R1(X, Y)"),
            QueryRequest("P1", "q(X) := exists Y R1(X, Y)"),
            QueryRequest("P1", "q(X, Y) := R1(X, Y)",
                         semantics="possible"),
        ])
        assert [r.semantics for r in results] == \
            ["certain", "certain", "possible"]
        assert results[0].answers == EXPECTED
        assert results[1].answers == {("a",), ("c",)}
        assert ("s", "t") in results[2].answers

    def test_batch_accepts_bare_tuples(self):
        session = PeerQuerySession(example1_system(),
                                   default_method="asp")
        results = session.answer_many([
            ("P1", "q(X, Y) := R1(X, Y)"),
            ("P1", "q(X, Y) := R1(X, Y)", "model"),
        ])
        assert results[0].answers == results[1].answers == EXPECTED
        assert results[1].method_used == "model"

    def test_batch_shares_one_enumeration(self):
        session = PeerQuerySession(example1_system(),
                                   default_method="asp")
        results = session.answer_many(
            ("P1", "q(X) := exists Y R1(X, Y)") for _ in range(5))
        assert session.cache_info().misses == 1
        assert session.cache_info().hits == 4
        assert all(r.from_cache for r in results[1:])


class TestExplain:
    def test_solutions_with_non_enumerating_default(self):
        """Regression: a session whose default method is 'rewrite' (or
        'auto') must still serve solutions/explain via the general ASP
        fallback instead of crashing."""
        session = PeerQuerySession(example1_system(),
                                   default_method="rewrite")
        assert len(session.solutions("P1")) == 2
        explanation = session.explain("P1", example1_query(),
                                      candidate=("a", "b"))
        assert explanation.status == AnswerExplanation.CERTAIN

    def test_auto_and_asp_share_one_cache_entry(self):
        """Regression: auto's solutions are ASP solutions; they must not
        be enumerated twice under separate cache keys."""
        session = PeerQuerySession(example1_system())
        session.solutions("P1")                  # default "auto"
        session.answer("P1", example1_query(), method="asp")
        info = session.cache_info()
        assert info.entries == 1
        assert info.misses == 1 and info.hits == 1

    def test_explain_single_candidate(self):
        session = PeerQuerySession(example1_system())
        explanation = session.explain("P1", example1_query(),
                                      candidate=("a", "b"))
        assert explanation.status == AnswerExplanation.CERTAIN

    def test_explain_query_reuses_cache(self):
        session = PeerQuerySession(example1_system())
        session.answer("P1", example1_query(), method="auto")
        explanations = session.explain("P1", example1_query())
        statuses = {e.tuple: e.status for e in explanations}
        assert statuses[("a", "b")] == AnswerExplanation.CERTAIN
        assert statuses[("s", "t")] == AnswerExplanation.POSSIBLE
        # the session enumerated solutions at most once for explain
        assert session.cache_info().misses <= 1
