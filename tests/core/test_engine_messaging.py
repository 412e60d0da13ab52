"""Unit tests for the answer methods behind a session and the exchange
log."""

import pytest

from repro.core import (
    ExchangeEvent,
    ExchangeLog,
    P2PError,
    PeerQuerySession,
)
from repro.relational import parse_query
from repro.workloads import example1_system, section31_system

QUERY = parse_query("q(X, Y) := R1(X, Y)")
EXPECTED = {("a", "b"), ("c", "d"), ("a", "e")}


class TestEngineMethods:
    @pytest.mark.parametrize("method", ["model", "asp", "rewrite"])
    def test_methods_agree_on_example1(self, method):
        session = PeerQuerySession(example1_system())
        result = session.answer("P1", QUERY, method=method)
        assert set(result.answers) == EXPECTED

    def test_lav_method_solutions(self):
        session = PeerQuerySession(section31_system())
        assert len(session.solutions("P", method="lav")) == 3

    def test_unknown_method_rejected(self):
        with pytest.raises(P2PError):
            PeerQuerySession(example1_system(), default_method="quantum")

    def test_transitive_rejects_same_trust_systems(self):
        # Section 4.3 is defined for `less`-trusted chains only
        session = PeerQuerySession(example1_system())
        with pytest.raises(P2PError):
            session.answer("P1", QUERY, method="transitive")

    def test_compare_methods(self):
        session = PeerQuerySession(example1_system())
        results = {method: session.answer("P1", QUERY,
                                          method=method).answers
                   for method in ("model", "asp", "rewrite")}
        assert results["model"] == results["asp"] == results["rewrite"] \
            == EXPECTED

    def test_transitive_engine(self):
        from repro.workloads import example4_system
        session = PeerQuerySession(example4_system())
        assert len(session.solutions("P", method="transitive")) == 3

    def test_solutions_model_vs_asp(self):
        session = PeerQuerySession(example1_system())
        assert session.solutions("P1", method="model") \
            == session.solutions("P1", method="asp")


class TestAspExchangeLogging:
    def test_asp_route_logs_neighbour_fetches(self):
        from repro.core import asp_solutions_for_peer
        system = example1_system()
        asp_solutions_for_peer(system, "P1")
        fetched = {(e.provider, e.relation)
                   for e in system.exchange_log.events("P1")}
        assert fetched == {("P2", "R2"), ("P3", "R3")}
        assert all(e.purpose == "asp specification"
                   for e in system.exchange_log.events("P1"))


class TestExchangeLog:
    def test_record_and_query(self):
        log = ExchangeLog()
        log.record("P1", "P2", "R2", 5, purpose="import")
        log.record("P1", "P3", "R3", 2)
        log.record("P2", "P3", "R3", 2)
        assert len(log) == 3
        assert len(log.events("P1")) == 2
        assert log.total_tuples() == 9

    def test_local_reads_skipped(self):
        log = ExchangeLog()
        log.record("P1", "P1", "R1", 10)
        assert len(log) == 0

    def test_clear(self):
        log = ExchangeLog()
        log.record("P1", "P2", "R2", 1)
        log.clear()
        assert len(log) == 0

    def test_event_rendering(self):
        event = ExchangeEvent("P1", "P2", "R2", 5, "import")
        assert "P1 <- P2" in str(event)
        assert "5 tuples" in str(event)
        assert "import" in str(event)

    def test_marks_slice_the_log(self):
        log = ExchangeLog()
        log.record("P1", "P2", "R2", 5)
        mark = log.mark()
        log.record("P1", "P3", "R3", 2, bytes_estimate=20, hop=3)
        events = log.events_since(mark)
        assert [e.relation for e in events] == ["R3"]
        stats = log.stats_since(mark)
        assert stats.requests == 1
        assert stats.tuples_transferred == 2
        assert stats.bytes_estimate == 20
        assert stats.max_hops == 3

    def test_concurrent_appends_are_not_lost(self):
        import threading
        log = ExchangeLog()

        def append(worker):
            for index in range(200):
                log.record(f"P{worker}", "Q", "R", 1)

        threads = [threading.Thread(target=append, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log) == 8 * 200
        assert log.total_tuples() == 8 * 200

    def test_iteration_walks_a_snapshot(self):
        log = ExchangeLog()
        log.record("P1", "P2", "R2", 1)
        for _event in log:  # appending mid-iteration must be safe
            log.record("P1", "P3", "R3", 1)
        assert len(log) == 2


class TestLogWindow:
    """The log keeps only the last ``LOG_WINDOW`` events, so a long-lived
    system stays bounded while each operation's slice stays exact."""

    def test_fresh_sessions_keep_the_log_bounded(self, monkeypatch):
        from repro.core import ExchangeStats, messaging
        from repro.workloads import import_star_system
        monkeypatch.setattr(messaging, "LOG_WINDOW", 64)
        system = import_star_system(50, 3, seed=1)
        # every answer fetches the three neighbours' relations afresh
        per_answer = ExchangeStats(requests=3, tuples_transferred=93,
                                   bytes_estimate=1278, max_hops=1)
        for _ in range(201):
            result = PeerQuerySession(system).answer(
                "P0", "q(X, Y) := R0(X, Y)", method="rewrite")
            assert result.exchange == per_answer
            assert len(system.exchange_log.events()) <= 64
        assert len(system.exchange_log) == 603
        assert system.exchange_log.total_tuples() == 201 * 93

    def test_a_mark_older_than_the_window(self, monkeypatch):
        from repro.core import messaging
        monkeypatch.setattr(messaging, "LOG_WINDOW", 4)
        log = ExchangeLog()
        log.record("P1", "P2", "R2", 1)
        mark = log.mark()
        for index in range(5):
            log.record("P1", "P3", "R3", index)
        assert log.mark() == mark + 5
        # slicing returns what the window holds; counting refuses
        assert [e.tuples_transferred for e in log.events_since(mark)] \
            == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            log.stats_since(mark)
        assert log.stats_since(mark + 1).tuples_transferred == 10


class TestExchangeStatsWiring:
    def test_session_result_carries_real_logged_traffic(self):
        from repro.core import PeerQuerySession, estimate_bytes
        system = example1_system()
        session = PeerQuerySession(system, default_method="asp")
        result = session.answer("P1", QUERY)
        events = system.exchange_log.events("P1")
        assert result.exchange.requests == len(events) > 0
        assert result.exchange.tuples_transferred == \
            sum(e.tuples_transferred for e in events)
        assert result.exchange.bytes_estimate == \
            sum(e.bytes_estimate for e in events) > 0
        assert result.exchange.max_hops == 1

    def test_fetch_relation_estimates_bytes(self):
        from repro.core import estimate_bytes
        system = example1_system()
        tuples = system.fetch_relation("P1", "R2")
        event = system.exchange_log.events("P1")[0]
        assert event.bytes_estimate == estimate_bytes(tuples) > 0

    def test_stats_addition_sums_and_maxes(self):
        from repro.core import ExchangeStats
        combined = ExchangeStats(1, 10, 100, 2) + \
            ExchangeStats(2, 20, 200, 5)
        assert combined == ExchangeStats(3, 30, 300, 5)
