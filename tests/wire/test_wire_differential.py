"""The wire differential harness: live processes ≡ local session.

The correctness contract of the cross-process runtime is the same as
the in-process network's, one level harder: running every peer as a
real OS process — serialization, sockets, independent interpreters —
changes the *execution*, never the *answers*.  Every paper workload and
a seeded family of ≥20 synthetic systems must come back tuple-for-tuple
identical to :class:`~repro.core.session.PeerQuerySession`: same
answers, same ``solution_count``, same resolved ``method_used``.

Fault drills ride along: killing a peer process mid-run must surface a
typed ``QueryResult.error`` (no hang, no traceback), and a ``data_dir``
cluster restarted from disk must re-answer identically while re-syncing
by versioned deltas instead of full relations.
"""

import itertools
import time

import pytest

from repro.core import PeerQuerySession
from repro.relational.instance import Fact
from repro.wire import ClusterSupervisor, RemoteNetworkSession, open_wire_session
from repro.workloads import (
    conflict_chain_system,
    example1_system,
    example4_system,
    peer_chain_system,
    referential_system,
    section31_system,
    topology_system,
)

#: 3 topologies x 7 seeds = 21 seeded synthetic systems (>= 20)
SEEDS = range(7)
TOPOLOGIES = ("chain", "star", "random")
SYNTHETIC_CASES = list(itertools.product(TOPOLOGIES, SEEDS))


def assert_wire_equivalent(system, peer, queries, *,
                           methods=("auto",), semantics=("certain",)):
    local = PeerQuerySession(system)
    with open_wire_session(system) as session:
        for query, method, kind in itertools.product(
                queries, methods, semantics):
            expected = local.answer(peer, query, method=method,
                                    semantics=kind)
            actual = session.answer(peer, query, method=method,
                                    semantics=kind)
            assert actual.ok, (query, method, kind, actual.error)
            assert actual.answers == expected.answers, \
                (query, method, kind)
            assert actual.solution_count == expected.solution_count, \
                (query, method, kind)
            assert actual.method_used == expected.method_used, \
                (query, method, kind)


class TestPaperWorkloads:
    def test_example1(self):
        assert_wire_equivalent(
            example1_system(), "P1",
            ["q(X, Y) := R1(X, Y)", "q(X) := exists Y R1(X, Y)"],
            methods=("auto", "asp", "model", "rewrite"),
        )

    def test_example1_possible_semantics(self):
        assert_wire_equivalent(
            example1_system(), "P1", ["q(X, Y) := R1(X, Y)"],
            methods=("asp", "model"),
            semantics=("certain", "possible"),
        )

    def test_section31(self):
        assert_wire_equivalent(
            section31_system(), "P",
            ["q(X, Y) := R2(X, Y)", "q(X, Y) := R1(X, Y)"],
            methods=("auto", "asp", "lav"),
        )

    def test_example4_direct_and_transitive(self):
        assert_wire_equivalent(
            example4_system(), "P", ["q(X, Y) := R2(X, Y)"],
            methods=("auto", "asp", "transitive"),
        )

    def test_conflict_chain(self):
        assert_wire_equivalent(
            conflict_chain_system(3, n_clean=2), "P1",
            ["q(X, Y) := R1(X, Y)"],
            methods=("auto", "asp"),
            semantics=("certain", "possible"),
        )

    def test_referential(self):
        assert_wire_equivalent(
            referential_system(2, n_witnesses=2, n_satisfied=1), "P",
            ["q(X, Y) := R2(X, Y)"],
        )

    def test_peer_chain_transitive(self):
        assert_wire_equivalent(
            peer_chain_system(3, n_tuples=2), "P0",
            ["q(X, Y) := T0(X, Y)"],
            methods=("auto", "transitive"),
        )


class TestSeededSynthetic:
    @pytest.mark.parametrize("topology,seed", SYNTHETIC_CASES)
    def test_seeded_system(self, topology, seed):
        system = topology_system(3, topology=topology, n_tuples=3,
                                 conflicts=(seed % 2), extra_edges=1,
                                 seed=seed)
        assert_wire_equivalent(
            system, "P0",
            ["q(X, Y) := R0(X, Y)", "q(X) := exists Y R0(X, Y)"],
        )


class TestNonRootPeers:
    def test_every_peer_of_example1(self):
        system = example1_system()
        local = PeerQuerySession(system)
        with open_wire_session(system) as session:
            # the session reaches every peer under its own name
            assert session.peers() == ("P1", "P2", "P3")
            for peer, relation in (("P1", "R1"), ("P2", "R2"),
                                   ("P3", "R3")):
                query = f"q(X, Y) := {relation}(X, Y)"
                assert session.answer(peer, query).answers == \
                    local.answer(peer, query).answers


class TestKilledPeerProcesses:
    """Killing a process mid-run: typed error, bounded time, no hang."""

    def test_killed_neighbour_yields_typed_error(self):
        system = topology_system(4, topology="star", n_tuples=4,
                                 seed=13)
        with ClusterSupervisor(system) as supervisor:
            session = RemoteNetworkSession(
                supervisor.addresses(), retries=1, timeout=30.0,
                request_timeout=10.0, connect_timeout=1.0)
            try:
                supervisor.kill("P2")  # a leaf the root must gather
                start = time.perf_counter()
                result = session.answer("P0", "q(X, Y) := R0(X, Y)")
                wall = time.perf_counter() - start
                assert result.failed
                assert result.error.code in ("peer-unreachable",
                                             "network")
                assert wall < 60.0  # typed failure, not a hang
            finally:
                session.close()

    def test_killed_root_yields_typed_error(self):
        system = topology_system(3, topology="chain", n_tuples=3,
                                 seed=5)
        with ClusterSupervisor(system) as supervisor:
            session = RemoteNetworkSession(
                supervisor.addresses(), retries=1, timeout=30.0,
                request_timeout=10.0, connect_timeout=1.0)
            try:
                first = session.answer("P0", "q(X, Y) := R0(X, Y)")
                assert first.ok, first.error
                supervisor.kill("P0")
                start = time.perf_counter()
                result = session.answer("P0", "q(X, Y) := R0(X, Y)")
                wall = time.perf_counter() - start
                assert result.failed
                assert result.error.code == "peer-unreachable"
                assert wall < 60.0
            finally:
                session.close()


class TestDurableClusterRestart:
    def test_restart_reanswers_identically_with_delta_sync(self, tmp_path):
        query = "q(X, Y) := R0(X, Y)"
        base = topology_system(4, topology="star", n_tuples=12, seed=11)
        updated = base.with_global_instance(
            base.global_instance().with_facts(
                [Fact("R1", ("k0", "freshly-synced"))]))

        with open_wire_session(base, data_dir=tmp_path) as session:
            cold = session.answer("P0", query)
            assert cold.ok, cold.error
        # graceful stop (SIGTERM): servers flushed caches + fetch state

        with open_wire_session(updated, data_dir=tmp_path) as session:
            warm = session.answer("P0", query)
            assert warm.ok, warm.error
        with open_wire_session(updated) as session:
            full = session.answer("P0", query)
            assert full.ok, full.error

        local = PeerQuerySession(updated).answer("P0", query)
        assert warm.answers == local.answers
        assert warm.solution_count == local.solution_count
        assert warm.method_used == local.method_used
        # the restarted gather named known versions and got deltas back:
        # it must move measurably fewer (exact) wire bytes than the
        # cache-less full re-gather of the same updated system
        assert warm.exchange.bytes_estimate < \
            0.8 * full.exchange.bytes_estimate

    def test_pure_warm_restart_answers_from_disk(self, tmp_path):
        query = "q(X, Y) := R0(X, Y)"
        system = topology_system(3, topology="chain", n_tuples=4,
                                 seed=3)
        with open_wire_session(system, data_dir=tmp_path) as session:
            cold = session.answer("P0", query)
            assert cold.ok
        with open_wire_session(system, data_dir=tmp_path) as session:
            warm = session.answer("P0", query)
            assert warm.ok
            assert warm.from_cache
            assert warm.exchange.requests == 0
            assert (warm.answers, warm.solution_count,
                    warm.method_used) == (cold.answers,
                                          cold.solution_count,
                                          cold.method_used)
