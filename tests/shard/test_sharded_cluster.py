"""Process-level drills: one ``repro serve`` process per peer.

This module once drilled shard/replica clusters.  A peer is now one
process and its only copy, and the drills keep what holds for that
layout: a cluster answers like the local session, also after every
process has been restarted; losing a peer's process is a typed error
in bounded time; a restarted peer rejoins on its old address; and
restarting a running peer is refused.  The example-1 drills share one
cluster, and each drill that kills a process restarts it before it
ends.
"""

import time

import pytest

from repro.core import PeerQuerySession
from repro.wire import ClusterError, ClusterSupervisor, RemoteNetworkSession
from repro.workloads import example1_system, topology_system

QUERIES = ["q(X, Y) := R1(X, Y)", "q(X) := exists Y R1(X, Y)"]


@pytest.fixture(scope="module")
def example1_cluster():
    with ClusterSupervisor(example1_system()) as supervisor:
        yield supervisor


def connect(supervisor):
    return RemoteNetworkSession(supervisor.addresses(), retries=1,
                                request_timeout=10.0,
                                connect_timeout=1.0)


def restart_if_down(supervisor, peer):
    if not supervisor.alive(peer):
        supervisor.restart(peer)


class TestDifferential:
    def test_example1_sharded_replicated(self, example1_cluster):
        local = PeerQuerySession(example1_system())
        with connect(example1_cluster) as session:
            assert session.peers() == ("P1", "P2", "P3")
            for query in QUERIES:
                expected = local.answer("P1", query)
                actual = session.answer("P1", query)
                assert actual.ok, (query, actual.error)
                assert actual.answers == expected.answers
                assert actual.solution_count == expected.solution_count
                assert actual.method_used == expected.method_used

    def test_seeded_system_through_split(self):
        """The layout changes under a live session — every process is
        killed and respawned — and the answers do not."""
        system = topology_system(3, topology="random", n_tuples=3,
                                 conflicts=1, extra_edges=1, seed=4)
        query = "q(X, Y) := R0(X, Y)"
        expected = PeerQuerySession(system).answer("P0", query)
        with ClusterSupervisor(system) as supervisor:
            with connect(supervisor) as session:
                before = session.answer("P0", query)
                assert before.ok, before.error
                for peer in session.peers():
                    supervisor.kill(peer)
                    supervisor.restart(peer)
                after = session.answer("P0", query)
                assert after.ok, after.error
                for actual in (before, after):
                    assert actual.answers == expected.answers
                    assert (actual.solution_count
                            == expected.solution_count)


class TestFaultDrills:
    def test_last_replica_loss_is_typed_and_bounded(self,
                                                    example1_cluster):
        with connect(example1_cluster) as session:
            try:
                example1_cluster.kill("P1")
                start = time.perf_counter()
                result = session.answer("P1", "q(X, Y) := R1(X, Y)")
                wall = time.perf_counter() - start
                assert result.failed
                assert result.error.code == "peer-unreachable"
                assert wall < 60.0  # typed failure, not a hang
            finally:
                restart_if_down(example1_cluster, "P1")

    def test_restart_rejoins_on_old_address(self, example1_cluster):
        query = "q(X, Y) := R2(X, Y)"
        expected = PeerQuerySession(example1_system()).answer("P2", query)
        with connect(example1_cluster) as session:
            old_address = example1_cluster.addresses()["P2"]
            try:
                example1_cluster.kill("P2")
                lost = session.answer("P2", query)
                assert lost.failed  # the peer's only process
                assert example1_cluster.restart("P2") == old_address
            finally:
                restart_if_down(example1_cluster, "P2")
            back = session.answer("P2", query)
            assert back.ok, back.error
            assert back.answers == expected.answers


class TestSupervisorSurface:
    def test_restart_of_running_unit_refuses_typed(self, example1_cluster):
        assert example1_cluster.alive("P1")
        with pytest.raises(ClusterError, match="still running"):
            example1_cluster.restart("P1")
