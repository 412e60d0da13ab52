"""The deployment differential: a routed, concurrent network ≡ local.

This module once swept shard/replica layouts.  With the shard layer
gone every peer is one node, and what its contract keeps is the
invariance itself: how the peers are deployed changes the *execution*,
never the *answers*.  Each case here runs the deployment furthest from
a plain loopback — nodes answering concurrently over the threaded
transport, with the query-driven routing index on — for a cold and a
warm round, and must come back tuple-for-tuple identical to
:class:`~repro.core.session.PeerQuerySession` on the same paper
workloads, methods and seeded synthetic family the shard sweep used.
A peer that is down when it must be gathered fails the query as a
typed error in bounded time, and is answered again once it is back.
"""

import itertools
import time

import pytest

from repro.core import PeerQuerySession
from repro.net import NetworkSession, ThreadedTransport
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


def routed_session(system, *, retries=2, timeout=1.0):
    return NetworkSession(system, transport=ThreadedTransport(
        timeout=timeout), retries=retries, routing=True)


def assert_deployment_equivalent(system, peer, queries, *,
                                 methods=("auto",),
                                 semantics=("certain",)):
    local = PeerQuerySession(system)
    with routed_session(system) as session:
        for phase in ("cold", "warm"):
            for query, method, kind in itertools.product(
                    queries, methods, semantics):
                expected = local.answer(peer, query, method=method,
                                        semantics=kind)
                actual = session.answer(peer, query, method=method,
                                        semantics=kind)
                case = (phase, query, method, kind)
                assert actual.ok, (case, actual.error)
                assert actual.answers == expected.answers, case
                assert (actual.solution_count
                        == expected.solution_count), case
                assert actual.method_used == expected.method_used, case


class TestPaperWorkloads:
    def test_example1(self):
        assert_deployment_equivalent(
            example1_system(), "P1",
            ["q(X, Y) := R1(X, Y)", "q(X) := exists Y R1(X, Y)"],
            methods=("auto", "asp", "model", "rewrite"),
        )

    def test_example1_possible_semantics(self):
        assert_deployment_equivalent(
            example1_system(), "P1", ["q(X, Y) := R1(X, Y)"],
            methods=("asp", "model"),
            semantics=("certain", "possible"),
        )

    def test_section31(self):
        assert_deployment_equivalent(
            section31_system(), "P",
            ["q(X, Y) := R2(X, Y)", "q(X, Y) := R1(X, Y)"],
            methods=("auto", "asp", "lav"),
        )

    def test_example4_direct_and_transitive(self):
        assert_deployment_equivalent(
            example4_system(), "P", ["q(X, Y) := R2(X, Y)"],
            methods=("auto", "asp", "transitive"),
        )

    def test_conflict_chain(self):
        assert_deployment_equivalent(
            conflict_chain_system(3, n_clean=2), "P1",
            ["q(X, Y) := R1(X, Y)"],
            methods=("auto", "asp"),
            semantics=("certain", "possible"),
        )

    def test_referential(self):
        assert_deployment_equivalent(
            referential_system(2, n_witnesses=2, n_satisfied=1), "P",
            ["q(X, Y) := R2(X, Y)"],
        )

    def test_peer_chain_transitive(self):
        assert_deployment_equivalent(
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
        assert_deployment_equivalent(
            system, "P0",
            ["q(X, Y) := R0(X, Y)", "q(X) := exists Y R0(X, Y)"],
        )


class TestReplicaLoss:
    """A peer is its only copy: losing it is typed, reviving it heals."""

    def test_last_replica_loss_is_typed_and_bounded(self):
        system = topology_system(3, topology="star", n_tuples=3, seed=2)
        query = "q(X, Y) := R0(X, Y)"
        with routed_session(system, retries=1) as session:
            session.network.transport.set_down("P1")
            start = time.perf_counter()
            result = session.answer("P0", query)
            wall = time.perf_counter() - start
            assert result.failed
            assert result.error.code == "peer-unreachable"
            assert wall < 60.0  # typed failure, not a hang

    def test_revived_replica_is_rediscovered(self):
        system = topology_system(2, topology="chain", n_tuples=3, seed=6)
        query = "q(X, Y) := R0(X, Y)"
        expected = PeerQuerySession(system).answer("P0", query)
        with routed_session(system, retries=1) as session:
            session.network.transport.set_down("P1")
            lost = session.answer("P0", query)
            assert lost.failed
            session.network.transport.set_up("P1")
            back = session.answer("P0", query)
            assert back.ok, back.error
            assert back.answers == expected.answers
            assert back.solution_count == expected.solution_count
