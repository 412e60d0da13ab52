"""Routed answers over a concurrent transport: identical to local.

This module once checked routing through the shard layer.  With every
peer one node, the check that stays is the differential: a routed
session whose nodes answer concurrently must match the local session
on a cold round and on a warm round that uses the learned routing
state.
"""

import pytest

from repro.core import PeerQuerySession
from repro.net import NetworkSession, ThreadedTransport
from repro.workloads import topology_system

QUERY = "q(X, Y) := R0(X, Y)"


class TestShardedDifferential:
    @pytest.mark.parametrize("seed", range(3))
    def test_routed_sharded_answers_match_local(self, seed):
        system = topology_system(4, topology="random", n_tuples=4,
                                 seed=seed)
        expected = PeerQuerySession(system).answer("P0", QUERY)
        with NetworkSession(system, transport=ThreadedTransport(),
                            routing=True) as session:
            for _repeat in range(2):  # warm round uses learned state
                actual = session.answer("P0", QUERY)
                assert actual.ok, actual.error
                assert actual.answers == expected.answers
                assert actual.solution_count == expected.solution_count
                assert actual.method_used == expected.method_used
