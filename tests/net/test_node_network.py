"""Unit tests for PeerNode serving and PeerNetwork routing."""

import pytest

from repro.core import PeerQuerySession
from repro.net import (
    Answer,
    Failure,
    FetchRelation,
    LoopbackTransport,
    NetworkSession,
    PeerNetwork,
    PeerQuery,
    ProtocolError,
)
from repro.workloads import example1_system, example4_system, \
    topology_system

QUERY = "q(X, Y) := R1(X, Y)"


def network_for(system, **kwargs):
    return PeerNetwork.from_system(system, **kwargs)


class TestNodeServing:
    def test_fetch_own_relation(self):
        network = network_for(example1_system())
        node = network.node("P2")
        reply = node.handle(FetchRelation(sender="P1", target="P2",
                                          relation="R2"))
        assert isinstance(reply, Answer)
        assert set(reply.payload) == {("c", "d"), ("a", "e")}

    def test_fetch_foreign_relation_is_a_typed_failure(self):
        network = network_for(example1_system())
        reply = network.node("P2").handle(
            FetchRelation(sender="P1", target="P2", relation="R1"))
        assert isinstance(reply, Failure)
        assert reply.code == "unknown-relation"

    def test_unknown_peer_query_kind_rejected(self):
        network = network_for(example1_system())
        reply = network.node("P2").handle(
            PeerQuery(sender="P1", target="P2", kind="teleport"))
        assert isinstance(reply, Failure)
        assert reply.code == "unsupported-message"

    def test_nodes_hold_only_their_own_slice(self):
        system = example4_system()
        network = network_for(system)
        assert network.node("P").neighbours() == ("Q",)
        assert network.node("Q").neighbours() == ("C",)
        assert network.node("C").neighbours() == ()
        assert set(network.node("Q").peer.schema.names) == {"S1", "S2"}


class TestGatheredView:
    def test_view_covers_the_accessible_subnetwork(self):
        system = example4_system()
        network = network_for(system)
        view = network.node("P").local_view()
        assert sorted(view.peers) == ["C", "P", "Q"]
        # instances match the source system peer by peer
        for name in view.peers:
            assert view.instances[name].relations() == \
                system.instances[name].relations()
            for relation in view.instances[name].relations():
                assert view.instances[name].tuples(relation) == \
                    system.instances[name].tuples(relation)

    def test_view_sees_only_reachable_peers(self):
        system = example4_system()
        network = network_for(system)
        view = network.node("C").local_view()
        assert sorted(view.peers) == ["C"]

    def test_view_keeps_decs_and_trust(self):
        system = example1_system()
        view = network_for(system).node("P1").local_view()
        assert len(view.exchanges) == len(system.exchanges)
        assert len(view.trust) == len(system.trust)


class TestNetworkRouting:
    def test_topology_reflects_the_decs(self):
        network = network_for(example4_system())
        assert network.topology() == {"P": ("Q",), "Q": ("C",),
                                      "C": ()}

    def test_answers_are_cached_per_version(self):
        network = network_for(example1_system())
        session = NetworkSession(network)
        first = session.answer("P1", QUERY)
        second = session.answer("P1", QUERY)
        assert not first.from_cache and second.from_cache
        assert first.answers == second.answers
        assert first.exchange.requests > 0
        assert second.exchange.requests == 0

    @pytest.mark.parametrize("keyword, value", [
        ("transport", LoopbackTransport()),
        ("include_local_ics", False),
        ("hop_budget", 1),
        ("retries", 7),
        ("timeout", 5.0),
        ("data_dir", "nodes"),
        ("snapshot_every", 3),
        ("routing", True),
        ("tracing", True),
    ])
    def test_session_over_a_built_network_rejects_build_keywords(
            self, keyword, value):
        # the network is already built: a build-time keyword would be
        # silently ignored, so it must fail loudly instead
        from repro.net import NetworkError
        network = network_for(example1_system())
        try:
            with pytest.raises(NetworkError, match=keyword):
                NetworkSession(network, **{keyword: value})
            NetworkSession(network, retries=2, routing=False)  # defaults
        finally:
            network.close()

    def test_sync_invalidates_node_caches(self):
        session = NetworkSession(example1_system())
        before = session.answer("P1", QUERY)
        updated = example1_system(r1=[("a", "b"), ("s", "t"),
                                      ("z", "z")])
        session.use_system(updated)
        after = session.answer("P1", QUERY)
        assert not after.from_cache
        assert after.exchange.requests > 0
        assert ("z", "z") in after.answers
        assert after.answers == \
            PeerQuerySession(updated).answer("P1", QUERY).answers
        assert before.answers != after.answers

    def test_sync_rejects_topology_changes(self):
        from repro.net import NetworkError
        session = NetworkSession(example1_system())
        with pytest.raises(NetworkError):
            session.use_system(topology_system(2, topology="chain"))

    def test_exchange_log_records_real_messages(self):
        session = NetworkSession(example1_system())
        session.answer("P1", QUERY)
        events = session.exchange_log.events()
        fetched = {e.relation for e in events
                   if not e.relation.startswith("@")}
        assert fetched == {"R2", "R3"}
        assert all(e.requester == "P1" for e in events)
        assert all(e.bytes_estimate >= 0 for e in events)

    def test_relayed_data_reports_hop_depth(self):
        session = NetworkSession(
            topology_system(4, topology="chain", n_tuples=3, seed=0))
        result = session.answer("P0", "q(X, Y) := R0(X, Y)")
        assert result.exchange.max_hops == 3  # P3's data relayed twice

    def test_detached_node_cannot_gather(self):
        network = network_for(example1_system())
        node = network.node("P1")
        node.network = None
        with pytest.raises(ProtocolError):
            node.local_view()


class TestOpenSession:
    def test_one_argument_switch(self):
        from repro.net import open_session
        system = example1_system()
        assert isinstance(open_session(system), PeerQuerySession)
        assert isinstance(open_session(system, network=True),
                          NetworkSession)

    def test_network_kwargs_rejected_for_local_backend(self):
        from repro.net import NetworkError, open_session
        with pytest.raises(NetworkError):
            open_session(example1_system(), retries=5)

    def test_network_kwargs_keep_their_message_for_local_backend(self):
        from repro.net import NetworkError, open_session
        with pytest.raises(NetworkError,
                           match="only apply to the network backends"):
            open_session(example1_system(), routing=True)

    @pytest.mark.parametrize("backend, accepted", [
        (False, "include_local_ics"),
        (True, "hop_budget"),
        ("wire", "request_timeout"),
    ])
    @pytest.mark.parametrize("keyword", ["default_methd", "evaluator"])
    def test_keyword_no_backend_takes_is_typed(self, backend, accepted,
                                               keyword):
        # a typo (or the retired evaluator switch) names what the
        # chosen backend does take — never a raw TypeError, and never
        # a spawned process
        from repro.net import NetworkError, open_session
        with pytest.raises(NetworkError, match=accepted) as raised:
            open_session(example1_system(), network=backend,
                         **{keyword: "asp"})
        assert keyword in str(raised.value)
        assert "only apply to the network backends" not in \
            str(raised.value)
