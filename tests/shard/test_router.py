"""Version tokens on a plain peer's fetch path.

This module once checked how the shard router merged slice fetches
under composed ``shards(...)`` version tokens.  A peer now answers a
fetch from its own store, and two of those contracts stay: a requester
holding the peer's current token gets a delta (empty when nothing
changed) stamped at that same version, and a token the peer never
issued — such as a composed token from a sharded deployment — gets the
full relation, never a delta against a base the peer does not have.
"""

from repro.net import NetworkSession
from repro.net.protocol import Answer, FetchRelation
from repro.workloads import example1_system


def p2_node():
    return NetworkSession(example1_system()).network.node("P2")


class TestFetchMerge:
    def test_known_composed_token_fetches_deltas(self):
        node = p2_node()
        full = node.handle(FetchRelation(sender="P1", target="P2",
                                         relation="R2"))
        assert isinstance(full, Answer) and not full.delta
        reply = node.handle(FetchRelation(sender="P1", target="P2",
                                          relation="R2",
                                          known_version=full.version))
        assert isinstance(reply, Answer) and reply.delta
        assert reply.payload == {"insert": (), "delete": ()}
        assert reply.version == full.version == node.store.version()

    def test_pre_split_token_falls_back_to_full_fetch(self):
        node = p2_node()
        reply = node.handle(FetchRelation(
            sender="P1", target="P2", relation="R2",
            known_version="shards(P2#0=old0)"))
        assert isinstance(reply, Answer) and not reply.delta
        assert set(reply.payload) == {("c", "d"), ("a", "e")}
        assert reply.version == node.store.version()
