"""Durable peer nodes: kill/reload round-trips and delta sync.

The differential guarantee of the storage layer: a :class:`PeerNode`
reloaded from its data directory returns ``answers``,
``solution_count``, and ``method_used`` identical to a freshly built
node — across the paper workloads and a broad family of seeded
synthetic systems — and an update pushed after a restart syncs by
versioned deltas instead of full re-gathers.
"""

import itertools
import json

import pytest

from repro.core import PeerQuerySession
from repro.net import NetworkSession, ProtocolError
from repro.net.protocol import FetchRelation, Answer
from repro.relational.instance import Fact
from repro.storage import describe_data_dir
from repro.workloads import (
    conflict_chain_system,
    example1_system,
    example4_system,
    import_star_system,
    peer_chain_system,
    referential_system,
    section31_system,
    topology_system,
)

#: 3 topologies x 7 seeds = 21 seeded synthetic systems (>= 20)
SEEDS = range(7)
TOPOLOGIES = ("chain", "star", "random")
SYNTHETIC_CASES = list(itertools.product(TOPOLOGIES, SEEDS))


def triple(result):
    return (result.answers, result.solution_count, result.method_used)


def assert_reload_identical(make_system, peer, queries, tmp_path, *,
                            methods=("auto", "asp"), close=True):
    """Answer, (optionally) close cleanly, reload, compare triples."""
    data_dir = tmp_path / "nodes"
    first = NetworkSession(make_system(), data_dir=data_dir)
    expected = {}
    try:
        for query, method in itertools.product(queries, methods):
            result = first.answer(peer, query, method=method)
            assert result.ok, result.error
            expected[(query, method)] = triple(result)
    finally:
        if close:
            first.close()
        # without close: simulate a kill — the store is write-through,
        # only the fetch-cache/answers flushed at close may be missing

    fresh_system = make_system()
    reloaded = NetworkSession(fresh_system, data_dir=data_dir)
    control = NetworkSession(fresh_system)
    try:
        for (query, method), want in expected.items():
            again = reloaded.answer(peer, query, method=method)
            assert again.ok, again.error
            assert triple(again) == want, (query, method)
            fresh = control.answer(peer, query, method=method)
            assert triple(again) == triple(fresh), (query, method)
            if close:
                # a cleanly closed node reloads its answer cache: the
                # reloaded answer must come from disk, without traffic
                assert again.from_cache
                assert again.exchange.requests == 0
    finally:
        reloaded.close()
        control.close()


class TestPaperWorkloads:
    def test_example1(self, tmp_path):
        assert_reload_identical(
            example1_system, "P1",
            ["q(X, Y) := R1(X, Y)", "q(X) := exists Y R1(X, Y)"],
            tmp_path, methods=("auto", "asp", "model", "rewrite"))

    def test_section31(self, tmp_path):
        assert_reload_identical(
            section31_system, "P",
            ["q(X, Y) := R2(X, Y)"], tmp_path,
            methods=("auto", "asp", "lav"))

    def test_example4_transitive(self, tmp_path):
        assert_reload_identical(
            example4_system, "P", ["q(X, Y) := R2(X, Y)"], tmp_path,
            methods=("auto", "asp", "transitive"))

    def test_conflict_chain(self, tmp_path):
        assert_reload_identical(
            lambda: conflict_chain_system(3, n_clean=2), "P1",
            ["q(X, Y) := R1(X, Y)"], tmp_path,
            methods=("auto", "asp", "model"))

    def test_import_star(self, tmp_path):
        assert_reload_identical(
            lambda: import_star_system(10, n_neighbours=3, conflicts=2,
                                       seed=5),
            "P0", ["q(X, Y) := R0(X, Y)"], tmp_path)

    def test_referential(self, tmp_path):
        assert_reload_identical(
            lambda: referential_system(2, n_witnesses=2, n_satisfied=1),
            "P", ["q(X, Y) := R2(X, Y)"], tmp_path)

    def test_peer_chain(self, tmp_path):
        assert_reload_identical(
            lambda: peer_chain_system(3, n_tuples=2), "P0",
            ["q(X, Y) := T0(X, Y)"], tmp_path,
            methods=("auto", "transitive"))

    def test_kill_without_close_still_identical(self, tmp_path):
        assert_reload_identical(
            example1_system, "P1", ["q(X, Y) := R1(X, Y)"],
            tmp_path, close=False)


class TestSeededSynthetic:
    @pytest.mark.parametrize("topology,seed", SYNTHETIC_CASES)
    def test_seeded_system(self, topology, seed, tmp_path):
        def make():
            return topology_system(4, topology=topology, n_tuples=4,
                                   conflicts=(seed % 2), extra_edges=2,
                                   seed=seed)
        assert_reload_identical(
            make, "P0",
            ["q(X, Y) := R0(X, Y)", "q(X) := exists Y R0(X, Y)"],
            tmp_path)


class TestUpdateAfterRestart:
    QUERY = "q(X, Y) := R0(X, Y)"

    @staticmethod
    def _updated(system):
        return system.with_global_instance(
            system.global_instance().with_facts(
                [Fact("R1", ("k0", "post-restart"))]))

    def test_synced_update_after_reload_matches_local(self, tmp_path):
        system = topology_system(4, topology="star", n_tuples=5, seed=8)
        first = NetworkSession(system, data_dir=tmp_path / "n")
        first.answer("P0", self.QUERY)
        first.close()

        updated = self._updated(topology_system(4, topology="star",
                                                n_tuples=5, seed=8))
        second = NetworkSession(system, data_dir=tmp_path / "n")
        try:
            second.use_system(updated)
            result = second.answer("P0", self.QUERY)
            local = PeerQuerySession(updated).answer("P0", self.QUERY)
            assert result.answers == local.answers
            assert result.solution_count == local.solution_count
        finally:
            second.close()

    def test_post_restart_sync_ships_deltas(self, tmp_path):
        system = topology_system(5, topology="star", n_tuples=20,
                                 seed=8)
        first = NetworkSession(system, data_dir=tmp_path / "n")
        cold = first.answer("P0", self.QUERY)
        first.close()

        updated = self._updated(system)
        second = NetworkSession(system, data_dir=tmp_path / "n")
        try:
            second.use_system(updated)
            mark = second.exchange_log.mark()
            warm = second.answer("P0", self.QUERY)
            assert warm.ok
            events = second.exchange_log.events_since(mark)
            # the persisted fetch cache turned every relation fetch
            # into a delta reply: only the single changed row moved
            fetches = [e for e in events
                       if not e.relation.startswith("@")]
            assert fetches and all("delta" in e.purpose
                                   for e in fetches)
            assert sum(e.tuples_transferred for e in fetches) == 1
            assert warm.exchange.bytes_estimate < \
                cold.exchange.bytes_estimate / 2
        finally:
            second.close()

    def test_in_session_sync_ships_deltas(self, tmp_path):
        system = topology_system(5, topology="star", n_tuples=20,
                                 seed=8)
        session = NetworkSession(system, data_dir=tmp_path / "n")
        try:
            cold = session.answer("P0", self.QUERY)
            session.use_system(self._updated(system))
            warm = session.answer("P0", self.QUERY)
            assert warm.ok
            assert warm.exchange.bytes_estimate < \
                cold.exchange.bytes_estimate / 2
        finally:
            session.close()

    def test_delta_sync_needs_no_durability(self, tmp_path):
        # delta replies are a store feature, not a disk feature: the
        # in-memory backend serves them too
        system = topology_system(5, topology="star", n_tuples=20,
                                 seed=8)
        session = NetworkSession(system)
        try:
            cold = session.answer("P0", self.QUERY)
            session.use_system(self._updated(system))
            warm = session.answer("P0", self.QUERY)
            assert warm.ok
            assert warm.exchange.bytes_estimate < \
                cold.exchange.bytes_estimate / 2
        finally:
            session.close()


class TestFetchProtocol:
    def test_known_version_gets_a_delta_reply(self):
        system = example1_system()
        network = NetworkSession(system).network
        node = network.node("P2")
        full = node.handle(FetchRelation(sender="P1", target="P2",
                                         relation="R2"))
        assert isinstance(full, Answer) and not full.delta
        assert full.version == node.store.version()

        node.update_instance(
            node.instance.with_facts([Fact("R2", ("z", "z"))]),
            "new-system-version")
        reply = node.handle(FetchRelation(sender="P1", target="P2",
                                          relation="R2",
                                          known_version=full.version))
        assert isinstance(reply, Answer) and reply.delta
        assert reply.payload == {"insert": (("z", "z"),), "delete": ()}
        assert reply.version == node.store.version()

    def test_unknown_version_falls_back_to_full(self):
        system = example1_system()
        node = NetworkSession(system).network.node("P2")
        reply = node.handle(FetchRelation(sender="P1", target="P2",
                                          relation="R2",
                                          known_version="never-seen"))
        assert isinstance(reply, Answer) and not reply.delta
        assert set(reply.payload) == {("c", "d"), ("a", "e")}

    def test_delta_reply_without_base_is_a_protocol_error(self):
        system = example1_system()
        node = NetworkSession(system).network.node("P1")
        answer = Answer(sender="P2", target="P1", in_reply_to=1,
                        payload={"insert": (), "delete": ()},
                        version="v", delta=True)
        request = FetchRelation(sender="P1", target="P2", relation="R2",
                                known_version="v0")
        with pytest.raises(ProtocolError):
            node._integrate_fetch(request, None, answer)


class TestDataDirLayout:
    def test_describe_after_a_session(self, tmp_path):
        system = example1_system()
        session = NetworkSession(system, data_dir=tmp_path / "n")
        session.answer("P1", "q(X, Y) := R1(X, Y)")
        session.close()
        described = describe_data_dir(tmp_path / "n")
        assert sorted(described) == ["P1", "P2", "P3"]
        assert described["P1"]["cached_answers"] >= 1
        assert described["P1"]["relations"] == {"R1": 2}
        assert described["P2"]["version"] == \
            session.network.node("P2").store.version()


class TestDivergedDiskState:
    """A restarted node may hold *different* content than the system it
    is constructed from (disk wins).  Its answer cache must never be
    stamped with the definition's version then — that aliased distinct
    data and served stale answers (regression)."""

    QUERY = "q(X, Y) := R0(X, Y)"

    def test_stale_definition_does_not_poison_the_cache(self, tmp_path):
        original = topology_system(4, topology="star", n_tuples=5,
                                   seed=13)
        updated = original.with_global_instance(
            original.global_instance().with_facts(
                [Fact("R0", ("zz", "zz"))]))

        first = NetworkSession(original, data_dir=tmp_path / "n")
        first.answer("P0", self.QUERY)
        first.use_system(updated)   # disk now holds the updated data
        first.answer("P0", self.QUERY)
        first.close()

        # reopen from the STALE definition: disk wins, so answers must
        # reflect the updated content — and must not collide with any
        # cache entry keyed by the stale definition's version
        second = NetworkSession(original, data_dir=tmp_path / "n")
        try:
            result = second.answer("P0", self.QUERY)
            expected = PeerQuerySession(updated).answer("P0", self.QUERY)
            assert result.answers == expected.answers
            assert ("zz", "zz") in result.answers
        finally:
            second.close()

        # reopening from the MATCHING definition serves the cache
        third = NetworkSession(updated, data_dir=tmp_path / "n")
        try:
            warm = third.answer("P0", self.QUERY)
            assert warm.from_cache and warm.exchange.requests == 0
            assert warm.answers == expected.answers
        finally:
            third.close()

    def test_diverged_stamp_is_restart_stable(self, tmp_path):
        original = topology_system(3, topology="chain", n_tuples=4,
                                   seed=13)
        updated = original.with_global_instance(
            original.global_instance().with_facts(
                [Fact("R1", ("q", "q"))]))
        session = NetworkSession(original, data_dir=tmp_path / "n")
        session.use_system(updated)
        session.close()

        one = NetworkSession(original, data_dir=tmp_path / "n")
        two = NetworkSession(original, data_dir=tmp_path / "n")
        try:
            # same disk content + same definition => same derived stamp
            assert one.network.node("P0").version() == \
                two.network.node("P0").version()
            assert one.network.node("P0").version() != \
                original.version()
        finally:
            one.close()
            two.close()


class TestAnswerCacheConfiguration:
    QUERY = "q(X, Y) := R1(X, Y)"

    def test_different_config_does_not_revive_persisted_answers(
            self, tmp_path):
        # include_local_ics changes what an answer key means; a node
        # configured differently must recompute, not revive
        system = example1_system()
        first = NetworkSession(system, data_dir=tmp_path / "n")
        first.answer("P1", self.QUERY)
        first.close()

        other = NetworkSession(system, data_dir=tmp_path / "n",
                               include_local_ics=False)
        try:
            result = other.answer("P1", self.QUERY)
            assert not result.from_cache  # recomputed under the new config
            control = PeerQuerySession(system, include_local_ics=False)
            assert result.answers == \
                control.answer("P1", self.QUERY).answers
        finally:
            other.close()

        # the matching configuration still gets the warm path
        same = NetworkSession(system, data_dir=tmp_path / "n")
        try:
            assert same.answer("P1", self.QUERY).from_cache
        finally:
            same.close()

    def test_entries_naming_an_evaluator_still_revive(self, tmp_path):
        # answer caches written by earlier releases carry an extra
        # "evaluator" field per entry; it must not block the warm path
        system = example1_system()
        first = NetworkSession(system, data_dir=tmp_path / "n")
        expected = first.answer("P1", self.QUERY)
        first.close()
        path = tmp_path / "n" / "P1" / "answers.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["entries"]
        for entry in payload["entries"]:
            entry["evaluator"] = "planner"
        path.write_text(json.dumps(payload), encoding="utf-8")

        reopened = NetworkSession(system, data_dir=tmp_path / "n")
        try:
            result = reopened.answer("P1", self.QUERY)
            assert result.from_cache
            assert result.exchange.requests == 0
            assert len(reopened.exchange_log) == 0  # no message at all
            assert result.answers == expected.answers
        finally:
            reopened.close()
        # re-persisted entries no longer carry the field
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["entries"]
        assert all("evaluator" not in entry
                   for entry in payload["entries"])
