"""The gather's exact traffic, pinned per answer.

The routed differentials assert only ``routed < flooded``, so a change
to how the hop-by-hop gather is organised could move any message or
byte count and still pass them.  This suite replays their schedules
with routing off and on and compares every answer's
:class:`~repro.core.results.ExchangeStats` against a literal table:
``requests``, ``tuples_transferred``, ``bytes_estimate``, ``max_hops``,
``neighbours_pruned``, ``neighbours_contacted`` and
``subtrees_pruned``, in that order.  Answers are checked against the
local session as well, so a pinned count always belongs to a correct
answer.

The counts do not depend on the hash seed; CI runs this file under two.
To re-record after a deliberate traffic change, print
``observed_counts()`` and paste it over ``PINNED``.
"""

import pytest

from repro.core import PeerQuerySession
from repro.net import NetworkSession
from repro.workloads import topology_system

from . import test_routed_differential as routed
from .test_routed_differential import QUERIES, TOPOLOGIES, mutate_leaf

MULTI_ROOT = (("P0", 'q(Y) := R0("p9k1", Y)'),
              ("P1", 'q(Y) := R1("p10k2", Y)'),
              ("P2", 'q(Y) := R2("p13k1", Y)'),
              ("P1", 'q(Y) := R1("p1k0", Y)'))


def schedules():
    """``name -> (system, [(round, peer, query), ...])``: the seeded
    topologies, the scoped tree queries, the multi-root schedule and
    the relay-dedup chain of ``test_routed_differential``.  Round 0
    answers on the initial system; each later round first syncs a
    mutated leaf."""
    cases = {}
    for topology in TOPOLOGIES:
        for seed in (0, 1):
            system = topology_system(5, topology=topology, n_tuples=3,
                                     conflicts=seed % 2, extra_edges=2,
                                     seed=seed)
            cases[f"{topology}-{seed}"] = (system, [
                (round_no, "P0", query)
                for round_no in range(3) for query in QUERIES])
    for seed in range(3):
        system = topology_system(15, topology="tree", n_tuples=3,
                                 seed=seed)
        cases[f"tree-{seed}"] = (system, [
            (round_no, "P0", query) for round_no in range(3)
            for query in routed.TestSubtreePruning.TREE_QUERIES])
    warm = [(0, peer, f"q(X, Y) := R{peer[1:]}(X, Y)")
            for peer in ("P0", "P1", "P2")]
    cases["multi-root"] = (
        topology_system(15, topology="tree", n_tuples=3, seed=0),
        warm + [(round_no, peer, query) for round_no in (1, 2)
                for peer, query in MULTI_ROOT])
    cases["relay-dedup"] = (
        topology_system(6, topology="chain", n_tuples=4, seed=9),
        [(round_no, "P0", QUERIES[0]) for round_no in range(4)])
    return cases


def run_schedule(system, steps, routing):
    """Answer ``steps`` on one session; the counts of every answer."""
    rows = []
    current, synced = system, 0
    with NetworkSession(system, routing=routing) as session:
        for round_no, peer, query in steps:
            while synced < round_no:
                synced += 1
                current = mutate_leaf(current, synced)
                session.use_system(current)
            result = session.answer(peer, query)
            assert result.ok, (routing, round_no, peer, query,
                               result.error)
            expected = PeerQuerySession(current).answer(peer, query)
            assert result.answers == expected.answers, (peer, query)
            stats = result.exchange
            rows.append((stats.requests, stats.tuples_transferred,
                         stats.bytes_estimate, stats.max_hops,
                         stats.neighbours_pruned,
                         stats.neighbours_contacted,
                         stats.subtrees_pruned))
    return tuple(rows)


def observed_counts():
    return {(name, routing): run_schedule(system, steps, routing)
            for name, (system, steps) in schedules().items()
            for routing in (False, True)}


PINNED = {
    ('chain-0', False): (
        (8, 12, 144, 4, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (8, 1, 78, 4, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (8, 1, 78, 4, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('chain-0', True): (
        (8, 12, 1536, 4, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (4, 1, 262, 4, 4, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (4, 1, 262, 4, 4, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('chain-1', False): (
        (10, 13, 154, 4, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (10, 1, 94, 4, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (10, 1, 94, 4, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('chain-1', True): (
        (10, 13, 1894, 4, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (5, 1, 278, 4, 8, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (5, 1, 278, 4, 8, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('multi-root', False): (
        (28, 42, 618, 3, 0, 14, 0),
        (12, 0, 96, 2, 0, 6, 0),
        (12, 0, 96, 2, 0, 6, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (12, 0, 96, 2, 0, 6, 0),
        (12, 0, 96, 2, 0, 6, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (12, 0, 96, 2, 0, 6, 0),
        (12, 0, 96, 2, 0, 6, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('multi-root', True): (
        (28, 42, 5520, 3, 0, 14, 0),
        (6, 0, 64, 2, 6, 6, 0),
        (6, 0, 64, 2, 6, 6, 0),
        (14, 1, 2894, 3, 14, 14, 0),
        (2, 0, 16, 2, 2, 2, 2),
        (2, 0, 16, 2, 2, 2, 2),
        (0, 0, 0, 1, 0, 0, 2),
        (14, 1, 1318, 3, 10, 14, 4),
        (2, 0, 16, 2, 3, 2, 2),
        (2, 0, 16, 2, 3, 2, 2),
        (0, 0, 0, 1, 0, 0, 2),
    ),
    ('random-0', False): (
        (8, 12, 144, 3, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (8, 1, 78, 3, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (8, 1, 78, 3, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('random-0', True): (
        (8, 12, 1536, 3, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (4, 1, 278, 3, 5, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (4, 1, 278, 3, 5, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('random-1', False): (
        (10, 13, 154, 2, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (10, 1, 94, 2, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (10, 1, 94, 2, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('random-1', True): (
        (10, 13, 1894, 2, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (5, 1, 310, 2, 6, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (5, 1, 310, 2, 6, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('relay-dedup', False): (
        (10, 20, 240, 5, 0, 5, 0),
        (10, 1, 94, 5, 0, 5, 0),
        (10, 1, 94, 5, 0, 5, 0),
        (10, 1, 94, 5, 0, 5, 0),
    ),
    ('relay-dedup', True): (
        (10, 20, 1980, 5, 0, 5, 0),
        (5, 1, 262, 5, 5, 5, 0),
        (5, 1, 262, 5, 5, 5, 0),
        (5, 1, 262, 5, 5, 5, 0),
    ),
    ('star-0', False): (
        (8, 12, 144, 1, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (8, 1, 78, 1, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (8, 1, 78, 1, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('star-0', True): (
        (8, 12, 1536, 1, 0, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (4, 1, 310, 1, 4, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (4, 1, 310, 1, 4, 4, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('star-1', False): (
        (10, 13, 154, 1, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (10, 1, 94, 1, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (10, 1, 94, 1, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('star-1', True): (
        (10, 13, 1894, 1, 0, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (5, 1, 326, 1, 5, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (5, 1, 326, 1, 5, 5, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('tree-0', False): (
        (28, 42, 618, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('tree-0', True): (
        (28, 42, 5520, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (14, 1, 2894, 3, 14, 14, 0),
        (3, 0, 16, 3, 3, 3, 3),
        (2, 0, 0, 3, 2, 2, 4),
        (0, 0, 0, 1, 0, 0, 2),
        (14, 1, 1318, 3, 10, 14, 4),
        (3, 0, 16, 3, 3, 3, 3),
        (2, 0, 0, 3, 4, 2, 4),
        (0, 0, 0, 1, 0, 0, 2),
    ),
    ('tree-1', False): (
        (28, 42, 618, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('tree-1', True): (
        (28, 42, 5520, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (14, 1, 2894, 3, 14, 14, 0),
        (3, 0, 16, 3, 3, 3, 3),
        (2, 0, 0, 3, 2, 2, 4),
        (0, 0, 0, 1, 0, 0, 2),
        (14, 1, 1318, 3, 10, 14, 4),
        (3, 0, 16, 3, 3, 3, 3),
        (2, 0, 0, 3, 4, 2, 4),
        (0, 0, 0, 1, 0, 0, 2),
    ),
    ('tree-2', False): (
        (28, 42, 618, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (28, 1, 238, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
    ),
    ('tree-2', True): (
        (28, 42, 5520, 3, 0, 14, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (14, 1, 2894, 3, 14, 14, 0),
        (3, 0, 16, 3, 3, 3, 3),
        (2, 0, 0, 3, 2, 2, 4),
        (0, 0, 0, 1, 0, 0, 2),
        (14, 1, 1318, 3, 10, 14, 4),
        (3, 0, 16, 3, 3, 3, 3),
        (2, 0, 0, 3, 4, 2, 4),
        (0, 0, 0, 1, 0, 0, 2),
    ),
}


@pytest.mark.parametrize("routing", (False, True),
                         ids=("flooded", "routed"))
@pytest.mark.parametrize("name", sorted(schedules()))
def test_gather_counts_match_the_pinned_table(name, routing):
    system, steps = schedules()[name]
    assert run_schedule(system, steps, routing) == PINNED[name, routing]


def test_the_table_prunes_whole_subtrees():
    """The pinned routed runs exercise tier-A/B subtree pruning, and
    the flooded ones never prune."""
    routed = [row for (_, routing), rows in PINNED.items() if routing
              for row in rows]
    flooded = [row for (_, routing), rows in PINNED.items()
               if not routing for row in rows]
    assert any(row[6] for row in routed)
    assert not any(row[4] or row[6] for row in flooded)
