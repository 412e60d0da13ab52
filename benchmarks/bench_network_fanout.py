"""NF1 — concurrent vs sequential fan-out in the peer network runtime.

A peer answering over the network pays one round-trip per neighbour
request; with per-link latency injected (the realistic regime the
:class:`~repro.net.transport.ThreadedTransport` simulates), routing
those requests one by one costs ``latency x requests`` while fanning
them out concurrently costs roughly ``latency x depth``.  This benchmark
builds the three :func:`~repro.workloads.synthetic.topology_system`
families and answers the root's query over a cold network in both
:class:`~repro.net.network.PeerNetwork` concurrency modes.

Expected series shape: on the star (every request independent, depth 1)
the concurrent fan-out wins by roughly the neighbour count; on the chain
(one neighbour per hop, nothing to parallelise) the two modes tie; the
random DAG lands in between.  Script mode (the CI smoke step) enforces
the star speedup >= the acceptance bar and tuple-for-tuple agreement
with the in-process :class:`~repro.core.session.PeerQuerySession`.

The second section compares **routed vs flooded** gathers: the same
seeded random topologies answered over a long-lived session while one
leaf peer's relation mutates every round (``PeerNetwork.sync`` pushes
each edit).  Flooded mode re-floods the whole graph per round; routed
mode (``routing=True``) learns digests and subsystem tokens on the
warm-up round and then skips or shortens every exchange the mutation
provably did not touch.  Script mode enforces the acceptance bar: at
least ``MIN_ROUTING_REDUCTION`` relative reduction in *both* wire
bytes and total messages across the measured rounds, with answers
tuple-for-tuple identical to the local session every round.

The third section measures **subtree pruning** on seeded deep trees
(depth >= 3): a schedule of constant-selecting queries posed at several
roots, with one leaf relation mutating between rounds.  Serving one
root's scoped gather refreshes the hop-by-hop aggregates at every
intermediate node, so later queries prove whole branches disjoint and
skip them at zero messages, while flooded mode re-walks the entire tree
per query.  Script mode enforces the acceptance bars — at least
``MIN_TREE_MSG_REDUCTION`` fewer messages and
``MIN_TREE_BYTE_REDUCTION`` fewer wire bytes than flooding — with
answers identical to the local session throughout.
"""

import time

from repro.core import PeerQuerySession
from repro.core.system import PeerSystem
from repro.net import LoopbackTransport, NetworkSession, ThreadedTransport
from repro.relational.instance import DatabaseInstance
from repro.workloads import topology_system

QUERY = "q(X, Y) := R0(X, Y)"
TOPOLOGIES = ("star", "chain", "random")
#: peers per system in script mode (star: 1 hub + 8 leaves)
N_PEERS = 9
N_TUPLES = 5
LATENCY_S = 0.015
#: the acceptance bar for the star topology in script mode
MIN_STAR_SPEEDUP = 2.0
SEED = 4
#: routed gathers must cut bytes AND messages by at least this much
MIN_ROUTING_REDUCTION = 0.30
#: seeded random topologies the routing comparison sweeps
ROUTING_SEEDS = (3, 7)
ROUTING_DENSITY = 0.25
ROUTING_ROUNDS = 5

#: deep-tree subtree-pruning section: a binary tree of 31 peers is
#: depth 4, comfortably past the depth-3 floor where single-hop
#: digests stop helping
TREE_PEERS = 31
TREE_BRANCHING = 2
TREE_SEED = 0
TREE_ROUNDS = 2
#: subtree pruning must cut messages by at least this much ...
MIN_TREE_MSG_REDUCTION = 0.50
#: ... and wire bytes (piggybacked aggregate bytes included) by this
MIN_TREE_BYTE_REDUCTION = 0.40
#: warm-up: one *unscoped* query per schedule root, so each root
#: builds its full view and records the subsystem peer set that
#: scoped (constant-selecting) gathers key off — excluded from totals
TREE_WARMUP = (("P0", "q(X, Y) := R0(X, Y)"),
               ("P1", "q(X, Y) := R1(X, Y)"),
               ("P2", "q(X, Y) := R2(X, Y)"),
               ("P4", "q(X, Y) := R4(X, Y)"))
#: measured schedule: constant-selecting queries from several roots,
#: each constant namespaced to exactly one peer's relation (the tree
#: topology's ``p{i}k{j}`` keys), so off-path branches are provably
#: disjoint and serving one root refreshes aggregates for the next
TREE_SCHEDULE = (("P0", 'q(Y) := R0("p21k1", Y)'),
                 ("P0", 'q(Y) := R0("p5k0", Y)'),
                 ("P1", 'q(Y) := R1("p10k2", Y)'),
                 ("P1", 'q(Y) := R1("p1k0", Y)'),
                 ("P2", 'q(Y) := R2("p13k1", Y)'),
                 ("P4", 'q(Y) := R4("p22k0", Y)'))


def make_system(topology: str, n_peers: int = N_PEERS):
    return topology_system(n_peers, topology=topology,
                           n_tuples=N_TUPLES, extra_edges=3, seed=SEED)


# ---------------------------------------------------------------------------
# Routed vs flooded steady state
# ---------------------------------------------------------------------------

def mutate_leaf(system: PeerSystem, round_no: int) -> PeerSystem:
    """The same system with one extra tuple in the last peer's relation.

    Mutating the *leaf* exercises invalidation along the whole
    root-to-leaf relay path while every off-path subtree stays
    byte-identical — the regime the routing index is built for.
    """
    leaf = sorted(system.peers)[-1]
    relation = sorted(system.peers[leaf].schema.names)[0]
    rows = set(system.instances[leaf].tuples(relation))
    rows.add((f"m{round_no}", f"mv{round_no}"))
    mutated = DatabaseInstance(system.peers[leaf].schema,
                               {relation: frozenset(rows)})
    return PeerSystem(system.peers.values(),
                      {**system.instances, leaf: mutated},
                      system.exchanges, system.trust)


def run_routing_rounds(seed: int, *, routing: bool,
                       rounds: int = ROUTING_ROUNDS,
                       n_peers: int = N_PEERS) -> dict:
    """Steady-state traffic for one session mode over mutation rounds.

    Returns total messages/bytes, the deepest relay chain, and the
    per-round answer sets (for the cross-mode differential check).
    The warm-up round (cold gather + first sync) is excluded from the
    measured totals — steady state is what the index optimises.
    """
    system = topology_system(n_peers, topology="random",
                             n_tuples=N_TUPLES,
                             density=ROUTING_DENSITY, seed=seed)
    messages = bytes_total = max_hops = pruned = 0
    answers = []
    with NetworkSession(system, transport=LoopbackTransport(),
                        routing=routing) as session:
        result = session.answer("P0", QUERY)
        assert result.ok, result.error
        for round_no in range(1, rounds + 1):
            system = mutate_leaf(system, round_no)
            session.use_system(system)
            mark = session.exchange_log.mark()
            result = session.answer("P0", QUERY)
            assert result.ok, result.error
            answers.append(result.answers)
            events = session.exchange_log.events_since(mark)
            messages += len(events)
            bytes_total += sum(e.bytes_estimate for e in events)
            max_hops = max(max_hops, result.exchange.max_hops)
            pruned += result.exchange.neighbours_pruned
    return {"messages": messages, "bytes": bytes_total,
            "max_hops": max_hops, "pruned": pruned,
            "answers": answers}


def local_round_answers(seed: int, *, rounds: int = ROUTING_ROUNDS,
                        n_peers: int = N_PEERS) -> list:
    """The in-process session's answers for the same mutation schedule
    (the ground truth both network modes must reproduce)."""
    system = topology_system(n_peers, topology="random",
                             n_tuples=N_TUPLES,
                             density=ROUTING_DENSITY, seed=seed)
    expected = []
    for round_no in range(1, rounds + 1):
        system = mutate_leaf(system, round_no)
        expected.append(
            PeerQuerySession(system).answer("P0", QUERY).answers)
    return expected


# ---------------------------------------------------------------------------
# Deep-tree subtree pruning
# ---------------------------------------------------------------------------

def run_tree_rounds(*, routing: bool, rounds: int = TREE_ROUNDS,
                    n_peers: int = TREE_PEERS,
                    warmup=TREE_WARMUP,
                    schedule=TREE_SCHEDULE) -> dict:
    """Steady-state traffic for a multi-root schedule on a deep tree.

    The warm-up queries (and the syncs) are excluded: the mark is taken
    *after* ``use_system`` pushes each round's mutation, so both modes
    are charged only for answering the schedule itself.
    """
    system = topology_system(n_peers, topology="tree",
                             n_tuples=N_TUPLES,
                             branching=TREE_BRANCHING, seed=TREE_SEED)
    messages = bytes_total = pruned = subtrees = 0
    answers = []
    with NetworkSession(system, transport=LoopbackTransport(),
                        routing=routing) as session:
        for root, query in warmup:
            result = session.answer(root, query)
            assert result.ok, result.error
        for round_no in range(1, rounds + 1):
            system = mutate_leaf(system, round_no)
            session.use_system(system)
            mark = session.exchange_log.mark()
            for root, query in schedule:
                result = session.answer(root, query)
                assert result.ok, result.error
                answers.append(result.answers)
                pruned += result.exchange.neighbours_pruned
                subtrees += result.exchange.subtrees_pruned
            events = session.exchange_log.events_since(mark)
            messages += len(events)
            bytes_total += sum(e.bytes_estimate for e in events)
    return {"messages": messages, "bytes": bytes_total,
            "pruned": pruned, "subtrees": subtrees,
            "answers": answers}


def local_tree_answers(*, rounds: int = TREE_ROUNDS,
                       n_peers: int = TREE_PEERS,
                       schedule=TREE_SCHEDULE) -> list:
    """The in-process session's answers for the tree schedule."""
    system = topology_system(n_peers, topology="tree",
                             n_tuples=N_TUPLES,
                             branching=TREE_BRANCHING, seed=TREE_SEED)
    expected = []
    for round_no in range(1, rounds + 1):
        system = mutate_leaf(system, round_no)
        session = PeerQuerySession(system)
        for root, query in schedule:
            expected.append(session.answer(root, query).answers)
    return expected


def run_cold(system, concurrency: str, latency: float
             ) -> tuple[float, frozenset]:
    """Answer the root query over a freshly built network (cold view —
    the gather's message round-trips are what is being measured)."""
    with NetworkSession(system,
                        transport=ThreadedTransport(latency=latency),
                        concurrency=concurrency) as session:
        start = time.perf_counter()
        result = session.answer("P0", QUERY)
        elapsed = (time.perf_counter() - start) * 1000
        assert result.ok, result.error
        return elapsed, result.answers


# ---------------------------------------------------------------------------
# pytest harness (fast settings; timing assertions live in script mode)
# ---------------------------------------------------------------------------

def test_nf1_fanout_matches_sequential_and_local():
    system = make_system("star", n_peers=5)
    _, fanned = run_cold(system, "fanout", 0.002)
    _, serial = run_cold(system, "sequential", 0.002)
    local = PeerQuerySession(system).answer("P0", QUERY)
    assert fanned == serial == local.answers


def test_nf1_star_benchmark(benchmark):
    system = make_system("star", n_peers=5)
    elapsed, answers = benchmark(
        lambda: run_cold(system, "fanout", 0.002))
    assert answers


def test_nf1_routed_matches_flooded_and_local():
    seed = ROUTING_SEEDS[0]
    flooded = run_routing_rounds(seed, routing=False, rounds=2,
                                 n_peers=6)
    routed = run_routing_rounds(seed, routing=True, rounds=2,
                                n_peers=6)
    expected = local_round_answers(seed, rounds=2, n_peers=6)
    assert routed["answers"] == flooded["answers"] == expected
    assert routed["messages"] < flooded["messages"]
    assert routed["pruned"] > 0


def test_nf1_tree_pruning_matches_flooded_and_local():
    warmup = (("P0", "q(X, Y) := R0(X, Y)"),
              ("P1", "q(X, Y) := R1(X, Y)"))
    schedule = (("P0", 'q(Y) := R0("p9k1", Y)'),
                ("P1", 'q(Y) := R1("p5k0", Y)'),
                ("P0", 'q(Y) := R0("p1k0", Y)'))
    flooded = run_tree_rounds(routing=False, rounds=1, n_peers=15,
                              warmup=warmup, schedule=schedule)
    routed = run_tree_rounds(routing=True, rounds=1, n_peers=15,
                             warmup=warmup, schedule=schedule)
    expected = local_tree_answers(rounds=1, n_peers=15,
                                  schedule=schedule)
    assert routed["answers"] == flooded["answers"] == expected
    assert flooded["subtrees"] == 0
    assert routed["subtrees"] > 0
    assert routed["messages"] < flooded["messages"]


# ---------------------------------------------------------------------------
# Script mode (CI smoke step): print the report, enforce the speedup bar
# ---------------------------------------------------------------------------

def main(record: bool = False) -> int:
    """Print the report and enforce the bars.  Only script mode passes
    ``record`` and rewrites the tracked ``BENCH_NF1.json``; ``python -m
    repro report`` and the test suite leave it alone."""
    print(f"NF1 — concurrent vs sequential fan-out, "
          f"{N_PEERS} peers, {LATENCY_S * 1000:.0f} ms per-link latency")
    print(f"  {'topology':>8s} {'seq_ms':>8s} {'fanout_ms':>10s} "
          f"{'speedup':>8s} {'agree':>6s}")
    failures = []
    star_speedup = 0.0
    metrics = {"n_peers": N_PEERS, "latency_ms": LATENCY_S * 1000}
    for topology in TOPOLOGIES:
        system = make_system(topology)
        local = PeerQuerySession(system).answer("P0", QUERY)
        seq_ms, seq_answers = run_cold(system, "sequential", LATENCY_S)
        fan_ms, fan_answers = run_cold(system, "fanout", LATENCY_S)
        speedup = seq_ms / fan_ms if fan_ms else float("inf")
        agree = seq_answers == fan_answers == local.answers
        if not agree:
            failures.append(f"{topology}: answers disagree")
        if topology == "star":
            star_speedup = speedup
        metrics[f"{topology}_seq_ms"] = round(seq_ms, 1)
        metrics[f"{topology}_fanout_ms"] = round(fan_ms, 1)
        metrics[f"{topology}_speedup"] = round(speedup, 2)
        print(f"  {topology:>8s} {seq_ms:8.1f} {fan_ms:10.1f} "
              f"{speedup:8.1f} {str(agree):>6s}")
    # Only the star carries a speedup bar.  The chain has one
    # neighbour per hop — latency-bound by construction — so its
    # measured "speedup" hovers at ~1.0x no matter what the runtime
    # does.  It is reported above (and in the trajectory JSON) for
    # the record only: a 1.01x reading there is a tie, not a
    # regression, and it is deliberately not enforced.
    if star_speedup < MIN_STAR_SPEEDUP:
        failures.append(f"star fan-out speedup {star_speedup:.1f}x < "
                        f"{MIN_STAR_SPEEDUP:.1f}x")

    print(f"\n  routed vs flooded gathers — random topologies "
          f"(density {ROUTING_DENSITY}), {ROUTING_ROUNDS} leaf-mutation "
          f"rounds each")
    print(f"  {'seed':>6s} {'mode':>8s} {'msgs':>6s} {'bytes':>8s} "
          f"{'hops':>5s} {'pruned':>7s}")
    flooded_msgs = flooded_bytes = routed_msgs = routed_bytes = 0
    for seed in ROUTING_SEEDS:
        flooded = run_routing_rounds(seed, routing=False)
        routed = run_routing_rounds(seed, routing=True)
        expected = local_round_answers(seed)
        if not (routed["answers"] == flooded["answers"] == expected):
            failures.append(f"routing seed {seed}: answers disagree")
        for mode, run in (("flooded", flooded), ("routed", routed)):
            print(f"  {seed:>6d} {mode:>8s} {run['messages']:>6d} "
                  f"{run['bytes']:>8d} {run['max_hops']:>5d} "
                  f"{run['pruned']:>7d}")
            metrics[f"routing_s{seed}_{mode}_messages"] = run["messages"]
            metrics[f"routing_s{seed}_{mode}_bytes"] = run["bytes"]
            metrics[f"routing_s{seed}_{mode}_max_hops"] = run["max_hops"]
        flooded_msgs += flooded["messages"]
        flooded_bytes += flooded["bytes"]
        routed_msgs += routed["messages"]
        routed_bytes += routed["bytes"]
    msg_cut = (1 - routed_msgs / flooded_msgs) if flooded_msgs else 0.0
    byte_cut = (1 - routed_bytes / flooded_bytes) if flooded_bytes else 0.0
    metrics["routing_message_reduction"] = round(msg_cut, 3)
    metrics["routing_byte_reduction"] = round(byte_cut, 3)
    print(f"  reduction: {msg_cut:.1%} messages, {byte_cut:.1%} bytes "
          f"(bar: {MIN_ROUTING_REDUCTION:.0%} on both)")
    if msg_cut < MIN_ROUTING_REDUCTION:
        failures.append(f"routed message reduction {msg_cut:.1%} < "
                        f"{MIN_ROUTING_REDUCTION:.0%}")
    if byte_cut < MIN_ROUTING_REDUCTION:
        failures.append(f"routed byte reduction {byte_cut:.1%} < "
                        f"{MIN_ROUTING_REDUCTION:.0%}")

    depth = 0
    n = TREE_PEERS - 1
    while n > 0:
        depth += 1
        n = (n - 1) // TREE_BRANCHING
    print(f"\n  subtree pruning — seeded tree ({TREE_PEERS} peers, "
          f"branching {TREE_BRANCHING}, depth {depth}), "
          f"{len(TREE_SCHEDULE)}-query multi-root schedule x "
          f"{TREE_ROUNDS} mutation rounds")
    print(f"  {'mode':>8s} {'msgs':>6s} {'bytes':>8s} {'pruned':>7s} "
          f"{'subtrees':>9s}")
    tree_flooded = run_tree_rounds(routing=False)
    tree_routed = run_tree_rounds(routing=True)
    tree_local = local_tree_answers()
    if not (tree_routed["answers"] == tree_flooded["answers"]
            == tree_local):
        failures.append("tree schedule: answers disagree")
    for mode, run in (("flooded", tree_flooded),
                      ("routed", tree_routed)):
        print(f"  {mode:>8s} {run['messages']:>6d} {run['bytes']:>8d} "
              f"{run['pruned']:>7d} {run['subtrees']:>9d}")
        metrics[f"tree_{mode}_messages"] = run["messages"]
        metrics[f"tree_{mode}_bytes"] = run["bytes"]
        metrics[f"tree_{mode}_subtrees_pruned"] = run["subtrees"]
    tree_msg_cut = (1 - tree_routed["messages"]
                    / tree_flooded["messages"]
                    ) if tree_flooded["messages"] else 0.0
    tree_byte_cut = (1 - tree_routed["bytes"] / tree_flooded["bytes"]
                     ) if tree_flooded["bytes"] else 0.0
    metrics["tree_message_reduction"] = round(tree_msg_cut, 3)
    metrics["tree_byte_reduction"] = round(tree_byte_cut, 3)
    print(f"  reduction: {tree_msg_cut:.1%} messages (bar "
          f"{MIN_TREE_MSG_REDUCTION:.0%}), {tree_byte_cut:.1%} bytes "
          f"(bar {MIN_TREE_BYTE_REDUCTION:.0%})")
    if tree_msg_cut < MIN_TREE_MSG_REDUCTION:
        failures.append(f"tree message reduction {tree_msg_cut:.1%} < "
                        f"{MIN_TREE_MSG_REDUCTION:.0%}")
    if tree_byte_cut < MIN_TREE_BYTE_REDUCTION:
        failures.append(f"tree byte reduction {tree_byte_cut:.1%} < "
                        f"{MIN_TREE_BYTE_REDUCTION:.0%}")
    if tree_routed["subtrees"] == 0:
        failures.append("tree schedule pruned no subtrees")

    if record:
        from trajectory import write_trajectory
        write_trajectory(
            "NF1", metrics, ok=not failures,
            bars={"min_star_speedup": MIN_STAR_SPEEDUP,
                  "min_routing_reduction": MIN_ROUTING_REDUCTION,
                  "min_tree_msg_reduction": MIN_TREE_MSG_REDUCTION,
                  "min_tree_byte_reduction": MIN_TREE_BYTE_REDUCTION})

    if failures:
        print("\n  FAILED: " + "; ".join(failures))
        return 1
    print("\n  expected: the star pays latency once per level instead "
          "of once per\n  request, so fan-out wins ~linearly in the "
          "neighbour count; the chain has\n  nothing to parallelise "
          "and ties (reported, never barred); routed gathers\n  skip "
          "every exchange the mutation provably did not touch; on the "
          "deep tree,\n  aggregated subtree digests prune whole "
          "branches at zero messages; answers\n  are identical to the "
          "local session everywhere")
    return 0


if __name__ == "__main__":
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    raise SystemExit(main(record=True))
