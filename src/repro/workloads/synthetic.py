"""Synthetic workload generators for the tests and the benchmark.

The paper has no quantitative evaluation, but Section 3.2 makes
complexity claims (Π^p_2 data complexity; exponentially many repairs) and
Section 4.1 an optimisation claim (HCF shifting).  These generators
produce the parameterised families that exercise them:

* :func:`conflict_chain_system` — n independent same-trust conflicts, so
  the peer has exactly 2^n solutions (the exponential blow-up);
* :func:`import_star_system` — one peer importing from k more-trusted
  neighbours via full inclusions, with adjustable consistent/conflicting
  tuple counts (the FO-rewriting-friendly family);
* :func:`referential_system` — Section 3.1-shaped referential DECs with a
  tunable number of violations and witnesses (the HCF-shift family);
* :func:`peer_chain_system` — a transitive chain of k peers propagating
  imports;
* :func:`topology_system` — one seeded generator for chain/star/random
  accessibility graphs, shared by the ``bench/`` network workloads and
  the :mod:`repro.net` differential tests so they exercise identical
  system families.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import random
from typing import Optional

from ..datalog.terms import Variable
from ..relational.constraints import (
    EqualityGeneratingConstraint,
    InclusionDependency,
    TupleGeneratingConstraint,
)
from ..relational.query import RelAtom
from ..core.system import PeerSystem

__all__ = [
    "conflict_chain_system",
    "import_star_system",
    "referential_system",
    "peer_chain_system",
    "topology_system",
    "sharded_topology_system",
]

_X, _Y, _Z, _W = (Variable("X"), Variable("Y"), Variable("Z"),
                  Variable("W"))


def conflict_chain_system(n_conflicts: int, *,
                          n_clean: int = 0) -> PeerSystem:
    """P1 vs an equally-trusted P3: ``n_conflicts`` independent EGD
    conflicts (each resolvable two ways → 2^n solutions) plus ``n_clean``
    conflict-free tuples."""
    r1 = [(f"k{i}", f"v{i}") for i in range(n_conflicts)]
    r3 = [(f"k{i}", f"w{i}") for i in range(n_conflicts)]
    r1 += [(f"c{i}", f"cv{i}") for i in range(n_clean)]
    egd = EqualityGeneratingConstraint(
        antecedent=[RelAtom("R1", [_X, _Y]), RelAtom("R3", [_X, _Z])],
        equalities=[(_Y, _Z)], name="conflict")
    return (PeerSystem.builder()
            .peer("P1", {"R1": 2}, instance={"R1": r1})
            .peer("P3", {"R3": 2}, instance={"R3": r3})
            .exchange("P1", "P3", egd)
            .trust("P1", "same", "P3")
            .build())


def import_star_system(n_tuples: int, n_neighbours: int = 1, *,
                       overlap: float = 0.3,
                       conflicts: int = 0,
                       seed: int = 7) -> PeerSystem:
    """P0 imports from ``n_neighbours`` more-trusted peers via full
    inclusions; optionally an equally-trusted conflict peer adds EGD
    violations.

    ``overlap`` is the fraction of each neighbour's tuples already present
    at P0 (imports that change nothing).  The ``asp_ground`` and
    ``rewrite_scan`` benchmark workloads run over this system.
    """
    rng = random.Random(seed)
    own = [(f"k{i}", f"v{i}") for i in range(n_tuples)]
    builder = PeerSystem.builder().peer("P0", {"R0": 2},
                                        instance={"R0": own})
    for j in range(1, n_neighbours + 1):
        relation = f"M{j}"
        shared = rng.sample(own, int(overlap * len(own))) if own else []
        fresh = [(f"n{j}_{i}", f"nv{j}_{i}")
                 for i in range(max(0, n_tuples // n_neighbours))]
        builder.peer(f"P{j}", {relation: 2},
                     instance={relation: shared + fresh})
        builder.exchange(
            "P0", f"P{j}",
            InclusionDependency(relation, "R0", child_arity=2,
                                parent_arity=2,
                                name=f"import_{relation}"))
        builder.trust("P0", "less", f"P{j}")
    if conflicts:
        conflicting = [(f"k{i}", f"w{i}") for i in range(conflicts)]
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R0", [_X, _Y]),
                        RelAtom("C0", [_X, _Z])],
            equalities=[(_Y, _Z)], name="conflict_C0")
        builder.peer("PC", {"C0": 2}, instance={"C0": conflicting})
        builder.exchange("P0", "PC", egd)
        builder.trust("P0", "same", "PC")
    return builder.build()


def referential_system(n_violations: int, n_witnesses: int = 2, *,
                       n_satisfied: int = 0) -> PeerSystem:
    """Section 3.1-shaped referential DEC with ``n_violations`` violating
    antecedent pairs, each with ``n_witnesses`` candidate S2-witnesses
    (every violation admits 1 deletion + ``n_witnesses`` insertions →
    ``(n_witnesses + 1)^n_violations`` solutions)."""
    r1 = [(f"d{i}", f"m{i}") for i in range(n_violations)]
    s1 = [(f"a{i}", f"m{i}") for i in range(n_violations)]
    s2 = [(f"a{i}", f"t{i}_{j}")
          for i in range(n_violations) for j in range(n_witnesses)]
    r2 = []
    for i in range(n_satisfied):
        r1.append((f"sd{i}", f"sm{i}"))
        s1.append((f"sa{i}", f"sm{i}"))
        r2.append((f"sd{i}", f"st{i}"))
        s2.append((f"sa{i}", f"st{i}"))
    dec = TupleGeneratingConstraint(
        antecedent=[RelAtom("R1", [_X, _Y]), RelAtom("S1", [_Z, _Y])],
        consequent=[RelAtom("R2", [_X, _W]), RelAtom("S2", [_Z, _W])],
        name="dec3")
    return (PeerSystem.builder()
            .peer("P", {"R1": 2, "R2": 2},
                  instance={"R1": r1, "R2": r2})
            .peer("Q", {"S1": 2, "S2": 2},
                  instance={"S1": s1, "S2": s2})
            .exchange("P", "Q", dec)
            .trust("P", "less", "Q")
            .build())


def topology_system(n_peers: int, *, topology: str = "star",
                    n_tuples: int = 6, conflicts: int = 0,
                    extra_edges: int = 0,
                    density: Optional[float] = None,
                    branching: int = 2,
                    seed: int = 0) -> PeerSystem:
    """One seeded generator for the network-shaped system families.

    ``topology`` selects the accessibility graph rooted at ``P0``:

    * ``"chain"`` — P0 → P1 → ... → P{n-1}, each peer importing its
      successor's relation (the transitive family);
    * ``"star"`` — P0 imports from every other peer directly (the
      fan-out family);
    * ``"random"`` — a seeded spanning arborescence from P0 (every peer
      ``Pi`` is imported by a random earlier peer) plus ``extra_edges``
      additional forward edges, so the graph is a connected DAG with
      diamonds but no cycles.  ``density`` is the scale-free
      alternative to the absolute ``extra_edges`` count: a fraction in
      ``[0, 1]`` of the possible non-tree forward edges to add
      (``0.0`` keeps the bare arborescence, ``1.0`` saturates the
      DAG), so sweeps over ``n_peers`` keep comparable edge/node
      ratios without recomputing counts.  Passing both is an error;
      both only apply to ``"random"``.
    * ``"tree"`` — a complete ``branching``-ary tree rooted at P0
      (``Pi`` is imported by ``P{(i-1)//branching}``), the deep-gather
      family for multi-hop subtree pruning.  Unlike the other shapes,
      every peer's keys live in their own namespace (``p{i}k{j}``
      instead of the shared pool): a constant-selecting query then
      names exactly one peer's data, so branch digests are genuinely
      disjoint from it and the :mod:`repro.routing` aggregates have
      something to prove.  ``branching`` only applies to ``"tree"``.

    Every peer ``Pi`` owns one binary relation ``Ri`` with ``n_tuples``
    seeded rows; outside ``"tree"``, keys are drawn from a small shared
    pool so imports genuinely overlap and collide.  All import edges are
    full inclusions with `less` trust.  ``conflicts`` > 0 adds an
    equally-trusted peer ``PC`` whose relation ``C0`` contradicts that
    many of P0's keys via an EGD, exercising the stage-2 (`same`-trust)
    semantics.

    The accessibility graph always reaches every peer from P0, which is
    what makes the :mod:`repro.net` runtime's hop-by-hop view provably
    equivalent to the global session on these systems.
    """
    if n_peers < 1:
        raise ValueError("topology_system needs at least one peer")
    if topology not in ("chain", "star", "random", "tree"):
        raise ValueError(
            f"unknown topology {topology!r}; use 'chain', 'star', "
            f"'random', or 'tree'")
    if branching < 1:
        raise ValueError(f"branching must be >= 1, got {branching}")
    if density is not None:
        if topology != "random":
            raise ValueError(
                "density only applies to topology='random'")
        if extra_edges:
            raise ValueError(
                "pass extra_edges or density, not both")
        if not 0.0 <= density <= 1.0:
            raise ValueError(
                f"density must be in [0, 1], got {density}")
    rng = random.Random(f"{seed}:{topology}:{n_peers}:{n_tuples}")
    key_pool = [f"k{i}" for i in range(max(4, n_tuples))]

    builder = PeerSystem.builder()
    root_keys: list[str] = []
    for index in range(n_peers):
        if topology == "tree":
            # namespaced keys: "Ri holds p5's keys" is decidable from a
            # digest, which is what subtree pruning proves absence with
            rows = [(f"p{index}k{i}", f"v{index}_{i}")
                    for i in range(n_tuples)]
        else:
            rows = [(rng.choice(key_pool), f"v{index}_{i}")
                    for i in range(n_tuples)]
        builder.peer(f"P{index}", {f"R{index}": 2},
                     instance={f"R{index}": rows})
        if index == 0:
            root_keys = sorted({key for key, _value in rows})

    if topology == "chain":
        edges = [(i, i + 1) for i in range(n_peers - 1)]
    elif topology == "star":
        edges = [(0, i) for i in range(1, n_peers)]
    elif topology == "tree":
        edges = [((i - 1) // branching, i) for i in range(1, n_peers)]
    else:
        edges = [(rng.randrange(i), i) for i in range(1, n_peers)]
        candidates = [(j, i) for i in range(1, n_peers)
                      for j in range(i) if (j, i) not in set(edges)]
        rng.shuffle(candidates)
        if density is not None:
            extra_edges = round(density * len(candidates))
        edges.extend(candidates[:extra_edges])

    for owner_idx, other_idx in edges:
        owner, other = f"P{owner_idx}", f"P{other_idx}"
        builder.exchange(
            owner, other,
            InclusionDependency(f"R{other_idx}", f"R{owner_idx}",
                                child_arity=2, parent_arity=2,
                                name=f"import_{owner}_{other}"))
        builder.trust(owner, "less", other)

    if conflicts:
        # clash with keys P0 actually holds, so every conflict is real
        clashing = [(root_keys[i % len(root_keys)], f"w{i}")
                    for i in range(conflicts)] if root_keys else []
        egd = EqualityGeneratingConstraint(
            antecedent=[RelAtom("R0", [_X, _Y]),
                        RelAtom("C0", [_X, _Z])],
            equalities=[(_Y, _Z)], name="conflict_C0")
        builder.peer("PC", {"C0": 2}, instance={"C0": clashing})
        builder.exchange("P0", "PC", egd)
        builder.trust("P0", "same", "PC")
    return builder.build()


def sharded_topology_system(n_peers: int, *, shards: int = 2,
                            topology: str = "star",
                            n_tuples: int = 6, conflicts: int = 0,
                            extra_edges: int = 0, branching: int = 2,
                            seed: int = 0):
    """A :func:`topology_system` plus a uniform shard map for it.

    Returns ``(system, shard_map)`` — the pair every sharded
    differential case needs: the same seeded system families the
    :mod:`repro.net` suite sweeps, deployed as ``shards`` slices per
    peer.  The map import is lazy so the workload package stays free of
    a hard :mod:`repro.shard` dependency.
    """
    from ..shard import ShardMap
    system = topology_system(n_peers, topology=topology,
                             n_tuples=n_tuples, conflicts=conflicts,
                             extra_edges=extra_edges,
                             branching=branching, seed=seed)
    return system, ShardMap.uniform(system.peers, shards)


def peer_chain_system(length: int, n_tuples: int = 2) -> PeerSystem:
    """A chain P0 ← P1 ← ... ← P_{length}: each peer imports its
    successor's relation via a full inclusion with `less` trust, so data
    entered at the far end propagates transitively to P0."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    builder = PeerSystem.builder()
    for index in range(length + 1):
        relation = f"T{index}"
        rows = []
        if index == length:  # only the far end holds data
            rows = [(f"x{i}", f"y{i}") for i in range(n_tuples)]
        builder.peer(f"P{index}", {relation: 2},
                     instance={relation: rows})
        if index < length:
            builder.exchange(
                f"P{index}", f"P{index + 1}",
                InclusionDependency(f"T{index + 1}", relation,
                                    child_arity=2, parent_arity=2,
                                    name=f"chain_{index}"))
            builder.trust(f"P{index}", "less", f"P{index + 1}")
    return builder.build()
