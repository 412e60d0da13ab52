"""Seeded property suite for hop-by-hop subtree aggregates.

The aggregate layer inherits the digest layer's load-bearing guarantee
— **no false negatives** — and adds three obligations of its own: the
union across a whole subtree (mixed adaptive widths, arbitrary
nesting) must keep it; the content token must be a pure
function of the aggregate's parts (scope-independent, so any gather
rebuilds the same stamp); and every degradation (missing piece, width
mismatch, version tear, unsafe constraint) must surface as ``None`` /
``safe=False`` / an empty version rather than a bits-level guess.
"""

import random

import pytest

from repro.routing.aggregate import (
    SubtreeDigest,
    aggregate_bytes,
    build_subtree,
    subtree_token,
)
from repro.routing.digest import NeighbourDigests, RelationDigest

SEEDS = range(12)

_ALPHABETS = ("abcdefgh", "éüñß-ÅØ", "数据库系统", "🛰🔌🧵")


def rand_value(rng: random.Random):
    if rng.randrange(3) == 0:
        return rng.randint(-10_000, 10_000)
    alphabet = rng.choice(_ALPHABETS)
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randint(0, 6)))


def rand_tables(rng: random.Random, prefix: str,
                n_relations: int) -> dict:
    return {f"R{rng.randrange(3)}": [
        (f"{prefix}:{rand_value(rng)}", rand_value(rng))
        for _ in range(rng.randint(0, 40))
    ] for _ in range(n_relations)}


def leaf(name: str, tables, *, version="v1", safe=True):
    """A childless subtree aggregate over ``tables``."""
    return build_subtree(
        name, NeighbourDigests.from_tables(name, version, tables), (),
        safe_root=safe, version=version)


def seeded_tree(rng: random.Random, *, version="v1"):
    """A random 2-level subtree; returns (aggregate, all stored keys)."""
    stored = []
    grandchildren = []
    for g in range(rng.randint(0, 3)):
        tables = rand_tables(rng, f"g{g}", rng.randint(1, 3))
        stored.extend(row[0] for rows in tables.values()
                      for row in rows)
        grandchildren.append(leaf(f"G{g}", tables, version=version))
    mid_tables = rand_tables(rng, "m", 2)
    stored.extend(row[0] for rows in mid_tables.values() for row in rows)
    mid = build_subtree(
        "M", NeighbourDigests.from_tables("M", version, mid_tables),
        grandchildren, safe_root=True, version=version)
    own_tables = rand_tables(rng, "r", 2)
    stored.extend(row[0] for rows in own_tables.values() for row in rows)
    aggregate = build_subtree(
        "R", NeighbourDigests.from_tables("R", version, own_tables),
        [mid], safe_root=True, version=version)
    return aggregate, stored


class TestNoFalseNegatives:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_stored_key_survives_the_union(self, seed):
        """Any first-column value stored anywhere in the subtree must
        be ``may_contain`` in the final aggregate — across relations,
        nesting levels, and the adaptive widths their sizes picked."""
        rng = random.Random(seed)
        aggregate, stored = seeded_tree(rng)
        assert aggregate is not None
        for key in stored:
            assert not aggregate.disjoint_from([key]), key

    @pytest.mark.parametrize("seed", SEEDS)
    def test_disjoint_proof_is_sound(self, seed):
        rng = random.Random(seed)
        aggregate, stored = seeded_tree(rng)
        probes = [rand_value(rng) for _ in range(60)]
        if aggregate.disjoint_from(probes):
            assert not (set(probes) & set(stored))

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_mixed_width_slice_merges_keep_the_guarantee(self, seed):
        """A parent with a big relation (wide adaptive digest) and a
        child with a tiny one (narrow) union without losing any stored
        key — the cross-width fold-merge subtree aggregation relies
        on."""
        rng = random.Random(seed)
        big = [(f"b{i}", i) for i in range(rng.randint(30, 120))]
        small = [(f"s{i}", i) for i in range(rng.randint(1, 4))]
        merged = build_subtree(
            "P",
            NeighbourDigests.from_tables("P", "v", {"R": big}),
            [leaf("C", {"R": small})],
            safe_root=True, version="v1")
        assert merged is not None
        for key, _ in big + small:
            assert not merged.disjoint_from([key]), key

    def test_disjointness_checks_every_relation(self):
        """DECs propagate rows between relation names, so a constant
        hiding under *any* relation defeats the subtree proof."""
        aggregate = leaf("P", {"R0": [], "R9": [("deep", 1)]})
        assert aggregate.disjoint_from(["absent"])
        assert not aggregate.disjoint_from(["deep"])


class TestToken:
    def test_token_is_scope_independent(self):
        """Two builds from equal parts stamp equal tokens — the
        in-gather confirmation a requester prunes on."""
        tables = {"R": [("a", 1), ("b", 2)]}
        one = leaf("P", tables)
        two = leaf("P", {"R": list(reversed(tables["R"]))})
        assert one.token == two.token
        assert one.token.startswith("agg-")

    def test_any_row_change_anywhere_changes_the_token(self):
        base = build_subtree(
            "R", NeighbourDigests.from_tables("R", "v1", {"R0": []}),
            [leaf("C", {"R1": [("a", 1)]})],
            safe_root=True, version="v1")
        changed = build_subtree(
            "R", NeighbourDigests.from_tables("R", "v1", {"R0": []}),
            [leaf("C", {"R1": [("a", 1), ("mut", 9)]})],
            safe_root=True, version="v1")
        assert base.token != changed.token

    def test_safety_flip_changes_the_token(self):
        safe = leaf("P", {"R": [("a", 1)]}, safe=True)
        unsafe = leaf("P", {"R": [("a", 1)]}, safe=False)
        assert safe.token != unsafe.token

    def test_token_function_matches_builder(self):
        aggregate = leaf("P", {"R": [("a", 1)]})
        assert aggregate.token == subtree_token(
            "P", aggregate.peers, aggregate.safe, aggregate.relations)


class TestDegradation:
    def test_missing_own_digests_degrade_everything(self):
        assert build_subtree("P", None, (), safe_root=True,
                             version="v1") is None

    def test_missing_child_degrades_the_whole_subtree(self):
        own = NeighbourDigests.from_tables("P", "v1", {"R": []})
        child = leaf("C", {"R": [("a", 1)]})
        assert build_subtree("P", own, [child, None],
                             safe_root=True, version="v1") is None

    def test_incompatible_digest_parameters_degrade(self):
        own = NeighbourDigests(
            peer="P", version="v1",
            relations=(RelationDigest.from_rows("R", [("a", 1)], k=3),))
        child = leaf("C", {"R": [("b", 2)]})
        assert build_subtree("P", own, [child],
                             safe_root=True, version="v1") is None

    def test_one_unsafe_child_poisons_every_ancestor(self):
        own = NeighbourDigests.from_tables("P", "v1", {"R": []})
        fine = leaf("C1", {"R": [("a", 1)]}, safe=True)
        tainted = leaf("C2", {"R": [("b", 2)]}, safe=False)
        merged = build_subtree("P", own, [fine, tainted],
                               safe_root=True, version="v1")
        assert merged is not None and not merged.safe
        above = build_subtree(
            "Q", NeighbourDigests.from_tables("Q", "v1", {"S": []}),
            [merged], safe_root=True, version="v1")
        assert not above.safe

    def test_version_tear_clears_the_stamp_but_keeps_the_bits(self):
        """A child stamped under another system version still unions
        (the bits over-approximate), but the tear empties ``version`` so
        the zero-message prune can never trust it."""
        own = NeighbourDigests.from_tables("P", "v2", {"R": []})
        stale = leaf("C", {"R": [("a", 1)]}, version="v1")
        merged = build_subtree("P", own, [stale],
                               safe_root=True, version="v2")
        assert merged is not None
        assert merged.version == ""
        assert not merged.disjoint_from(["a"])

    def test_peers_union_and_sorted(self):
        own = NeighbourDigests.from_tables("P", "v1", {"R": []})
        merged = build_subtree(
            "P", own,
            [leaf("Z", {"R": []}), leaf("A", {"R": []})],
            safe_root=True, version="v1")
        assert merged.peers == ("A", "P", "Z")


class TestRoundTripAndBytes:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_dict_round_trip(self, seed):
        rng = random.Random(seed)
        aggregate, _ = seeded_tree(rng)
        assert SubtreeDigest.from_dict(aggregate.to_dict()) == aggregate

    def test_none_costs_nothing(self):
        assert aggregate_bytes(None) == 0

    def test_bytes_scale_with_width_and_peers(self):
        small = leaf("P", {"R": [("a", 1)]})
        big = build_subtree(
            "P",
            NeighbourDigests.from_tables(
                "P", "v1", {"R": [(f"k{i}", i) for i in range(100)]}),
            [leaf(f"C{j}", {"R": []}) for j in range(4)],
            safe_root=True, version="v1")
        assert 0 < aggregate_bytes(small) < aggregate_bytes(big)
