"""Seeded property suite for the Bloom-style relation digests.

The routing layer's load-bearing guarantee is **no false negatives**:
:meth:`~repro.routing.digest.RelationDigest.may_contain` may only return
``False`` for first-column values that are provably absent, so
``disjoint_from`` proving disjointness means the relation cannot
contribute a matching tuple.  The suite pins that direction over seeded
random relations (unicode constants, mixed types, empty relations),
plus the merge algebra and the wire dict round-trip.
"""

import random

import pytest

from repro.routing.digest import (
    DIGEST_BITS,
    DIGEST_MAX_BITS,
    NeighbourDigests,
    RelationDigest,
    adaptive_nbits,
    digest_bytes,
)

SEEDS = range(20)

#: alphabets chosen to break naive hashing/encoding assumptions
_ALPHABETS = (
    "abcdefgh",
    "éüñß-ÅØ",
    "数据库系统",
    "🛰🔌🧵",
    "\n\t\"\\,:{}[]' ",
)


def rand_value(rng: random.Random):
    if rng.randrange(3) == 0:
        return rng.randint(-10_000, 10_000)
    alphabet = rng.choice(_ALPHABETS)
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randint(0, 6)))


def rand_rows(rng: random.Random, *, allow_empty: bool = True):
    low = 0 if allow_empty else 1
    return [
        (rand_value(rng), rand_value(rng))
        for _ in range(rng.randint(low, 30))
    ]


class TestNoFalseNegatives:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_stored_key_may_be_contained(self, seed):
        rng = random.Random(seed)
        rows = rand_rows(rng, allow_empty=False)
        digest = RelationDigest.from_rows("R", rows)
        for row in rows:
            assert digest.may_contain(row[0]), row

    @pytest.mark.parametrize("seed", SEEDS)
    def test_disjoint_proof_is_sound(self, seed):
        """``disjoint_from(values) == True`` must prove no stored row's
        first column equals any probed value (a contact can be skipped
        only on a proof; false positives are merely wasted contacts)."""
        rng = random.Random(seed)
        rows = rand_rows(rng)
        digest = RelationDigest.from_rows("R", rows)
        stored = {row[0] for row in rows}
        probes = [rand_value(rng) for _ in range(50)]
        if digest.disjoint_from(probes):
            assert not (set(probes) & stored)
        for probe in probes:
            if not digest.may_contain(probe):
                assert probe not in stored

    def test_any_stored_probe_defeats_disjointness(self):
        rows = [("a", 1), ("é", 2), ("数", 3)]
        digest = RelationDigest.from_rows("R", rows)
        for key in ("a", "é", "数"):
            assert not digest.disjoint_from(["zz", key])

    def test_empty_relation_is_disjoint_from_everything(self):
        digest = RelationDigest.from_rows("R", [])
        assert digest.row_count == 0
        assert not digest.may_contain("anything")
        assert digest.disjoint_from(["a", 0, "🛰", ""])

    def test_hashing_is_process_stable(self):
        """Two independently built digests of the same rows agree bit
        for bit (blake2b over the canonical encoding, never the salted
        builtin hash)."""
        rows = [("clé", 1), (42, "x")]
        one = RelationDigest.from_rows("R", rows)
        two = RelationDigest.from_rows("R", list(reversed(rows)))
        assert one.bits == two.bits
        assert one.fingerprint == two.fingerprint


class TestMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_merged_slices_keep_the_guarantee(self, seed):
        rng = random.Random(seed)
        rows = rand_rows(rng, allow_empty=False)
        cut = rng.randint(0, len(rows))
        left = RelationDigest.from_rows("R", rows[:cut])
        right = RelationDigest.from_rows("R", rows[cut:])
        merged = left.merge(right)
        assert merged.row_count == len(rows)
        for row in rows:
            assert merged.may_contain(row[0]), row

    def test_mismatched_parameters_refuse_to_merge(self):
        a = RelationDigest.from_rows("R", [("a", 1)])
        b = RelationDigest.from_rows("S", [("a", 1)])
        with pytest.raises(ValueError):
            a.merge(b)
        # power-of-two width ratios fold-merge legally now; a width
        # that does not divide evenly still refuses
        odd = RelationDigest.from_rows("R", [("a", 1)], nbits=96)
        with pytest.raises(ValueError):
            a.merge(odd)
        more_hashes = RelationDigest.from_rows("R", [("a", 1)], k=3)
        with pytest.raises(ValueError):
            a.merge(more_hashes)

    def test_cross_width_merge_keeps_the_guarantee(self):
        wide = RelationDigest.from_rows(
            "R", [(f"w{i}", i) for i in range(40)], nbits=512)
        narrow = RelationDigest.from_rows("R", [("a", 1), ("b", 2)],
                                          nbits=128)
        for merged in (wide.merge(narrow), narrow.merge(wide)):
            assert merged.nbits == 128
            assert merged.row_count == 42
            for key in ["a", "b"] + [f"w{i}" for i in range(40)]:
                assert merged.may_contain(key), key


class TestAdaptiveSizing:
    def test_width_is_a_clamped_power_of_two(self):
        assert adaptive_nbits(0) == DIGEST_BITS
        assert adaptive_nbits(16) == DIGEST_BITS
        assert adaptive_nbits(17) == 256
        assert adaptive_nbits(64) == 512
        assert adaptive_nbits(10_000) == DIGEST_MAX_BITS
        for count in range(0, 300, 7):
            width = adaptive_nbits(count)
            assert DIGEST_BITS <= width <= DIGEST_MAX_BITS
            assert width & (width - 1) == 0

    def test_from_rows_defaults_to_adaptive_width(self):
        small = RelationDigest.from_rows("R", [("a", 1)])
        large = RelationDigest.from_rows(
            "R", [(f"k{i}", i) for i in range(100)])
        assert small.nbits == adaptive_nbits(1) == DIGEST_BITS
        assert large.nbits == adaptive_nbits(100) == 1024

    @pytest.mark.parametrize("n_rows", (8, 40, 120))
    def test_false_positive_rate_stays_pinned(self, n_rows):
        """~8 bits/row with two hashes keeps the false-positive rate
        around (1 - e^(-2/8))^2 ≈ 4.9% regardless of relation size —
        the property adaptive sizing exists to hold.  The bound leaves
        seeded-variance headroom but would catch a sizing regression
        (a fixed 128-bit digest at 120 rows false-positives ~88%)."""
        rng = random.Random(f"fp:{n_rows}")
        rows = [(f"in{i}", i) for i in range(n_rows)]
        digest = RelationDigest.from_rows("R", rows)
        probes = [f"out{rng.randrange(10**9)}" for _ in range(2000)]
        false_positives = sum(digest.may_contain(p) for p in probes)
        assert false_positives / len(probes) < 0.11


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_relation_digest_dict_round_trip(self, seed):
        rng = random.Random(seed)
        digest = RelationDigest.from_rows("Rel", rand_rows(rng))
        assert RelationDigest.from_dict(digest.to_dict()) == digest

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_neighbour_digests_dict_round_trip(self, seed):
        rng = random.Random(seed)
        tables = {f"R{i}": rand_rows(rng) for i in range(3)}
        digests = NeighbourDigests.from_tables("Pé", f"v{seed}", tables)
        assert NeighbourDigests.from_dict(digests.to_dict()) == digests
        for relation in tables:
            assert digests.digest_for(relation) is not None
        assert digests.digest_for("missing") is None

    def test_dict_form_is_json_safe_hex(self):
        digest = RelationDigest.from_rows("R", [("🛰", 1)])
        encoded = digest.to_dict()
        assert set(encoded["bits"]) <= set("0123456789abcdef")
        assert len(encoded["bits"]) == (DIGEST_BITS + 3) // 4


class TestDigestBytes:
    def test_none_costs_nothing(self):
        assert digest_bytes(None) == 0

    def test_bundle_cost_scales_with_relations(self):
        small = NeighbourDigests.from_tables("P", "v", {"R": []})
        large = NeighbourDigests.from_tables(
            "P", "v", {f"R{i}": [] for i in range(5)})
        assert 0 < digest_bytes(small) < digest_bytes(large)
