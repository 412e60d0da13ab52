"""TupleIndex incremental-maintenance edge cases hit by delta replay.

A reloaded peer replays its delta log through the instance's functional
updates, which drive :meth:`TupleIndex.add`/:meth:`discard` on every
already-built column index.  These tests pin the awkward corners of
that path: buckets emptied and re-filled, multi-column ``matching``
after interleaved changes, and index isolation between a parent
instance and its derived copies.
"""

from repro.relational import DatabaseInstance, DatabaseSchema, Fact
from repro.relational.indexes import TupleIndex

SCHEMA = DatabaseSchema.of({"R": 2})


def instance(rows):
    return DatabaseInstance(SCHEMA, {"R": rows})


class TestBucketLifecycle:
    def test_discard_to_empty_bucket_then_re_add(self):
        index = TupleIndex([("a", "b"), ("c", "d")])
        assert index.matching({0: "a"}) == [("a", "b")]  # builds col 0
        assert index.discard(("a", "b"))
        # the "a" bucket emptied: it must be gone, not a stale empty set
        assert index.matching({0: "a"}) == []
        assert "a" not in index.column(0)
        assert index.add(("a", "z"))
        assert index.matching({0: "a"}) == [("a", "z")]
        assert index.matching({0: "a", 1: "z"}) == [("a", "z")]

    def test_re_add_the_exact_discarded_row(self):
        index = TupleIndex([("a", "b")])
        index.column(0)
        index.column(1)
        index.discard(("a", "b"))
        index.add(("a", "b"))
        assert index.matching({0: "a"}) == [("a", "b")]
        assert index.matching({1: "b"}) == [("a", "b")]
        assert len(index) == 1

    def test_noop_add_and_discard_report_false(self):
        index = TupleIndex([("a", "b")])
        index.column(0)
        assert not index.add(("a", "b"))
        assert not index.discard(("x", "y"))
        assert index.matching({0: "a"}) == [("a", "b")]


class TestMultiColumnMatchingAfterInterleavedDeltas:
    def test_matching_filters_all_bound_columns(self):
        index = TupleIndex()
        index.column(0)  # built before any row exists
        index.apply_delta(insertions=[("a", "b"), ("a", "c"),
                                      ("x", "b")])
        index.apply_delta(insertions=[("a", "d")],
                          deletions=[("a", "c")])
        index.apply_delta(insertions=[("a", "c")],
                          deletions=[("a", "d"), ("x", "b")])
        assert sorted(index) == [("a", "b"), ("a", "c")]
        assert index.matching({0: "a", 1: "c"}) == [("a", "c")]
        assert index.matching({0: "x", 1: "b"}) == []
        # a column built only after the deltas sees the same rows
        assert index.matching({1: "b"}) == [("a", "b")]

    def test_delete_then_reinsert_in_one_delta(self):
        # delta replay deletes first, inserts second: a row present in
        # both lists must end present
        index = TupleIndex([("a", "b")])
        index.column(0)
        index.apply_delta(insertions=[("a", "b")],
                          deletions=[("a", "b")])
        assert ("a", "b") in index
        assert index.matching({0: "a"}) == [("a", "b")]


class TestSharedIndexIsolation:
    def test_parent_index_untouched_by_with_facts(self):
        parent = instance([("a", "b")])
        parent_index = parent.index("R")
        assert parent.index("R").matching({0: "a"}) == [("a", "b")]
        derived = parent.with_facts([Fact("R", ("a", "c"))])
        assert sorted(derived.index("R").matching({0: "a"})) == \
            [("a", "b"), ("a", "c")]
        # the parent still answers from its own (uncloned) index
        assert parent.index("R").matching({0: "a"}) == [("a", "b")]
        assert parent.index("R") is parent_index
        assert derived.index("R") is not parent_index

    def test_parent_index_untouched_by_without_facts(self):
        parent = instance([("a", "b"), ("a", "c")])
        parent.index("R").column(0)
        derived = parent.without_facts([Fact("R", ("a", "b"))])
        assert derived.index("R").matching({0: "a"}) == [("a", "c")]
        assert sorted(parent.index("R").matching({0: "a"})) == \
            [("a", "b"), ("a", "c")]

    def test_untouched_relation_shares_the_index_object(self):
        schema = DatabaseSchema.of({"R": 2, "S": 2})
        parent = DatabaseInstance(schema, {"R": [("a", "b")],
                                           "S": [("s", "t")]})
        shared = parent.index("S")
        derived = parent.with_facts([Fact("R", ("c", "d"))])
        assert derived.index("S") is shared  # identical rows: share
        assert derived.index("R") is not parent.index("R")

    def test_sibling_derivatives_do_not_interfere(self):
        parent = instance([("a", "b")])
        parent.index("R").column(0)
        plus = parent.with_facts([Fact("R", ("a", "c"))])
        minus = parent.without_facts([Fact("R", ("a", "b"))])
        assert sorted(plus.index("R").matching({0: "a"})) == \
            [("a", "b"), ("a", "c")]
        assert minus.index("R").matching({0: "a"}) == []
        assert parent.index("R").matching({0: "a"}) == [("a", "b")]
