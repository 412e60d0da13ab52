"""Unit tests for schemas and instances (Definitions 1-3 vocabulary)."""

import pytest

from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    InstanceError,
    RelationSchema,
    SchemaError,
)


class TestRelationSchema:
    def test_default_attribute_names(self):
        schema = RelationSchema("R", 3)
        assert schema.attributes == ("a0", "a1", "a2")

    def test_named_attributes(self):
        schema = RelationSchema("emp", 2, ["name", "dept"])
        assert schema.position_of("dept") == 1

    def test_attribute_count_mismatch(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, ["only_one"])

    def test_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, ["x", "x"])

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 1).position_of("zz")

    def test_negative_arity(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", -1)


class TestDatabaseSchema:
    def test_of_shorthand(self):
        schema = DatabaseSchema.of({"R1": 2, "R2": 3})
        assert schema.arity("R1") == 2
        assert schema.arity("R2") == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([RelationSchema("R", 1), RelationSchema("R", 2)])

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            DatabaseSchema.of({"R": 1}).relation("S")

    def test_disjoint_union(self):
        left = DatabaseSchema.of({"R1": 2})
        right = DatabaseSchema.of({"S1": 2})
        union = left.disjoint_union(right)
        assert set(union.names) == {"R1", "S1"}

    def test_disjoint_union_rejects_overlap(self):
        left = DatabaseSchema.of({"R1": 2})
        right = DatabaseSchema.of({"R1": 2})
        with pytest.raises(SchemaError):
            left.disjoint_union(right)

    def test_restrict(self):
        schema = DatabaseSchema.of({"R1": 2, "R2": 2, "R3": 1})
        sub = schema.restrict(["R1", "R3"])
        assert set(sub.names) == {"R1", "R3"}

    def test_is_subschema(self):
        schema = DatabaseSchema.of({"R1": 2, "R2": 2})
        assert schema.restrict(["R1"]).is_subschema_of(schema)
        assert not schema.is_subschema_of(schema.restrict(["R1"]))


SCHEMA = DatabaseSchema.of({"R1": 2, "R2": 2})


def make(data):
    return DatabaseInstance(SCHEMA, data)


class TestDatabaseInstance:
    def test_empty_relations_present(self):
        inst = make({})
        assert inst.tuples("R1") == frozenset()
        assert inst.tuples("R2") == frozenset()

    def test_arity_enforced(self):
        with pytest.raises(InstanceError):
            make({"R1": [("a",)]})

    def test_unknown_relation_rejected(self):
        with pytest.raises(InstanceError):
            make({"R9": [("a", "b")]})

    def test_facts_sigma(self):
        inst = make({"R1": [("a", "b")], "R2": [("c", "d")]})
        assert inst.facts() == {Fact("R1", ("a", "b")),
                                Fact("R2", ("c", "d"))}

    def test_contains(self):
        inst = make({"R1": [("a", "b")]})
        assert Fact("R1", ("a", "b")) in inst
        assert Fact("R1", ("b", "a")) not in inst

    def test_active_domain(self):
        inst = make({"R1": [("a", "b")], "R2": [("a", 3)]})
        assert inst.active_domain() == {"a", "b", 3}

    def test_size(self):
        inst = make({"R1": [("a", "b"), ("c", "d")], "R2": [("a", "b")]})
        assert inst.size() == 3


class TestDelta:
    def test_delta_is_symmetric_difference(self):
        one = make({"R1": [("a", "b"), ("c", "d")]})
        two = make({"R1": [("a", "b")], "R2": [("x", "y")]})
        delta = one.delta(two)
        assert delta == {Fact("R1", ("c", "d")), Fact("R2", ("x", "y"))}
        assert one.delta(two) == two.delta(one)

    def test_delta_with_self_empty(self):
        inst = make({"R1": [("a", "b")]})
        assert inst.delta(inst) == set()

    def test_insertions_deletions(self):
        base = make({"R1": [("a", "b")]})
        changed = make({"R1": [("c", "d")]})
        assert changed.insertions_from(base) == {Fact("R1", ("c", "d"))}
        assert changed.deletions_from(base) == {Fact("R1", ("a", "b"))}

    def test_closer_or_equal(self):
        origin = make({"R1": [("a", "b"), ("c", "d")]})
        near = make({"R1": [("a", "b")]})                  # Δ = {cd}
        far = make({"R1": []})                             # Δ = {ab, cd}
        assert DatabaseInstance.closer_or_equal(origin, near, far)
        assert not DatabaseInstance.closer_or_equal(origin, far, near)

    def test_closer_or_equal_incomparable(self):
        origin = make({"R1": [("a", "b"), ("c", "d")]})
        drop_first = make({"R1": [("c", "d")]})
        drop_second = make({"R1": [("a", "b")]})
        assert not DatabaseInstance.closer_or_equal(
            origin, drop_first, drop_second)
        assert not DatabaseInstance.closer_or_equal(
            origin, drop_second, drop_first)


class TestFunctionalUpdates:
    def test_with_facts_is_functional(self):
        inst = make({"R1": [("a", "b")]})
        extended = inst.with_facts([Fact("R2", ("x", "y"))])
        assert Fact("R2", ("x", "y")) in extended
        assert Fact("R2", ("x", "y")) not in inst

    def test_without_facts(self):
        inst = make({"R1": [("a", "b"), ("c", "d")]})
        reduced = inst.without_facts([Fact("R1", ("a", "b"))])
        assert reduced.tuples("R1") == frozenset({("c", "d")})

    def test_without_absent_fact_ignored(self):
        inst = make({"R1": [("a", "b")]})
        assert inst.without_facts([Fact("R1", ("z", "z"))]) == inst

    def test_with_unknown_relation_rejected(self):
        inst = make({})
        with pytest.raises(InstanceError):
            inst.with_facts([Fact("R9", ("a", "b"))])

    def test_apply_change(self):
        inst = make({"R1": [("a", "b")]})
        changed = inst.apply_change(insertions=[Fact("R2", ("u", "v"))],
                                    deletions=[Fact("R1", ("a", "b"))])
        assert changed.facts() == {Fact("R2", ("u", "v"))}

    def test_replace_relations(self):
        inst = make({"R1": [("a", "b")]})
        replaced = inst.replace_relations({"R1": [("z", "z")]})
        assert replaced.tuples("R1") == frozenset({("z", "z")})


class TestRestrictCombine:
    def test_restrict(self):
        inst = make({"R1": [("a", "b")], "R2": [("c", "d")]})
        restricted = inst.restrict(["R1"])
        assert restricted.facts() == {Fact("R1", ("a", "b"))}
        assert "R2" not in restricted.schema

    def test_combine_disjoint(self):
        left = DatabaseInstance(DatabaseSchema.of({"R1": 2}),
                                {"R1": [("a", "b")]})
        right = DatabaseInstance(DatabaseSchema.of({"S1": 2}),
                                 {"S1": [("c", "d")]})
        combined = left.combine(right)
        assert combined.size() == 2

    def test_combine_overlapping_rejected(self):
        left = DatabaseInstance(DatabaseSchema.of({"R1": 2}))
        right = DatabaseInstance(DatabaseSchema.of({"R1": 2}))
        with pytest.raises(SchemaError):
            left.combine(right)

    def test_gather_shares_rows_and_built_indexes(self):
        left = DatabaseInstance(DatabaseSchema.of({"R1": 2, "R2": 1}),
                                {"R1": [("a", "b")], "R2": [("c",)]})
        right = DatabaseInstance(DatabaseSchema.of({"S1": 2}),
                                 {"S1": [("c", "d")]})
        built = left.index("R1")
        gathered = DatabaseInstance.gather({"S1": right, "R1": left})
        assert gathered == left.restrict(["R1"]).combine(right)
        assert gathered.schema.names == ("S1", "R1")
        assert gathered.tuples("R1") is left.tuples("R1")
        assert gathered.index("R1") is built
        assert DatabaseInstance.gather({}).is_empty()


class TestDunder:
    def test_equality_and_hash(self):
        one = make({"R1": [("a", "b")]})
        two = make({"R1": [("a", "b")]})
        assert one == two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_str_sorted(self):
        inst = make({"R1": [("c", "d"), ("a", "b")]})
        assert str(inst) == "{R1(a, b), R1(c, d)}"

    def test_fact_ordering(self):
        facts = sorted([Fact("R2", ("a", "b")), Fact("R1", ("z", "z")),
                        Fact("R1", ("a", "a"))])
        assert [f.relation for f in facts] == ["R1", "R1", "R2"]

    def test_mixed_type_fact_ordering(self):
        assert sorted([Fact("R", (1,)), Fact("R", ("a",))])[0] == \
            Fact("R", (1,))


class TestIndexLayer:
    """The per-relation hash indexes behind the evaluation planner."""

    def test_rows_matching_exact(self):
        inst = make({"R1": [("a", "b"), ("a", "c"), ("b", "b")]})
        assert set(inst.index("R1").matching({0: "a"})) == \
            {("a", "b"), ("a", "c")}
        assert set(inst.index("R1").matching({0: "a", 1: "b"})) == \
            {("a", "b")}
        assert inst.index("R1").matching({0: "zz"}) == []
        assert set(inst.index("R1").matching({})) == \
            {("a", "b"), ("a", "c"), ("b", "b")}

    def test_rows_matching_unknown_relation(self):
        with pytest.raises(InstanceError):
            make({}).index("nope").matching({0: "a"})

    def test_with_facts_maintains_built_indexes(self):
        inst = make({"R1": [("a", "b")]})
        inst.index("R1").column(0)  # force the column index to exist
        grown = inst.with_facts([Fact("R1", ("a", "c")),
                                 Fact("R2", ("x", "y"))])
        assert set(grown.index("R1").matching({0: "a"})) == \
            {("a", "b"), ("a", "c")}
        assert set(grown.index("R2").matching({1: "y"})) == {("x", "y")}
        # the parent instance is untouched
        assert set(inst.index("R1").matching({0: "a"})) == {("a", "b")}

    def test_without_facts_maintains_built_indexes(self):
        inst = make({"R1": [("a", "b"), ("a", "c")]})
        inst.index("R1").column(0)
        shrunk = inst.without_facts([Fact("R1", ("a", "b")),
                                     Fact("R1", ("z", "z"))])  # absent ok
        assert set(shrunk.index("R1").matching({0: "a"})) == {("a", "c")}
        assert set(inst.index("R1").matching({0: "a"})) == \
            {("a", "b"), ("a", "c")}

    def test_untouched_relation_shares_index_object(self):
        inst = make({"R1": [("a", "b")], "R2": [("x", "y")]})
        inst.index("R2")
        grown = inst.with_facts([Fact("R1", ("c", "d"))])
        assert grown.index("R2") is inst.index("R2")
        assert grown.index("R1") is not inst.index("R1")

    def test_restrict_carries_indexes(self):
        inst = make({"R1": [("a", "b")], "R2": [("x", "y")]})
        inst.index("R1")
        restricted = inst.restrict(["R1"])
        assert restricted.index("R1") is inst.index("R1")
        assert set(restricted.index("R1").matching({0: "a"})) == \
            {("a", "b")}

    def test_with_facts_still_validates(self):
        inst = make({})
        with pytest.raises(InstanceError):
            inst.with_facts([Fact("R1", ("too", "many", "cols"))])
        with pytest.raises(InstanceError):
            inst.with_facts([Fact("nope", ("a",))])
        with pytest.raises(InstanceError):
            inst.replace_relations({"R1": [("a",)]})
