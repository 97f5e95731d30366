"""Unit tests for entity schemas and the schema registry."""

from __future__ import annotations

import pytest

from repro.core.schema import (
    EntitySchema,
    Field,
    FieldType,
    SchemaError,
    SchemaRegistry,
)

pytestmark = pytest.mark.tier1


def profiles_schema():
    return EntitySchema(
        name="profiles",
        key_fields=[Field("user_id", FieldType.STRING)],
        value_fields=[Field("name"), Field("birthday"), Field("age", FieldType.INT)],
    )


def friendships_schema(cap=5000):
    return EntitySchema(
        name="friendships",
        key_fields=[Field("f1"), Field("f2")],
        max_per_partition=cap,
        column_bounds={"f2": cap},
    )


class TestField:
    def test_string_field_accepts_strings(self):
        Field("name", FieldType.STRING).validate("alice")

    def test_int_field_rejects_strings(self):
        with pytest.raises(SchemaError):
            Field("age", FieldType.INT).validate("old")

    def test_float_field_accepts_ints(self):
        Field("score", FieldType.FLOAT).validate(3)

    def test_bool_is_rejected_everywhere(self):
        with pytest.raises(SchemaError):
            Field("age", FieldType.INT).validate(True)

    def test_none_is_allowed(self):
        Field("name").validate(None)


class TestEntitySchema:
    def test_field_accessors(self):
        schema = profiles_schema()
        assert schema.key_field_names == ["user_id"]
        assert "birthday" in [field.name for field in schema.value_fields]
        assert schema.has_field("name")
        assert not schema.has_field("nope")
        assert schema.is_key_field("user_id")
        assert schema.key_position("user_id") == 0

    def test_storage_key_extracts_key_tuple(self):
        schema = friendships_schema()
        assert schema.storage_key({"f1": "a", "f2": "b"}) == ("a", "b")

    def test_storage_key_missing_field_raises(self):
        with pytest.raises(SchemaError):
            friendships_schema().storage_key({"f1": "a"})

    def test_validate_row_rejects_unknown_fields(self):
        with pytest.raises(SchemaError):
            profiles_schema().validate_row({"user_id": "u1", "unknown": 1})

    def test_validate_row_rejects_bad_types(self):
        with pytest.raises(SchemaError):
            profiles_schema().validate_row({"user_id": "u1", "age": "young"})

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(SchemaError):
            EntitySchema("bad", key_fields=[Field("a")], value_fields=[Field("a")])

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaError):
            EntitySchema("bad", key_fields=[])

    def test_column_bounds_must_reference_known_fields(self):
        with pytest.raises(SchemaError):
            EntitySchema("bad", key_fields=[Field("a")], column_bounds={"zzz": 5})

    def test_rows_per_value_bound_for_single_field_key(self):
        assert profiles_schema().rows_per_value_bound("user_id") == 1

    def test_rows_per_value_bound_for_partition_key(self):
        assert friendships_schema(cap=100).rows_per_value_bound("f1") == 100

    def test_rows_per_value_bound_for_declared_column(self):
        assert friendships_schema(cap=100).rows_per_value_bound("f2") == 100

    def test_rows_per_value_bound_unbounded_returns_none(self):
        schema = EntitySchema("followers", key_fields=[Field("f1"), Field("f2")])
        assert schema.rows_per_value_bound("f1") is None

    def test_rows_per_value_bound_unknown_field_raises(self):
        with pytest.raises(SchemaError):
            profiles_schema().rows_per_value_bound("nope")


class TestSchemaRegistry:
    def test_register_and_lookup(self):
        registry = SchemaRegistry()
        registry.register_entity(profiles_schema())
        assert registry.has_entity("profiles")
        assert registry.entity("profiles").name == "profiles"
        assert not registry.has_entity("statuses")

    def test_duplicate_entity_rejected(self):
        registry = SchemaRegistry()
        registry.register_entity(profiles_schema())
        with pytest.raises(SchemaError):
            registry.register_entity(profiles_schema())

    def test_unknown_entity_raises(self):
        with pytest.raises(SchemaError):
            SchemaRegistry().entity("missing")

    def test_cardinality_bound_passthrough(self):
        registry = SchemaRegistry()
        registry.register_entity(friendships_schema(cap=123))
        assert registry.entity("friendships").max_per_partition == 123
