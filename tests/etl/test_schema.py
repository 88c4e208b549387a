"""Unit tests for the schema model."""

import pytest

from repro.etl.schema import EMPTY_SCHEMA, DataType, Field, Schema, decoding_scope


class TestDataType:
    def test_numeric_classification(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.DECIMAL.is_numeric
        assert not DataType.STRING.is_numeric
        assert not DataType.DATE.is_numeric

    def test_temporal_classification(self):
        assert DataType.DATE.is_temporal
        assert DataType.TIMESTAMP.is_temporal
        assert not DataType.INTEGER.is_temporal

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("int", DataType.INTEGER),
            ("BIGINT", DataType.INTEGER),
            ("varchar", DataType.STRING),
            ("Double", DataType.DECIMAL),
            ("datetime", DataType.TIMESTAMP),
            ("bool", DataType.BOOLEAN),
            ("blob", DataType.BINARY),
            ("date", DataType.DATE),
        ],
    )
    def test_parse_aliases(self, text, expected):
        assert DataType.parse(text) is expected

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown data type"):
            DataType.parse("geometry")


class TestField:
    def test_defaults(self):
        field = Field("amount")
        assert field.dtype is DataType.STRING
        assert field.nullable
        assert not field.key

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Field("")

    def test_renamed_preserves_other_attributes(self):
        field = Field("a", DataType.INTEGER, nullable=False, key=True)
        renamed = field.renamed("b")
        assert renamed.name == "b"
        assert renamed.dtype is DataType.INTEGER
        assert not renamed.nullable
        assert renamed.key
        # original untouched (frozen dataclass)
        assert field.name == "a"

    def test_with_nullability(self):
        field = Field("a", nullable=True)
        assert not field.with_nullability(False).nullable


class TestSchemaConstruction:
    def test_of_and_len(self, simple_schema):
        assert len(simple_schema) == 4
        assert simple_schema.names == ("id", "name", "amount", "created_at")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema.of(Field("a"), Field("a"))

    def test_from_pairs_and_mapping(self):
        schema = Schema.from_pairs([("a", DataType.INTEGER), ("b", DataType.STRING)])
        assert schema.names == ("a", "b")
        schema2 = Schema.from_mapping({"x": DataType.DATE})
        assert schema2.field("x").dtype is DataType.DATE

    def test_empty_schema_constant(self):
        assert len(EMPTY_SCHEMA) == 0


class TestSchemaIntrospection:
    def test_contains_and_get(self, simple_schema):
        assert "id" in simple_schema
        assert "missing" not in simple_schema
        assert simple_schema.get("missing") is None
        assert simple_schema.get("amount").dtype is DataType.DECIMAL

    def test_field_raises_on_missing(self, simple_schema):
        with pytest.raises(KeyError):
            simple_schema.field("missing")

    def test_classified_fields(self, simple_schema):
        assert [f.name for f in simple_schema.key_fields] == ["id"]
        assert [f.name for f in simple_schema.numeric_fields] == ["id", "amount"]
        assert [f.name for f in simple_schema.temporal_fields] == ["created_at"]
        assert "id" not in [f.name for f in simple_schema.nullable_fields]

    def test_iteration(self, simple_schema):
        assert [f.name for f in simple_schema] == list(simple_schema.names)


class TestSchemaDerivation:
    def test_project(self, simple_schema):
        projected = simple_schema.project(["amount", "id"])
        assert projected.names == ("amount", "id")

    def test_project_missing_raises(self, simple_schema):
        with pytest.raises(KeyError):
            simple_schema.project(["nope"])

    def test_drop(self, simple_schema):
        assert simple_schema.drop(["name"]).names == ("id", "amount", "created_at")

    def test_drop_missing_raises(self, simple_schema):
        with pytest.raises(KeyError):
            simple_schema.drop(["nope"])

    def test_extend(self, simple_schema):
        extended = simple_schema.extend(Field("extra", DataType.BOOLEAN))
        assert "extra" in extended
        assert len(extended) == len(simple_schema) + 1

    def test_rename(self, simple_schema):
        renamed = simple_schema.rename({"id": "identifier"})
        assert "identifier" in renamed
        assert "id" not in renamed

    def test_rename_missing_raises(self, simple_schema):
        with pytest.raises(KeyError):
            simple_schema.rename({"nope": "x"})

    def test_merge_disambiguates_collisions(self, simple_schema):
        merged = simple_schema.merge(simple_schema)
        assert len(merged) == 2 * len(simple_schema)
        assert "r_id" in merged

    def test_merge_with_custom_prefix(self, simple_schema):
        merged = simple_schema.merge(simple_schema, prefix="other_")
        assert "other_id" in merged

    def test_without_nulls(self, simple_schema):
        assert simple_schema.without_nulls().nullable_fields == ()

    def test_compatibility(self, simple_schema):
        subset = simple_schema.project(["id", "amount"])
        assert simple_schema.is_compatible_with(subset)
        assert not subset.is_compatible_with(simple_schema)

    def test_compatibility_requires_same_types(self, simple_schema):
        other = Schema.of(Field("id", DataType.STRING))
        assert not simple_schema.is_compatible_with(other)


class TestSchemaSerialisation:
    def test_round_trip(self, simple_schema):
        data = simple_schema.to_dict()
        restored = Schema.from_dict(data)
        assert restored == simple_schema
        for dtype in ("no-such-type", ["integer"]):
            with pytest.raises(ValueError, match="not a valid DataType"):
                Schema.from_dict([dict(data[0], dtype=dtype)])

    def test_to_dict_structure(self, simple_schema):
        data = simple_schema.to_dict()
        assert data[0] == {"name": "id", "dtype": "integer", "nullable": False, "key": True}


class TestDecodingScope:
    def test_equal_documents_share_one_schema_inside_the_scope(self, simple_schema):
        data = simple_schema.to_dict()
        with decoding_scope():
            first = Schema.from_dict(data)
            again = Schema.from_dict([dict(item) for item in data])
            other = Schema.from_dict(data[:2])
        assert first is again and first == simple_schema
        assert other is not first and other == simple_schema.project(["id", "name"])

    def test_outside_the_scope_every_document_decodes_afresh(self, simple_schema):
        data = simple_schema.to_dict()
        with decoding_scope():
            inside = Schema.from_dict(data)
        assert Schema.from_dict(data) is not inside
        assert Schema.from_dict(data) is not Schema.from_dict(data)

    def test_nested_scopes_share_the_outer_memo(self, simple_schema):
        data = simple_schema.to_dict()
        with decoding_scope():
            outer = Schema.from_dict(data)
            with decoding_scope():
                assert Schema.from_dict(data) is outer
            assert Schema.from_dict(data) is outer

    def test_same_items_in_another_order_decode_equal(self):
        with decoding_scope():
            one = Schema.from_dict([{"name": "a", "dtype": "string"}])
            two = Schema.from_dict([{"dtype": "string", "name": "a"}])
            swapped = Schema.from_dict([{"name": "string", "dtype": "integer"}])
        assert one == two
        assert swapped.fields[0].name == "string"

    def test_unhashable_documents_decode_without_the_memo(self):
        with decoding_scope():
            schema = Schema.from_dict([{"name": "a", "dtype": "string", "tags": ["x"]}])
        assert schema.fields[0].name == "a"
