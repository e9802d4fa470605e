"""Tests for schemas and type inference."""

import pytest

from repro.columnstore.schema import Schema, infer_column_type
from repro.errors import SchemaError
from repro.types import ColumnType
from repro.util.binary import BufferReader


class TestInference:
    def test_basic_types(self):
        assert infer_column_type(1) is ColumnType.INT64
        assert infer_column_type(1.5) is ColumnType.FLOAT64
        assert infer_column_type("x") is ColumnType.STRING
        assert infer_column_type(["x"]) is ColumnType.STRING_VECTOR

    def test_bool_rejected(self):
        with pytest.raises(SchemaError):
            infer_column_type(True)

    def test_unsupported_rejected(self):
        with pytest.raises(SchemaError):
            infer_column_type({"nested": 1})


class TestSchema:
    def test_requires_time_column(self):
        with pytest.raises(SchemaError):
            Schema({"host": ColumnType.STRING})

    def test_time_must_be_int64(self):
        with pytest.raises(SchemaError):
            Schema({"time": ColumnType.STRING})

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema({"time": ColumnType.INT64, "": ColumnType.STRING})

    def test_from_rows_union(self):
        rows = [
            {"time": 1, "host": "a"},
            {"time": 2, "latency": 1.5},
        ]
        schema = Schema.from_rows(rows)
        assert set(schema.names) == {"time", "host", "latency"}
        assert schema.type_of("latency") is ColumnType.FLOAT64

    def test_from_rows_conflict_raises(self):
        rows = [{"time": 1, "v": 1}, {"time": 2, "v": "oops"}]
        with pytest.raises(SchemaError):
            Schema.from_rows(rows)

    def test_from_rows_without_time_raises(self):
        with pytest.raises(SchemaError):
            Schema.from_rows([{"host": "a"}])

    def test_unknown_column_raises(self):
        schema = Schema({"time": ColumnType.INT64})
        with pytest.raises(SchemaError):
            schema.type_of("missing")

    def test_column_values_fill_defaults(self):
        schema = Schema(
            {"time": ColumnType.INT64, "host": ColumnType.STRING,
             "v": ColumnType.FLOAT64, "tags": ColumnType.STRING_VECTOR}
        )
        rows = [{"time": 1}, {"time": 2, "host": "x", "v": 2, "tags": ["a"]}]
        assert schema.column_values("host", rows) == ["", "x"]
        assert schema.column_values("v", rows) == [0.0, 2.0]
        assert schema.column_values("tags", rows) == [[], ["a"]]

    def test_column_values_copies_lists(self):
        schema = Schema({"time": ColumnType.INT64, "tags": ColumnType.STRING_VECTOR})
        tags = ["a"]
        values = schema.column_values("tags", [{"time": 1, "tags": tags}])
        values[0].append("mutated")
        assert tags == ["a"]

    def test_column_values_type_checked(self):
        schema = Schema({"time": ColumnType.INT64, "host": ColumnType.STRING})
        with pytest.raises(TypeError):
            schema.column_values("host", [{"time": 1, "host": 5}])

    def test_only_exactly_typed_columns_skip_the_per_value_checks(self):
        """A column whose values are all exactly int / float / str is
        taken as it stands; anything else in it (a bool, an int in a
        float column, an int subclass) still meets the per-value path."""
        import enum

        class Level(enum.IntEnum):
            HIGH = 7

        schema = Schema(
            {"time": ColumnType.INT64, "n": ColumnType.INT64, "v": ColumnType.FLOAT64}
        )
        rows = [{"time": 1, "n": 3, "v": 1.5}, {"time": 2, "n": Level.HIGH, "v": 2}]
        assert schema.column_values("time", rows) == [1, 2]
        assert schema.column_values("n", rows) == [3, 7]
        values = schema.column_values("v", rows)
        assert values == [1.5, 2.0] and all(type(v) is float for v in values)
        for column, bad in (("n", True), ("v", False), ("n", 1.0), ("v", "1.0")):
            with pytest.raises(TypeError):
                schema.column_values(column, rows + [{"time": 3, column: bad}])
        with pytest.raises(SchemaError, match="boolean"):
            Schema.from_rows(rows[:1] + [{"time": 3, "n": True}])
        with pytest.raises(SchemaError, match="both FLOAT64 and INT64"):
            Schema.from_rows(rows)
        assert Schema.from_rows(rows[:1] + [{"time": Level.HIGH}]).type_of("time") is ColumnType.INT64

    def test_string_vector_fast_path_copies_and_the_rest_is_checked(self):
        """Vectors that are exact lists of exact strs are copied as they
        stand; a list subclass or a non-str item meets the per-value path,
        which copies the first and rejects the second as it always did."""

        class Tags(list):
            pass

        class Name(str):
            pass

        schema = Schema({"time": ColumnType.INT64, "tags": ColumnType.STRING_VECTOR})
        shared = ["a", "b"]
        rows = [{"time": 1, "tags": shared}, {"time": 2}, {"time": 3, "tags": shared}]
        values = schema.column_values("tags", rows)
        assert values == [["a", "b"], [], ["a", "b"]]
        assert all(type(v) is list for v in values)
        assert len({id(v) for v in values} | {id(shared)}) == 4  # nothing aliased
        for odd in (Tags(["x"]), ["x", Name("y")]):
            got = schema.column_values("tags", rows + [{"time": 4, "tags": odd}])
            assert got[-1] == list(odd) and type(got[-1]) is list and got[-1] is not odd
        for bad in (["x", 1], Tags(["x", b"y"]), ["x", None]):
            with pytest.raises(TypeError, match="requires a list of str"):
                schema.column_values("tags", rows + [{"time": 4, "tags": bad}])
        scalar = Schema({"time": ColumnType.INT64, "n": ColumnType.INT64})
        with pytest.raises(TypeError, match="INT64 column requires int"):
            scalar.column_values("n", [{"time": 1, "n": ["x"]}])

    def test_serialize_roundtrip(self):
        schema = Schema(
            {"time": ColumnType.INT64, "host": ColumnType.STRING,
             "tags": ColumnType.STRING_VECTOR}
        )
        assert Schema.deserialize(BufferReader(schema.wire)) == schema

    def test_equality_is_order_sensitive(self):
        a = Schema({"time": ColumnType.INT64, "x": ColumnType.STRING})
        b = Schema({"x": ColumnType.STRING, "time": ColumnType.INT64})
        assert a != b  # column order is part of the layout

    def test_hashable(self):
        schema = Schema({"time": ColumnType.INT64})
        assert schema in {schema}
