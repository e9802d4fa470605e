"""Tests for row blocks (paper, Figure 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.rowblock import ROWS_PER_BLOCK, RowBlock
from repro.columnstore.schema import Schema
from repro.errors import (
    CapacityError,
    CorruptionError,
    LayoutVersionError,
    SchemaError,
)
from repro.types import ColumnType


def rows_fixture(n=20, t0=1000):
    return [
        {"time": t0 + i, "host": f"h{i % 3}", "v": float(i), "tags": ["a"][: i % 2]}
        for i in range(n)
    ]


class TestConstruction:
    def test_header_fields(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=5.0)
        assert block.row_count == 20
        assert block.min_time == 1000
        assert block.max_time == 1019
        assert block.created_at == 5.0
        assert block.nbytes > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RowBlock.from_rows([], created_at=0.0)

    def test_row_cap_enforced(self):
        rows = [{"time": 1}] * (ROWS_PER_BLOCK + 1)
        with pytest.raises(CapacityError):
            RowBlock.from_rows(rows, created_at=0.0)

    def test_explicit_schema(self):
        schema = Schema({"time": ColumnType.INT64, "v": ColumnType.FLOAT64})
        block = RowBlock.from_rows([{"time": 1}], created_at=0.0, schema=schema)
        assert block.to_rows() == [{"time": 1, "v": 0.0}]

    def test_mismatched_rbcs_rejected(self):
        schema = Schema({"time": ColumnType.INT64})
        with pytest.raises(SchemaError):
            RowBlock(schema, {}, 1, 0, 0, 0.0)

    def test_ragged_rows_get_defaults(self):
        rows = [{"time": 1, "host": "a"}, {"time": 2, "v": 1.5}]
        block = RowBlock.from_rows(rows, created_at=0.0)
        out = block.to_rows()
        assert out[0]["v"] == 0.0
        assert out[1]["host"] == ""


class TestAccess:
    def test_column_values(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)
        assert block.column_values("time") == list(range(1000, 1020))

    def test_unknown_column(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)
        with pytest.raises(SchemaError):
            block.rbc_buffer("missing")

    def test_rbc_buffers_in_schema_order(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)
        names = [name for name, _ in block.rbc_buffers()]
        assert names == block.schema.names

    def test_verify_clean(self):
        RowBlock.from_rows(rows_fixture(), created_at=0.0).verify()

    def test_release_column(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)
        size = len(block.rbc_buffer("host"))
        assert block.release_column("host") == size
        with pytest.raises(SchemaError):
            block.rbc_buffer("host")
        with pytest.raises(SchemaError):
            block.release_column("host")


class TestTimePruning:
    def test_overlaps(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)  # 1000..1019
        assert block.overlaps(None, None)
        assert block.overlaps(1019, None)
        assert not block.overlaps(1020, None)
        assert block.overlaps(None, 1001)
        assert not block.overlaps(None, 1000)
        assert block.overlaps(990, 1005)
        assert not block.overlaps(1500, 1600)

    def test_within(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)  # 1000..1019
        assert block.within(None, None)
        assert block.within(1000, 1020)
        assert block.within(None, 1020) and block.within(1000, None)
        assert not block.within(1001, None)
        assert not block.within(None, 1019)
        assert not block.within(990, 1005)


class TestPackUnpack:
    def test_roundtrip(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=3.5)
        other = RowBlock.unpack(block.pack())
        assert other.to_rows() == block.to_rows()
        assert other.schema == block.schema
        assert (other.min_time, other.max_time, other.row_count, other.created_at) == (
            block.min_time,
            block.max_time,
            block.row_count,
            block.created_at,
        )

    def test_packed_is_position_independent(self):
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)
        packed = block.pack()
        shifted = b"\xee" * 11 + packed
        view = memoryview(shifted)[11:]
        assert RowBlock.unpack(view).to_rows() == block.to_rows()

    def test_truncation_detected(self):
        packed = RowBlock.from_rows(rows_fixture(), created_at=0.0).pack()
        with pytest.raises(CorruptionError):
            RowBlock.unpack(packed[:-10])

    def test_bad_magic_detected(self):
        packed = bytearray(RowBlock.from_rows(rows_fixture(), created_at=0.0).pack())
        packed[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            RowBlock.unpack(packed)

    def test_version_mismatch_detected(self):
        packed = bytearray(RowBlock.from_rows(rows_fixture(), created_at=0.0).pack())
        packed[4] = 77
        with pytest.raises(LayoutVersionError):
            RowBlock.unpack(packed)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "time": st.integers(min_value=0, max_value=2**40),
                    "host": st.sampled_from(["a", "b", "c"]),
                    "v": st.floats(allow_nan=False, width=32),
                }
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_roundtrip_property(self, rows):
        block = RowBlock.from_rows(rows, created_at=1.0)
        assert RowBlock.unpack(block.pack()).to_rows() == block.to_rows()
