"""Tests for row blocks (paper, Figure 2)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.rbc import RowBlockColumn
from repro.columnstore.rowblock import PACK_HEADER, ROWS_PER_BLOCK, RowBlock, read_packed_header
from repro.columnstore.schema import Schema
from repro.compression.base import CompressionFlags
from repro.errors import (
    CapacityError,
    ChecksumMismatchError,
    CorruptionError,
    LayoutVersionError,
    ReproError,
    SchemaError,
)
from repro.shm.layout import read_block_headers, table_segment_image
from repro.types import ColumnType
from repro.util.binary import BufferReader
from repro.workloads import error_logs, service_requests


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

    def test_nbytes_is_the_sum_of_the_rbcs(self):
        """Stored once at construction, and a block never changes: the
        sealed block and its unpacked copy agree with their buffers."""
        block = RowBlock.from_rows(rows_fixture(), created_at=0.0)
        for each in (block, RowBlock.unpack(block.pack())):
            assert each.nbytes == sum(len(buf) for _, buf in each.rbc_buffers()) > 0
            assert len(each.packed_preamble()) + each.nbytes == each.packed_size


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


def packed_samples():
    """Packed blocks of both ledger tables, one whose raw-string column
    is deflated (``LZ``) and one with a string-vector column."""
    ids = [{"time": i, "req": f"request-{i * 7919:09d}-payload"} for i in range(48)]
    vectors = [{"time": i, "tags": ["a", "bb", "ccc"][: i % 4]} for i in range(48)]
    blocks = {
        "service_requests": RowBlock.from_rows(list(service_requests(48, seed=3)), 1.0),
        "error_logs": RowBlock.from_rows(list(error_logs(48, seed=4)), 2.0),
        "lz_raw_string": RowBlock.from_rows(ids, 3.0),
        "string_vector": RowBlock.from_rows(vectors, 4.0),
    }
    assert RowBlockColumn(blocks["lz_raw_string"].rbc_buffer("req")).flags == CompressionFlags.LZ
    assert blocks["string_vector"].schema.type_of("tags") is ColumnType.STRING_VECTOR
    return {name: block.pack() for name, block in blocks.items()}


def oracle_unpack_verify(buf) -> None:
    """The packed layout read one field at a time, every RBC sliced by
    its header's size and checked by a :class:`RowBlockColumn` before
    any checksum: what ``RowBlock.unpack`` then ``verify`` must match."""
    view = memoryview(buf)
    *_, schema, table_at = read_packed_header(view)
    reader = BufferReader(view, offset=table_at)
    if reader.read_varint() != len(schema):
        raise CorruptionError("offset table does not match the schema")
    offsets = [reader.read_u64() for _ in schema]
    columns = []
    for offset in offsets:
        if not PACK_HEADER.size <= offset <= len(view) - 16:
            raise CorruptionError(f"offset {offset} out of bounds")
        (size,) = struct.unpack_from("<Q", view, offset + 8)
        columns.append(RowBlockColumn(view[offset : offset + size]))
    for column in columns:
        column.verify()


def outcome(check, buf):
    try:
        check(buf)
    except ReproError as exc:
        return type(exc)
    return None


def fast_unpack_verify(buf) -> None:
    RowBlock.unpack(buf).verify()


def ledger_segment(table: str) -> bytes:
    """The used bytes of a table segment holding three blocks of a
    ledger table, as the shm copy-out lays them out."""
    rows = {"service_requests": service_requests, "error_logs": error_logs}[table](96, seed=5)
    rows = list(rows)
    blocks = [RowBlock.from_rows(rows[at : at + 32], float(at)) for at in range(0, 96, 32)]
    return table_segment_image(table, blocks).preamble + b"".join(b.pack() for b in blocks)


def reread_unpack_verify(segment) -> list[RowBlock]:
    """The directory, then each block unpacked from its bytes alone."""
    view = memoryview(segment)
    _, extents = read_block_headers(view)
    blocks = [RowBlock.unpack(view[e.offset : e.offset + e.size]) for e in extents]
    for block in blocks:
        block.verify()
    return blocks


def extent_unpack_verify(segment) -> list[RowBlock]:
    """The directory, then each block's body read from its extent."""
    view = memoryview(segment)
    _, extents = read_block_headers(view)
    blocks = [RowBlock.unpack(view[e.offset : e.offset + e.size], e) for e in extents]
    for block in blocks:
        block.verify()
    return blocks


def route_outcome(route, segment):
    """The class a route raises, or the content keys of the blocks it
    rebuilds."""
    try:
        return tuple(block.content_key() for block in route(segment))
    except ReproError as exc:
        return type(exc)


class TestDecodeEquivalence:
    """``RowBlock.unpack`` + ``verify`` read the packed bytes in place;
    under every truncation and every single-byte flip they raise exactly
    when the per-column :class:`RowBlockColumn` path does, with the same
    exception class."""

    @pytest.mark.parametrize("name", ["service_requests", "error_logs", "lz_raw_string", "string_vector"])
    def test_every_truncation_and_byte_flip(self, name):
        packed = packed_samples()[name]
        assert outcome(fast_unpack_verify, packed) is outcome(oracle_unpack_verify, packed) is None
        mutants = [packed[:cut] for cut in range(len(packed))]
        for at in range(len(packed)):
            for mask in (0x01, 0xFF):
                flipped = bytearray(packed)
                flipped[at] ^= mask
                mutants.append(bytes(flipped))
        raised = set()
        for mutant in mutants:
            expected = outcome(oracle_unpack_verify, mutant)
            assert outcome(fast_unpack_verify, mutant) is expected, (len(mutant), expected)
            raised.add(expected)
        assert {CorruptionError, ChecksumMismatchError, LayoutVersionError} <= raised

    @pytest.mark.parametrize("table", ["service_requests", "error_logs"])
    def test_directory_fed_unpack_matches_a_second_header_read(self, table):
        """A segment restore reads each block's header once, at the
        directory, and hands the extent to ``unpack``: under every byte
        flip in every packed block it raises exactly when reading the
        header again does, same class, and clean it rebuilds the same
        blocks."""
        segment = ledger_segment(table)
        keys = route_outcome(reread_unpack_verify, segment)
        assert len(keys) == 3 and route_outcome(extent_unpack_verify, segment) == keys
        _, extents = read_block_headers(memoryview(segment))
        raised = set()
        for at in (at for e in extents for at in range(e.offset, e.offset + e.size)):
            for mask in (0x01, 0xFF):
                flipped = bytearray(segment)
                flipped[at] ^= mask
                expected = route_outcome(reread_unpack_verify, flipped)
                assert route_outcome(extent_unpack_verify, flipped) == expected, (at, mask)
                raised.add(expected)
        assert {CorruptionError, ChecksumMismatchError, LayoutVersionError} <= raised

    def test_packed_size_is_the_packed_length(self):
        for name, packed in packed_samples().items():
            assert RowBlock.unpack(packed).packed_size == len(packed), name
