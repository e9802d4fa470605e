"""Tests for the legacy row-oriented disk format."""

import dataclasses
import enum
import io
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rbc import RowBlockColumn, build_rbc_from_encoded
from repro.columnstore.rowblock import RowBlock
from repro.compression import CompressionFlags
from repro.compression.lzs import lz_compress
from repro.compression.pipeline import raw_string_payload
from repro.disk import format as disk_format
from repro.disk.backup import DiskBackup
from repro.disk.format import (
    CHUNK_MAGIC,
    DEFLATED_CHUNK_MAGIC,
    decode_chunk_columns,
    decode_chunk_rows,
    encode_chunk_block,
    encode_chunk_rows,
    read_file_header,
    read_table_chunks,
    write_chunk,
    write_file_header,
)
from repro.disk.recovery import recover_leafmap
from repro.errors import CorruptionError
from repro.types import ColumnType
from repro.util.binary import BufferReader, BufferWriter, encode_varint
from repro.util.checksum import crc32_of, rows_digest
from repro.workloads.generators import (
    ads_revenue,
    code_regressions,
    error_logs,
    service_requests,
)
from tests.oracles import decode_row, encode_row


def rows_fixture():
    return [
        {"time": 1, "host": "a", "v": 1.5, "tags": ["x", "y"]},
        {"time": 2, "host": "b", "v": -2.0, "tags": []},
    ]


def file_with_chunks(*chunk_lists):
    buf = io.BytesIO()
    write_file_header(buf)
    for rows in chunk_lists:
        write_chunk(buf, rows)
    buf.seek(0)
    return buf


class TestChunkRoundtrip:
    def test_single_chunk(self):
        buf = file_with_chunks(rows_fixture())
        chunks = list(read_table_chunks(buf))
        assert chunks == [rows_fixture()]

    def test_multiple_chunks_preserve_order(self):
        buf = file_with_chunks([{"time": 1}], [{"time": 2}], [{"time": 3}])
        chunks = list(read_table_chunks(buf))
        assert [c[0]["time"] for c in chunks] == [1, 2, 3]

    def test_empty_chunk(self):
        buf = file_with_chunks([])
        assert list(read_table_chunks(buf)) == [[]]

    def test_all_value_types(self):
        rows = [{"time": 0, "i": -(2**60), "f": 3.75, "s": "héllo", "v": ["a", ""]}]
        buf = file_with_chunks(rows)
        assert list(read_table_chunks(buf)) == [rows]

    def test_bool_rejected_at_write(self):
        buf = io.BytesIO()
        write_file_header(buf)
        with pytest.raises(CorruptionError):
            write_chunk(buf, [{"time": 0, "flag": True}])

    def test_an_older_builds_chunks_read_before_new_ones(self):
        """``CHNK`` chunks (payload stored as is) are read, never
        written; a log an upgraded leaf appended to holds both kinds."""
        old = [{"time": 1, "host": "a"}, {"time": 2, "host": "b"}]
        buf = io.BytesIO()
        write_file_header(buf)
        payload = reference_payload(old)
        buf.write(struct.pack("<IIQI", CHUNK_MAGIC, 2, len(payload), crc32_of(payload)))
        buf.write(payload)
        write_chunk(buf, rows_fixture())
        buf.seek(0)
        assert list(read_table_chunks(buf)) == [old, rows_fixture()]


def reference_payload(rows) -> bytes:
    """The chunk payload as the per-row reference encoder writes it."""
    writer = BufferWriter()
    for row in rows:
        encode_row(writer, row)
    return writer.getvalue()


class Count(int):
    """An ``int`` subclass, as a caller's counter type might be."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


# Few distinct names and strings, so rows repeat them (the encoder's
# caches get hits as well as misses), mixed with arbitrary text.
name_strategy = st.one_of(
    st.sampled_from(["time", "host", "v", "tags", "", "héllo"]), st.text(max_size=5)
)
string_strategy = st.one_of(
    st.sampled_from(["", "a", "web-01", "naïve ☃"]), st.text(max_size=12)
)
value_strategy = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=0, max_value=9).map(Count),
    st.sampled_from(list(Level)),
    st.floats(allow_nan=True, allow_infinity=True),
    string_strategy,
    st.lists(string_strategy, max_size=4),
)
rows_strategy = st.lists(
    st.dictionaries(name_strategy, value_strategy, max_size=6), max_size=12
)


class TestEncoderIsByteIdentical:
    """The fast chunk encoder against the retained per-row reference."""

    @settings(max_examples=200, deadline=None)
    @given(rows=rows_strategy)
    def test_payload_equals_reference(self, rows):
        count, payload = encode_chunk_rows(rows)
        assert count == len(rows)
        assert payload == reference_payload(rows)

    @settings(max_examples=50, deadline=None)
    @given(rows=rows_strategy)
    def test_chunk_bytes_and_roundtrip(self, rows):
        """``CHNZ``: rows, stored length, CRC of the stored bytes, the
        payload's length, then the payload as one raw deflate stream."""
        buf = io.BytesIO()
        write_file_header(buf)
        assert write_chunk(buf, iter(rows)) == len(rows)
        payload = reference_payload(rows)
        stored = buf.getvalue()[8 + 28 :]
        header = struct.pack(
            "<IIQIQ", DEFLATED_CHUNK_MAGIC, len(rows), len(stored), crc32_of(stored), len(payload)
        )
        assert buf.getvalue()[8:] == header + stored
        assert (zlib.decompress(stored, -15) if payload else stored) == payload
        buf.seek(0)
        (decoded,) = read_table_chunks(buf)
        assert [list(row) for row in decoded] == [list(row) for row in rows]

    def test_same_column_with_two_types(self):
        """The name prefix is cached per (name, type): one column that
        changes type mid-chunk must not reuse the other type's tag."""
        rows = [{"v": 1}, {"v": "1"}, {"v": 1.0}, {"v": ["1"]}, {"v": 2}]
        assert encode_chunk_rows(rows)[1] == reference_payload(rows)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_still_rejected(self, value):
        with pytest.raises(CorruptionError, match="boolean"):
            encode_chunk_rows([{"time": 0}, {"time": 1, "flag": value}])

    @pytest.mark.parametrize("value", [None, b"raw", ("a",), {"a": 1}])
    def test_unsupported_type_rejected_like_the_reference(self, value):
        row = {"time": 0, "odd": value}
        with pytest.raises(CorruptionError, match="unsupported value type"):
            encode_row(BufferWriter(), row)
        with pytest.raises(CorruptionError, match="unsupported value type"):
            encode_chunk_rows([row])

    def test_out_of_range_int_rejected_like_the_reference(self):
        row = {"time": 2**63}
        with pytest.raises(struct.error):
            encode_row(BufferWriter(), row)
        with pytest.raises(struct.error):
            encode_chunk_rows([row])


# One type per column (a sealed block has a schema), every column but
# ``time`` optional so defaults get filled: ``s`` repeats (dictionary),
# ``u`` is near-unique (raw or deflated, whichever is smaller).
block_row_strategy = st.fixed_dictionaries(
    {"time": st.integers(min_value=-(2**63), max_value=2**63 - 1)},
    optional={
        "i": st.one_of(
            st.sampled_from([0, -1, 2**63 - 1, -(2**63)]),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
        ),
        "f": st.one_of(
            st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        "s": string_strategy,
        "u": st.text(max_size=200),
        "v": st.lists(string_strategy, max_size=4),
    },
)


def string_flags(block: RowBlock, name: str) -> CompressionFlags:
    return RowBlockColumn(block.rbc_buffer(name)).flags


def with_column(block: RowBlock, name: str, rbc: bytes) -> RowBlock:
    rbcs = {column: bytes(buf) for column, buf in block.rbc_buffers()}
    rbcs[name] = rbc
    return RowBlock(
        block.schema, rbcs, block.row_count, block.min_time, block.max_time, block.created_at
    )


def stored_raw(block: RowBlock, name: str) -> RowBlock:
    """``block`` with near-unique string column ``name`` stored RAW —
    what the encoder picks only when deflate does not pay, which on a
    column this short it nearly always does."""
    encoded = RowBlockColumn(block.rbc_buffer(name)).to_encoded()
    raw = bytes(raw_string_payload(encoded))
    return with_column(
        block,
        name,
        build_rbc_from_encoded(dataclasses.replace(encoded, flags=CompressionFlags.RAW, data=raw)),
    )


def assert_transcodes(block: RowBlock, skips) -> None:
    rows = block.to_rows()
    for skip in skips:
        assert encode_chunk_block(block, skip) == encode_chunk_rows(rows[skip:]), skip


class TestBlockTranscoderIsByteIdentical:
    """``encode_chunk_block`` against ``encode_chunk_rows`` of the rows
    the block decodes to — which is what a sync point used to write."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(block_row_strategy, min_size=1, max_size=24), data=st.data())
    def test_payload_equals_the_row_encoder(self, rows, data):
        block = RowBlock.from_rows(rows, created_at=0.0)
        n = block.row_count
        mid = data.draw(st.integers(min_value=0, max_value=n))
        assert_transcodes(block, {0, mid, n - 1, n})

    def test_every_string_encoding_and_every_offset(self):
        """Dictionary, raw and LZ string columns (asserted, not hoped
        for), multi-byte length varints, non-ASCII, empties, defaults."""
        rows = [
            {
                "time": i,
                "dict": ["web-01", "naïve ☃", ""][i % 3],
                "raw": chr(0x100 + i * 7) + chr(0x3000 + i * 13),
                "lz": f"request-id-{i:04d}-" + "padding " * 20,
                "long": "é" * (100 + i),
                "vec": [["a", "", "☃" * 50][: i % 4], []][i % 2],
            }
            for i in range(40)
        ]
        del rows[7]["dict"], rows[8]["raw"], rows[9]["lz"], rows[10]["vec"]
        block = stored_raw(RowBlock.from_rows(rows, created_at=0.0), "raw")
        assert CompressionFlags.DICT in string_flags(block, "dict")
        assert string_flags(block, "raw") == CompressionFlags.RAW
        assert string_flags(block, "lz") == CompressionFlags.LZ
        assert_transcodes(block, range(41))
        count, payload = encode_chunk_block(block, 3)
        assert decode_chunk_rows(payload, count) == block.to_rows()[3:]

    def test_one_row_block(self):
        block = RowBlock.from_rows(
            [{"time": 5, "f": -0.0, "s": "", "v": []}], created_at=0.0
        )
        assert_transcodes(block, (0, 1))
        assert encode_chunk_block(block, 1) == (0, b"")


def damaged_block(damage, flags=CompressionFlags.RAW) -> RowBlock:
    """A block whose near-unique string column ``u``, stored under
    ``flags``, has been through ``damage`` (buffer -> buffer); the other
    columns are intact."""
    rows = [{"time": i, "u": f"u{i}", "d": "same"} for i in range(12)]
    block = RowBlock.from_rows(rows, created_at=0.0)
    if flags == CompressionFlags.RAW:
        block = stored_raw(block, "u")
    assert string_flags(block, "u") == flags
    return with_column(block, "u", damage(bytes(block.rbc_buffer("u"))))


def reencoded(buf: bytes, **changes) -> bytes:
    """The RBC rebuilt (fresh CRC) with some encoded fields replaced."""
    encoded = RowBlockColumn(buf).to_encoded()
    return build_rbc_from_encoded(dataclasses.replace(encoded, **changes))


def deflated(buf: bytes) -> bytes:
    """A deflated column's stored data section."""
    return bytes(RowBlockColumn(buf).data)


def inflated(buf: bytes) -> bytes:
    """A deflated column's values, len-prefixed, as they were deflated."""
    return zlib.decompress(deflated(buf), -15)


def string_run(*values: bytes) -> bytes:
    """``values`` behind their varint lengths, as a string column or
    dictionary section writes them, valid UTF-8 or not."""
    return b"".join(encode_varint(len(value)) + value for value in values)


U = [f"u{i}".encode() for i in range(12)]
#: Twelve strings, damaged one way each: the last one missing, a value
#: cut short, a length varint cut at the end, a last length one past
#: the end, a byte after the last value; bad UTF-8 ending a value before
#: a one-byte length, and before a 130-byte value's length, whose first
#: byte (0x82) completes the cut sequence: the whole section decodes,
#: the value does not.
DAMAGED_STRINGS = {
    "eleven_strings": string_run(*U[:11]),
    "truncated_value": string_run(*U)[:-2],
    "truncated_length_varint": string_run(*U[:11]) + b"\x82",
    "overrun_by_one": string_run(*U[:11]) + b"\x04u11",
    "trailing_bytes": string_run(*U) + b"\x00",
    "bad_utf8_before_short_length": string_run(*U[:3], b"u3\xe2\x98", *U[4:]),
    "bad_utf8_before_long_length": string_run(*U[:3], b"u3\xe2\x98", b"x" * 130, *U[5:]),
}
damaged_strings = pytest.mark.parametrize(
    "section", DAMAGED_STRINGS.values(), ids=DAMAGED_STRINGS.keys()
)


class TestTranscoderRejectsWhatToRowsRejects:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda buf: b"XXXX" + buf[4:],
            lambda buf: buf[:20],
            lambda buf: reencoded(buf, n_items=11, data=RowBlockColumn(buf).data[:-4]),
            lambda buf: reencoded(buf, data=bytes(RowBlockColumn(buf).data) + b"\x00"),
            lambda buf: reencoded(buf, data=RowBlockColumn(buf).data[:-1]),
            lambda buf: reencoded(
                buf, data=bytes(RowBlockColumn(buf).data).replace(b"u3", b"\xff3")
            ),
            lambda buf: reencoded(buf, flags=CompressionFlags.DELTA),
        ],
        ids=[
            "bad_magic",
            "short_buffer",
            "wrong_row_count",
            "trailing_bytes",
            "truncated_payload",
            "bad_utf8",
            "bad_flags",
        ],
    )
    def test_damaged_raw_string_column(self, damage):
        block = damaged_block(damage)
        with pytest.raises(CorruptionError):
            block.to_rows()
        with pytest.raises(CorruptionError):
            encode_chunk_block(block)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda buf: reencoded(buf, data=deflated(buf)[:-2]),
            lambda buf: reencoded(buf, data=deflated(buf) + b"\x00"),
            lambda buf: reencoded(buf, data=b"\xff" * len(deflated(buf))),
            lambda buf: reencoded(buf, n_items=11),
            lambda buf: reencoded(buf, data=lz_compress(inflated(buf)[:-1])),
            lambda buf: reencoded(
                buf, data=lz_compress(inflated(buf).replace(b"u3", b"\xff3"))
            ),
        ],
        ids=[
            "truncated_stream",
            "trailing_bytes",
            "not_a_stream",
            "wrong_row_count",
            "truncated_payload",
            "bad_utf8",
        ],
    )
    def test_damaged_deflated_string_column(self, damage):
        """The same column deflated: damage to the stream itself, or to
        what it inflates to, is refused by both paths alike."""
        block = damaged_block(damage, flags=CompressionFlags.LZ)
        with pytest.raises(CorruptionError):
            block.to_rows()
        with pytest.raises(CorruptionError):
            encode_chunk_block(block)

    @damaged_strings
    @pytest.mark.parametrize("flags", [CompressionFlags.RAW, CompressionFlags.LZ])
    def test_damaged_string_values(self, section, flags):
        """Twelve damaged values as a raw or deflated column."""
        data = section if flags == CompressionFlags.RAW else lz_compress(section)
        block = damaged_block(lambda buf: reencoded(buf, data=data), flags)
        with pytest.raises(CorruptionError):
            block.to_rows()
        with pytest.raises(CorruptionError):
            encode_chunk_block(block)

    @damaged_strings
    def test_damaged_dictionary_section(self, section):
        """The same twelve strings as a dictionary column's entries."""
        rows = [{"time": i, "d": f"d{i % 12}"} for i in range(48)]
        block = RowBlock.from_rows(rows, created_at=0.0)
        rbc = bytes(block.rbc_buffer("d"))
        assert string_flags(block, "d") == CompressionFlags.DICT | CompressionFlags.BITPACK
        block = with_column(block, "d", reencoded(rbc, dictionary=section))
        with pytest.raises(CorruptionError):
            block.to_rows()
        with pytest.raises(CorruptionError):
            encode_chunk_block(block)

    def test_wrong_row_count_on_a_decoded_column(self):
        rows = [{"time": i, "d": "same"} for i in range(12)]
        block = RowBlock.from_rows(rows, created_at=0.0)
        rbcs = {name: bytes(buf) for name, buf in block.rbc_buffers()}
        short = RowBlock(block.schema, rbcs, 13, 0, 11, 0.0)
        with pytest.raises(CorruptionError, match="header says 13 rows"):
            short.to_rows()
        with pytest.raises(CorruptionError, match="header says 13 rows"):
            encode_chunk_block(short)


def reference_decode(payload: bytes, n_rows: int):
    """The chunk's rows as the per-row reference decoder reads them."""
    reader = BufferReader(payload)
    rows = [decode_row(reader) for _ in range(n_rows)]
    if reader.remaining:
        raise CorruptionError("trailing bytes inside a chunk payload")
    return rows


def outcome(decode, payload: bytes, n_rows: int):
    """``repr`` of the rows (NaN-safe, order-sensitive) or the one
    permitted failure; anything else a decoder raises fails the test."""
    try:
        return repr(decode(payload, n_rows))
    except CorruptionError:
        return CorruptionError


#: Lengths and counts past the single-byte varint range: a 300-byte
#: string, a 130-item vector, 130 columns in one row, a 200-byte name.
WIDE_ROWS = [
    {"time": 1, "s": "x" * 300, "v": ["é"] * 130, "n" * 200: 2.5},
    {f"c{i}": i for i in range(130)},
    {"time": -1, "s": "", "v": [], "": ""},
]


def columns_decode(payload: bytes, n_rows: int, skip: int = 0):
    """:func:`decode_chunk_columns`' runs, materialized to rows."""
    return [row for run in decode_chunk_columns(payload, n_rows, skip) for row in run.rows()]


def reference_tail(skip: int):
    """The reference decode of a chunk, less its first ``skip`` rows."""
    return lambda payload, n_rows: reference_decode(payload, n_rows)[skip:]


def skipping(skip: int):
    return lambda payload, n_rows: columns_decode(payload, n_rows, skip)


#: A row that repeats a column name, by hand (a dict cannot): the name
#: keeps its first position and takes its last value and type.
REPEATED_NAME = (
    b"\x03"
    + b"\x01a" + bytes((int(ColumnType.INT64),)) + struct.pack("<q", 7)
    + b"\x01b" + bytes((int(ColumnType.STRING),)) + b"\x01x"
    + b"\x01a" + bytes((int(ColumnType.STRING),)) + b"\x02yz"
)


class TestDecoderMatchesReference:
    """The one-loop chunk decoder against the retained per-row reader:
    :func:`decode_chunk_rows` is :func:`decode_chunk_columns`
    materialized, and every case also runs with dead head rows to skip."""

    @settings(max_examples=200, deadline=None)
    @given(rows=rows_strategy, data=st.data())
    def test_rows_equal_reference(self, rows, data):
        count, payload = encode_chunk_rows(rows)
        decoded = outcome(decode_chunk_rows, payload, count)
        assert decoded is not CorruptionError
        assert decoded == outcome(reference_decode, payload, count)
        skip = data.draw(st.integers(0, count), label="skip")
        assert outcome(skipping(skip), payload, count) == outcome(
            reference_tail(skip), payload, count
        )

    def test_multi_byte_lengths_and_counts(self):
        count, payload = encode_chunk_rows(WIDE_ROWS)
        assert decode_chunk_rows(payload, count) == reference_decode(payload, count) == WIDE_ROWS
        for skip in range(count + 1):
            assert columns_decode(payload, count, skip) == WIDE_ROWS[skip:]

    def test_runs_end_where_a_type_changes(self):
        """A run ends — mid-chunk — only where a column changes type; rows
        that order their columns otherwise or lack one stay in it, each
        with its layout, and the run holds its values column by column."""
        rows = [
            {"time": 1, "host": "a"},
            {"time": 2, "host": "b"},
            {"host": "c", "time": 3},
            {"time": 4, "host": 5},
            {"time": 5, "host": 6},
            {"time": 6},
            {"time": 7, "host": "d"},
        ]
        count, payload = encode_chunk_rows(rows)
        runs = decode_chunk_columns(payload, count)
        assert [(run.names, run.n_rows, run.layouts) for run in runs] == [
            (("time", "host"), 3, [(0, 1), (0, 1), (1, 0)]),
            (("time", "host"), 3, [(0, 1), (0, 1), (0,)]),
            (("time", "host"), 1, None),
        ]
        assert runs[0].types == (ColumnType.INT64, ColumnType.STRING)
        assert runs[1].types == (ColumnType.INT64, ColumnType.INT64)
        assert runs[1].columns == [[4, 5, 6], [5, 6, 0]]
        assert [row for run in runs for row in run.rows()] == rows
        assert [list(row) for run in runs for row in run.rows()] == [list(row) for row in rows]
        assert [run.n_rows for run in decode_chunk_columns(payload, count, skip=3)] == [3, 1]

    def test_repeated_column_name(self):
        payload = REPEATED_NAME * 2
        want = [{"a": "yz", "b": "x"}] * 2
        assert columns_decode(payload, 2) == reference_decode(payload, 2) == want
        (run,) = decode_chunk_columns(payload, 2)
        assert (run.names, run.types) == (("a", "b"), (ColumnType.STRING, ColumnType.STRING))
        assert columns_decode(payload, 2, skip=1) == [{"a": "yz", "b": "x"}]
        # The row's first ``a`` is an INT64 the dict drops: a later row
        # whose ``a`` is one types the run's STRING column otherwise.
        payload = REPEATED_NAME + encode_chunk_rows([{"a": 7}])[1]
        runs = decode_chunk_columns(payload, 2)
        assert [(run.names, run.types) for run in runs] == [
            (("a", "b"), (ColumnType.STRING, ColumnType.STRING)),
            (("a",), (ColumnType.INT64,)),
        ]
        assert columns_decode(payload, 2) == [{"a": "yz", "b": "x"}, {"a": 7}]

    @pytest.mark.parametrize(
        "chunk",
        [
            encode_chunk_rows(rows_fixture()),
            encode_chunk_rows(WIDE_ROWS[1:]),
            encode_chunk_rows(list(service_requests(12))),
            encode_chunk_block(RowBlock.from_rows(list(service_requests(12, seed=5)), 0.0)),
        ],
        ids=["small", "wide", "one-shape", "one-shape-block"],
    )
    def test_every_truncation_and_byte_flip_agrees(self, chunk):
        """Damage inside an intact CRC (or a wrong header row count) must
        surface as ``CorruptionError`` exactly when the reference says
        so — never ``IndexError`` / ``struct.error`` /
        ``UnicodeDecodeError`` — and otherwise decode to the same rows.
        The one-shape cases hold the column-at-a-time pass, which reads
        them first, to the same rule."""
        count, payload = chunk
        cases = [(payload[:cut], count) for cut in range(len(payload))]
        cases += [(payload, n) for n in (0, count - 1, count + 1, 1 << 40)]
        for index in range(len(payload)):
            for mask in (0x01, 0x04, 0x80, 0xFF):
                damaged = bytearray(payload)
                damaged[index] ^= mask
                cases.append((bytes(damaged), count))
        failures = 0
        for damaged, n_rows in cases:
            want = outcome(reference_decode, damaged, n_rows)
            assert outcome(decode_chunk_rows, damaged, n_rows) == want
            failures += want is CorruptionError
        assert 0 < failures < len(cases)
        # Dead rows are walked, not decoded: a truncation anywhere still
        # raises (a flipped byte in a dead string need not).
        for skip in (1, count):
            for cut in range(len(payload)):
                assert outcome(skipping(skip), payload[:cut], count) is CorruptionError
            assert outcome(skipping(skip), payload, count) == outcome(
                reference_tail(skip), payload, count
            )

    @settings(max_examples=150, deadline=None)
    @given(payload=st.binary(max_size=200), n_rows=st.integers(min_value=0, max_value=6))
    def test_arbitrary_bytes_agree(self, payload, n_rows):
        want = outcome(reference_decode, payload, n_rows)
        assert outcome(decode_chunk_rows, payload, n_rows) == want
        if want is not CorruptionError:
            assert outcome(skipping(1), payload, n_rows) == outcome(
                reference_tail(1), payload, n_rows
            )


ONE_SHAPE_VALUES = {
    int: st.one_of(
        st.sampled_from([-(2**63), 2**63 - 1, 0]),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ),
    float: st.one_of(st.sampled_from([float("nan"), -0.0, float("inf")]), st.floats()),
    str: st.one_of(st.sampled_from(["", "naïve ☃", "x" * 128, "é" * 70]), string_strategy),
    list: st.one_of(
        st.sampled_from([[], ["é", "x" * 200], ["a"] * 130]), st.lists(string_strategy, max_size=4)
    ),
}


def with_repeated_name(rows):
    """The chunk with every row's first field written again at its end:
    the same dicts, by hand (a dict cannot repeat a name)."""
    pieces = []
    for row in rows:
        first = next(iter(row))
        fields = encode_chunk_rows([row])[1][1:]
        again = encode_chunk_rows([{first: row[first]}])[1][1:]
        pieces.append(encode_varint(len(row) + 1) + fields + again)
    return b"".join(pieces)


@pytest.fixture
def no_row_loop(monkeypatch):
    """Fail the test if the decoder falls back to its row loop, the one
    reader that builds a :class:`RunBuilder`."""

    def refuse():
        raise AssertionError("a one-shape chunk fell back to the row loop")

    monkeypatch.setattr(disk_format, "RunBuilder", refuse)


class TestOneShapePass:
    """Chunks whose rows all carry the first row's name-and-type bytes
    are read a column at a time; they decode exactly as the reference
    reads them, and the ledger's tables never reach the row loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        schema=st.lists(
            st.tuples(name_strategy, st.sampled_from(list(ONE_SHAPE_VALUES))),
            min_size=1,
            max_size=5,
            unique_by=lambda field: field[0],
        ),
        n_rows=st.integers(min_value=1, max_value=12),
        repeat=st.booleans(),
        data=st.data(),
    )
    def test_one_shape_chunks_equal_reference(self, schema, n_rows, repeat, data):
        """Non-ASCII strings, 128-byte and longer strings, empty and
        130-item vectors, NaN, -0.0 and the int64 extremes, with and
        without a name every row repeats, with and without dead rows."""
        rows = [
            {name: data.draw(ONE_SHAPE_VALUES[kind], label=name) for name, kind in schema}
            for _ in range(n_rows)
        ]
        payload = with_repeated_name(rows) if repeat else encode_chunk_rows(rows)[1]
        want = outcome(reference_decode, payload, n_rows)
        assert want is not CorruptionError
        assert outcome(decode_chunk_rows, payload, n_rows) == want
        # A repeated name is one column of the run, as the row's dict has it.
        (run,) = decode_chunk_columns(payload, n_rows)
        assert len(set(run.names)) == len(run.names) == len(schema)
        skip = data.draw(st.integers(0, n_rows), label="skip")
        assert outcome(skipping(skip), payload, n_rows) == outcome(
            reference_tail(skip), payload, n_rows
        )

    def test_specials_take_the_pass(self, no_row_loop):
        rows = [
            {"time": -(2**63), "s": "naïve ☃", "v": float("nan"), "tags": []},
            {"time": 2**63 - 1, "s": "", "v": -0.0, "tags": ["é", "x" * 127]},
        ]
        count, payload = encode_chunk_rows(rows)
        (run,) = decode_chunk_columns(payload, count)
        assert run.layouts is None and run.names == ("time", "s", "v", "tags")
        assert repr(run.rows()) == repr(rows)
        assert decode_chunk_columns(payload, count, skip=count) == []

    @pytest.mark.parametrize(
        "generate", [service_requests, error_logs, ads_revenue, code_regressions]
    )
    def test_ledger_tables_never_reach_the_row_loop(self, generate, clock, tmp_path, no_row_loop):
        """A crash-shaped log of each workload's table — sealed blocks
        transcoded at two syncs, rows still buffered at each — replays
        through the column-at-a-time pass alone, to the same rows."""
        leafmap = LeafMap(clock=clock, rows_per_block=64)
        table = leafmap.get_or_create("t")
        backup = DiskBackup(tmp_path / "backup")
        rows = list(generate(300))
        for batch in (rows[:140], rows[140:]):
            table.add_rows(batch)
            backup.sync_leafmap(leafmap)
        assert table.buffered_row_count
        table.expire(rows[100]["time"])  # dead head rows to skip
        backup.sync_leafmap(leafmap)
        replayed = LeafMap(clock=clock, rows_per_block=64)
        assert recover_leafmap(backup, replayed) == table.row_count
        assert rows_digest(replayed.snapshot_rows()) == rows_digest(leafmap.snapshot_rows())


class TestTornWrites:
    def test_torn_final_header_is_skipped(self):
        buf = file_with_chunks(rows_fixture())
        data = buf.getvalue() + b"\x43"  # one stray byte: torn next header
        chunks = list(read_table_chunks(io.BytesIO(data)))
        assert chunks == [rows_fixture()]

    def test_torn_final_payload_is_skipped(self):
        full = file_with_chunks(rows_fixture(), rows_fixture()).getvalue()
        torn = full[:-3]
        chunks = list(read_table_chunks(io.BytesIO(torn)))
        assert chunks == [rows_fixture()]

    def test_corrupt_final_chunk_at_eof_is_skipped(self):
        full = bytearray(file_with_chunks(rows_fixture()).getvalue())
        full[-1] ^= 0xFF  # flip a payload byte of the last chunk
        chunks = list(read_table_chunks(io.BytesIO(bytes(full))))
        assert chunks == []

    def test_corrupt_midfile_chunk_raises(self):
        full = bytearray(file_with_chunks(rows_fixture(), rows_fixture()).getvalue())
        # Flip a byte inside the first chunk's payload.
        header_len = 8
        full[header_len + 20] ^= 0x01
        with pytest.raises(CorruptionError):
            list(read_table_chunks(io.BytesIO(bytes(full))))

    def test_bad_chunk_magic_midfile_raises(self):
        buf = io.BytesIO()
        write_file_header(buf)
        buf.write(b"JUNKJUNKJUNKJUNKJUNK")
        buf.seek(0)
        with pytest.raises(CorruptionError):
            list(read_table_chunks(buf))


class TestFileHeader:
    def test_missing_header(self):
        with pytest.raises(CorruptionError):
            read_file_header(io.BytesIO(b"\x00"))

    def test_wrong_magic(self):
        with pytest.raises(CorruptionError):
            read_file_header(io.BytesIO(b"XXXXXXXX"))

    def test_empty_file_yields_nothing_after_header(self):
        buf = io.BytesIO()
        write_file_header(buf)
        buf.seek(0)
        assert list(read_table_chunks(buf)) == []
