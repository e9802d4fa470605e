"""Tests for the legacy row-oriented disk format."""

import enum
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.format import (
    _encode_row,
    encode_chunk_rows,
    read_file_header,
    read_table_chunks,
    write_chunk,
    write_file_header,
)
from repro.errors import CorruptionError
from repro.util.binary import BufferWriter
from repro.util.checksum import crc32_of


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


def reference_payload(rows) -> bytes:
    """The chunk payload as the per-row reference encoder writes it."""
    writer = BufferWriter()
    for row in rows:
        _encode_row(writer, row)
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
        buf = io.BytesIO()
        write_file_header(buf)
        assert write_chunk(buf, iter(rows)) == len(rows)
        payload = reference_payload(rows)
        header = struct.pack("<IIQI", 0x4B4E4843, len(rows), len(payload), crc32_of(payload))
        assert buf.getvalue()[8:] == header + payload
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
            _encode_row(BufferWriter(), row)
        with pytest.raises(CorruptionError, match="unsupported value type"):
            encode_chunk_rows([row])

    def test_out_of_range_int_rejected_like_the_reference(self):
        row = {"time": 2**63}
        with pytest.raises(struct.error):
            _encode_row(BufferWriter(), row)
        with pytest.raises(struct.error):
            encode_chunk_rows([row])


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
