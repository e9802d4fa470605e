"""Tests for varints, the codec's zigzag, and the buffer reader/writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.intcodec import _zigzag_decode_array, _zigzag_encode_array
from repro.errors import CorruptionError
from repro.util.binary import (
    BufferReader,
    BufferWriter,
    decode_varint,
    encode_varint,
    len_prefixed_many,
    read_len_prefixed_many,
)
from tests.oracles import read_strings


class TestVarint:
    def test_zero_is_one_byte(self):
        assert encode_varint(0) == b"\x00"

    def test_small_values_are_one_byte(self):
        assert encode_varint(127) == b"\x7f"

    def test_128_needs_two_bytes(self):
        assert encode_varint(128) == b"\x80\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_roundtrip_known_values(self):
        for value in (0, 1, 127, 128, 300, 2**32, 2**63 - 1):
            decoded, offset = decode_varint(encode_varint(value))
            assert decoded == value
            assert offset == len(encode_varint(value))

    def test_truncated_raises(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\xff" * 11)

    def test_decode_at_offset(self):
        buf = b"\xaa" + encode_varint(300)
        value, offset = decode_varint(buf, 1)
        assert value == 300
        assert offset == len(buf)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        assert decode_varint(encode_varint(value))[0] == value


def zigzag(values) -> list[int]:
    return _zigzag_encode_array(np.array(values, dtype=np.int64)).tolist()


class TestZigzag:
    """The integer codec's array zigzag, the only one the formats use."""

    def test_known_mapping(self):
        assert zigzag([0, -1, 1, -2, 2]) == [0, 1, 2, 3, 4]

    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
    def test_roundtrip_property(self, values):
        folded = _zigzag_encode_array(np.array(values, dtype=np.int64))
        assert _zigzag_decode_array(folded).tolist() == values

    def test_small_magnitudes_stay_small(self):
        assert max(zigzag([-5, 5])) < 16


class TestBufferWriter:
    def test_offset_tracks_bytes(self):
        writer = BufferWriter()
        writer.write_u64(7)
        assert writer.offset == 8
        writer.write_str("ab")
        assert writer.offset == 11  # varint(2) + 2 bytes

    def test_all_scalar_types_roundtrip(self):
        writer = BufferWriter()
        writer.write_u8(255)
        writer.write_u64(2**64 - 1)
        writer.write_i64(-(2**63))
        writer.write_f64(3.5)
        reader = BufferReader(writer.getvalue())
        assert reader.read_u8() == 255
        assert reader.read_u64() == 2**64 - 1
        assert reader.read_i64() == -(2**63)
        assert reader.read_f64() == 3.5
        assert reader.remaining == 0


class TestBufferReader:
    def test_read_past_end_raises(self):
        reader = BufferReader(b"ab")
        with pytest.raises(CorruptionError):
            reader.read_u64()

    def test_seek_bounds(self):
        reader = BufferReader(b"abcd")
        reader.seek(4)
        assert reader.remaining == 0
        with pytest.raises(CorruptionError):
            reader.seek(5)
        with pytest.raises(CorruptionError):
            reader.seek(-1)

    def test_len_prefixed_roundtrip(self):
        writer = BufferWriter()
        writer.write_len_prefixed(b"hello")
        assert BufferReader(writer.getvalue()).read_len_prefixed() == b"hello"

    def test_invalid_utf8_raises_corruption(self):
        writer = BufferWriter()
        writer.write_len_prefixed(b"\xff\xfe")
        with pytest.raises(CorruptionError):
            BufferReader(writer.getvalue()).read_str()

    def test_read_view_is_zero_copy(self):
        buf = bytearray(b"abcdef")
        reader = BufferReader(buf)
        view = reader.read_view(3)
        buf[0] = ord("z")
        assert bytes(view) == b"zbc"

    @given(st.text(max_size=200))
    def test_string_roundtrip_property(self, text):
        writer = BufferWriter()
        writer.write_str(text)
        assert BufferReader(writer.getvalue()).read_str() == text


@st.composite
def string_sections(draw) -> bytes:
    """Arbitrary bytes, or written strings (short, past 128 bytes, not
    ASCII) cut, grown or with one byte replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    texts = st.one_of(st.text(max_size=6), st.text(min_size=120, max_size=140))
    buf = b"".join(len_prefixed_many(draw(st.lists(texts, max_size=5))))
    cut = draw(st.integers(min_value=0, max_value=len(buf)))
    damage = draw(st.sampled_from(["none", "cut", "grow", "replace"]))
    if damage == "cut":
        return buf[:cut]
    if damage == "grow":
        return buf[:cut] + draw(st.binary(min_size=1, max_size=2)) + buf[cut:]
    if damage == "replace" and cut < len(buf):
        return buf[:cut] + bytes([draw(st.integers(0, 255))]) + buf[cut + 1 :]
    return buf


def outcome(read, buf: bytes, n: int, cells: bool):
    try:
        return read(buf, n, cells)
    except CorruptionError:
        return CorruptionError


class TestReadLenPrefixedMany:
    @settings(max_examples=500, deadline=None)
    @given(buf=string_sections(), n=st.integers(min_value=0, max_value=6), cells=st.booleans())
    def test_agrees_with_read_str(self, buf, n, cells):
        """Values or cells equal to a ``read_str`` loop's, or both raise."""
        assert outcome(read_len_prefixed_many, buf, n, cells) == outcome(
            read_strings, buf, n, cells
        )

    def test_cells_are_the_written_bytes(self):
        texts = ["", "web01", "naïve ☃", "x" * 200]
        cells = len_prefixed_many(texts)
        assert read_len_prefixed_many(b"".join(cells), 4, cells=True) == cells
        assert read_len_prefixed_many(memoryview(b"".join(cells)), 4) == texts
