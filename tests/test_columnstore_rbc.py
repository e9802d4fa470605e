"""Tests for the row block column buffer (paper, Figure 3).

Key invariants: single-buffer contiguity, position independence (offsets
from base), and checksum detection of any byte flip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.rbc import (
    FOOTER_SIZE,
    HEADER_SIZE,
    RowBlockColumn,
    build_rbc,
)
from repro.errors import ChecksumMismatchError, CorruptionError, LayoutVersionError
from repro.types import ColumnType


def sample_rbc(values=None):
    return build_rbc(ColumnType.STRING, values or ["a", "b", "a", "c"] * 10)


class TestLayout:
    def test_header_and_footer_present(self):
        buf = sample_rbc()
        assert len(buf) >= HEADER_SIZE + FOOTER_SIZE

    def test_sections_are_contiguous_and_ordered(self):
        column = RowBlockColumn(sample_rbc())
        # dictionary then data then footer, all within the buffer
        assert len(column.dictionary) + len(column.data) == (
            len(column.buffer) - HEADER_SIZE - FOOTER_SIZE
        )

    def test_values_decode(self):
        values = ["x", "y", "x"] * 7
        column = RowBlockColumn(build_rbc(ColumnType.STRING, values))
        assert column.values(ColumnType.STRING) == values
        assert column.n_items == len(values)

    def test_every_type(self):
        cases = [
            (ColumnType.INT64, [1, -5, 7] * 5),
            (ColumnType.FLOAT64, [1.5, 2.25] * 5),
            (ColumnType.STRING, ["a", "bb"] * 5),
            (ColumnType.STRING_VECTOR, [["a"], [], ["b", "c"]] * 5),
        ]
        for ctype, values in cases:
            assert RowBlockColumn(build_rbc(ctype, values)).values(ctype) == values

    def test_empty_column(self):
        column = RowBlockColumn(build_rbc(ColumnType.INT64, []))
        assert column.values(ColumnType.INT64) == []


class TestPositionIndependence:
    def test_relocated_buffer_decodes_identically(self):
        """The whole point of base+offset pointers: move the bytes
        anywhere and they still parse."""
        buf = sample_rbc()
        arena = bytearray(b"\xcc" * 17) + bytearray(buf) + bytearray(b"\xdd" * 9)
        view = memoryview(arena)[17 : 17 + len(buf)]
        relocated = RowBlockColumn(view)
        relocated.verify()
        assert relocated.values(ColumnType.STRING) == RowBlockColumn(buf).values(
            ColumnType.STRING
        )


class TestValidation:
    def test_bad_magic(self):
        buf = bytearray(sample_rbc())
        buf[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            RowBlockColumn(buf)

    def test_bad_version(self):
        buf = bytearray(sample_rbc())
        buf[4] = 99
        with pytest.raises(LayoutVersionError):
            RowBlockColumn(buf)

    def test_truncated(self):
        buf = sample_rbc()
        with pytest.raises(CorruptionError):
            RowBlockColumn(buf[:-4])

    def test_too_small(self):
        with pytest.raises(CorruptionError):
            RowBlockColumn(b"\x00" * 10)

    def test_wrong_size_claim(self):
        buf = sample_rbc()
        with pytest.raises(CorruptionError):
            RowBlockColumn(buf + b"extra")

    def test_checksum_detects_payload_flip(self):
        buf = bytearray(sample_rbc())
        buf[HEADER_SIZE + 2] ^= 0x01
        column = RowBlockColumn(buf)
        with pytest.raises(ChecksumMismatchError):
            column.verify()

    def test_bad_end_magic(self):
        buf = bytearray(sample_rbc())
        buf[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            RowBlockColumn(buf).verify()

    def test_pristine_verifies(self):
        RowBlockColumn(sample_rbc()).verify()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_single_byte_flip_is_detected_property(self, data):
        """Invariant 2: the checksum catches any corruption of the
        header-through-data region (footer flips fail end-magic or CRC
        comparison instead)."""
        buf = bytearray(sample_rbc())
        index = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        buf[index] ^= 1 << bit
        with pytest.raises((CorruptionError, LayoutVersionError)):
            column = RowBlockColumn(buf)
            column.verify()

    def test_to_encoded_reconstructs(self):
        values = [5, 6, 7] * 4
        buf = build_rbc(ColumnType.INT64, values)
        column = RowBlockColumn(buf)
        encoded = column.to_encoded()
        from repro.columnstore.rbc import build_rbc_from_encoded

        assert build_rbc_from_encoded(encoded) == buf
