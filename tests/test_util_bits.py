"""Tests for bit packing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.util.bits import pack_uints, required_bit_width, unpack_uints


def reference_unpack_uints(data, width, count):
    """The bit-matrix unpack :func:`unpack_uints` replaced, kept as its
    oracle: every bit becomes a uint64 and each value is their weighted
    sum, so it costs O(count * width) work and memory."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    needed_bits = width * count
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=(needed_bits + 7) // 8), count=needed_bits
    )
    bit_matrix = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bit_matrix << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def random_uints(width, count, seed=0):
    """``count`` random values below ``2**width`` (at 64 bits, top bit set)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << 63, size=count, dtype=np.uint64, endpoint=True)
    return values >> np.uint64(64 - width) if width < 64 else values | np.uint64(1 << 63)


class TestRequiredBitWidth:
    def test_zero_needs_one_bit(self):
        assert required_bit_width(0) == 1

    def test_powers_of_two(self):
        assert required_bit_width(1) == 1
        assert required_bit_width(2) == 2
        assert required_bit_width(255) == 8
        assert required_bit_width(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            required_bit_width(-1)


class TestPackUnpack:
    def test_empty(self):
        assert pack_uints(np.array([], dtype=np.uint64), 5) == b""
        assert unpack_uints(b"", 5, 0).size == 0

    def test_one_bit_values(self):
        values = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint64)
        packed = pack_uints(values, 1)
        assert len(packed) == 2  # 9 bits -> 2 bytes
        assert unpack_uints(packed, 1, 9).tolist() == values.tolist()

    def test_dense_packing_size(self):
        values = np.arange(100, dtype=np.uint64)
        width = required_bit_width(99)  # 7
        packed = pack_uints(values, width)
        assert len(packed) == (100 * 7 + 7) // 8

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            pack_uints(np.array([8], dtype=np.uint64), 3)

    def test_full_64_bit(self):
        values = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
        packed = pack_uints(values, 64)
        assert unpack_uints(packed, 64, 3).tolist() == values.tolist()

    def test_bad_width_rejected(self):
        # Restated: a width given to pack is the caller's mistake; a width
        # given to unpack was read from stored bytes, so it is corruption.
        for width in (0, 65):
            with pytest.raises(ValueError):
                pack_uints(np.array([0], dtype=np.uint64), width)
            with pytest.raises(CorruptionError, match="bit width"):
                unpack_uints(b"\x00" * 100, width, 1)

    def test_short_payload_raises_corruption(self):
        with pytest.raises(CorruptionError):
            unpack_uints(b"\x00", 8, 5)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=200),
    )
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.uint64)
        width = required_bit_width(int(arr.max()) if values else 0)
        packed = pack_uints(arr, width)
        assert unpack_uints(packed, width, len(values)).tolist() == values


class TestUnpackAgainstReference:
    """``unpack_uints`` reads each value from two 64-bit words; the bit
    matrix is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2048),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_identical_to_the_bit_matrix(self, width, count, seed):
        packed = pack_uints(random_uints(width, count, seed), width)
        got = unpack_uints(packed, width, count)
        assert got.dtype == np.uint64
        assert np.array_equal(got, reference_unpack_uints(packed, width, count))

    @pytest.mark.parametrize("width", range(1, 65))
    def test_a_full_block_at_every_width(self, width):
        values = random_uints(width, 65_536, seed=width)
        packed = pack_uints(values, width)
        got = unpack_uints(packed, width, 65_536)
        assert np.array_equal(got, values)
        assert np.array_equal(got, reference_unpack_uints(packed, width, 65_536))

    @pytest.mark.parametrize("width", [1, 7, 13, 58, 64])
    def test_memoryview_at_a_nonzero_offset(self, width):
        values = random_uints(width, 100, seed=3)
        stream = b"\xff\xff\xff" + pack_uints(values, width) + b"\xff" * 5
        view = memoryview(stream)[3:]
        assert np.array_equal(unpack_uints(view, width, 100), values)

    def test_short_payload_message(self):
        packed = pack_uints(random_uints(13, 10), 13)
        with pytest.raises(CorruptionError, match="need 17 bytes for 10 values of 13 bits, have 16"):
            unpack_uints(packed[:-1], 13, 10)

    @pytest.mark.parametrize("width", [1, 13, 60])
    def test_result_is_a_fresh_writable_array(self, width):
        # The decoded-column cache keeps it after the block is gone.
        payload = bytearray(pack_uints(random_uints(width, 64, seed=5), width))
        got = unpack_uints(memoryview(payload), width, 64)
        before = got.copy()
        assert got.dtype == np.uint64 and got.flags.writeable and got.flags.owndata
        assert not np.shares_memory(got, np.frombuffer(payload, dtype=np.uint8))
        payload[:] = bytes(len(payload))
        assert np.array_equal(got, before)
        got[0] = 1

    @pytest.mark.parametrize("width", [13, 60])
    def test_transient_memory_is_bounded_by_the_output(self, width):
        packed = pack_uints(random_uints(width, 65_536), width)
        tracemalloc.start()
        try:
            got = unpack_uints(packed, width, 65_536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * got.nbytes, f"peak {peak} bytes for a {got.nbytes}-byte result"
