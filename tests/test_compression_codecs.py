"""Tests for the integer, float, and dictionary codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CompressionFlags
from repro.compression.dictionary import dictionary_decode, dictionary_encode
from repro.compression.floatcodec import (
    decode_float64_payload,
    encode_float64_payload,
    shuffle_bytes,
    unshuffle_bytes,
)
from repro.compression.intcodec import decode_int64_payload, encode_int64_payload
from repro.errors import CorruptionError
from tests.test_disk_format import damaged_strings


class TestIntCodec:
    def test_empty(self):
        flags, payload = encode_int64_payload(np.array([], dtype=np.int64))
        assert decode_int64_payload(flags, payload, 0).size == 0

    def test_sorted_timestamps_choose_delta(self):
        values = np.arange(1_390_000_000, 1_390_000_000 + 5000, dtype=np.int64)
        flags, payload = encode_int64_payload(values)
        assert CompressionFlags.DELTA in flags
        assert len(payload) < values.nbytes / 20
        assert decode_int64_payload(flags, payload, 5000).tolist() == values.tolist()

    def test_random_values_skip_delta(self):
        rng = np.random.default_rng(3)
        values = rng.integers(-(2**40), 2**40, size=100).astype(np.int64)
        flags, payload = encode_int64_payload(values)
        assert CompressionFlags.DELTA not in flags
        assert decode_int64_payload(flags, payload, 100).tolist() == values.tolist()

    def test_extremes(self):
        values = np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max])
        flags, payload = encode_int64_payload(values)
        assert decode_int64_payload(flags, payload, 3).tolist() == values.tolist()

    def test_single_value(self):
        flags, payload = encode_int64_payload(np.array([-42], dtype=np.int64))
        assert decode_int64_payload(flags, payload, 1).tolist() == [-42]

    def test_truncated_payload_raises(self):
        flags, payload = encode_int64_payload(np.arange(100, dtype=np.int64))
        with pytest.raises(CorruptionError):
            decode_int64_payload(flags, payload[:3], 100)

    def test_bad_flags_raise(self):
        with pytest.raises(CorruptionError):
            decode_int64_payload(CompressionFlags.LZ, b"\x01\x00", 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=300))
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        flags, payload = encode_int64_payload(arr)
        assert decode_int64_payload(flags, payload, len(values)).tolist() == values


class TestFloatCodec:
    def test_empty(self):
        flags, payload = encode_float64_payload(np.array([], dtype=np.float64))
        assert decode_float64_payload(flags, payload, 0).size == 0

    def test_repetitive_metric_compresses(self):
        values = np.array([12.5, 13.0, 12.5, 14.25] * 500)
        flags, payload = encode_float64_payload(values)
        assert CompressionFlags.LZ in flags
        assert len(payload) < values.nbytes / 3
        assert decode_float64_payload(flags, payload, 2000).tolist() == values.tolist()

    def test_special_values(self):
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300, 1e300])
        flags, payload = encode_float64_payload(values)
        assert decode_float64_payload(flags, payload, 6).tolist() == values.tolist()

    def test_nan_roundtrip(self):
        values = np.array([np.nan, 1.0])
        flags, payload = encode_float64_payload(values)
        out = decode_float64_payload(flags, payload, 2)
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_wrong_length_raises(self):
        with pytest.raises(CorruptionError):
            decode_float64_payload(CompressionFlags.RAW, b"\x00" * 12, 2)

    def test_shuffle_roundtrip(self):
        raw = bytes(range(64))
        assert unshuffle_bytes(shuffle_bytes(raw)) == raw

    def test_shuffle_rejects_ragged(self):
        with pytest.raises(ValueError):
            shuffle_bytes(b"\x00" * 9)
        with pytest.raises(CorruptionError):
            unshuffle_bytes(b"\x00" * 9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, width=64),
            max_size=200,
        )
    )
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.float64)
        flags, payload = encode_float64_payload(arr)
        assert decode_float64_payload(flags, payload, len(values)).tolist() == values


class TestDictionary:
    def test_empty(self):
        dictionary, ids, n = dictionary_encode([])
        assert (dictionary, ids, n) == (b"", b"", 0)
        assert dictionary_decode(b"", b"", 0, 0) == []

    def test_low_cardinality(self):
        values = ["a", "b", "a", "a", "c"] * 100
        dictionary, ids, n = dictionary_encode(values)
        assert n == 3
        assert dictionary_decode(dictionary, ids, n, len(values)) == values

    def test_first_appearance_order_is_deterministic(self):
        d1, i1, _ = dictionary_encode(["x", "y", "x"])
        d2, i2, _ = dictionary_encode(["x", "y", "x"])
        assert d1 == d2 and i1 == i2

    def test_unicode(self):
        values = ["héllo", "wörld", "héllo", "日本語"]
        dictionary, ids, n = dictionary_encode(values)
        assert dictionary_decode(dictionary, ids, n, 4) == values

    def test_id_out_of_range_raises(self):
        dictionary, ids, n = dictionary_encode(["a", "b"])
        with pytest.raises(CorruptionError):
            dictionary_decode(dictionary, ids, 1, 2)  # claim fewer entries

    def test_trailing_dictionary_bytes_raise(self):
        dictionary, ids, n = dictionary_encode(["a", "b"])
        with pytest.raises(CorruptionError):
            dictionary_decode(dictionary + b"junk", ids, n, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=20), max_size=200))
    def test_roundtrip_property(self, values):
        dictionary, ids, n = dictionary_encode(values)
        assert dictionary_decode(dictionary, ids, n, len(values)) == values

    @damaged_strings
    def test_damaged_section_raises(self, section):
        """The damaged twelve-string sections the column tests use."""
        _, ids, n = dictionary_encode([f"u{i}" for i in range(12)])
        with pytest.raises(CorruptionError):
            dictionary_decode(section, ids, n, n)


class TestIntDictionary:
    def test_low_cardinality_chooses_dictionary(self):
        values = np.array([200, 200, 301, 404, 500, 200] * 1000, dtype=np.int64)
        flags, payload = encode_int64_payload(values)
        assert CompressionFlags.DICT in flags
        assert CompressionFlags.BITPACK in flags
        assert len(payload) < values.nbytes / 20
        assert decode_int64_payload(flags, payload, values.size).tolist() == values.tolist()

    def test_high_cardinality_skips_dictionary(self):
        values = np.arange(10_000, dtype=np.int64) * 7919  # all distinct
        flags, payload = encode_int64_payload(values)
        assert CompressionFlags.DICT not in flags
        assert decode_int64_payload(flags, payload, values.size).tolist() == values.tolist()

    def test_negative_values_in_dictionary(self):
        values = np.array([-1, -1, 7, -1, 7, 7] * 500, dtype=np.int64)
        flags, payload = encode_int64_payload(values)
        assert CompressionFlags.DICT in flags
        assert decode_int64_payload(flags, payload, values.size).tolist() == values.tolist()

    def test_truncated_dictionary_raises(self):
        values = np.array([1, 2, 1, 2] * 500, dtype=np.int64)
        flags, payload = encode_int64_payload(values)
        assert CompressionFlags.DICT in flags
        with pytest.raises(CorruptionError):
            decode_int64_payload(flags, payload[:4], values.size)

    def test_dictionary_never_loses_to_itself(self):
        # Columns where the dictionary does not pay must fall through
        # without error and still round-trip.
        rng = np.random.default_rng(9)
        values = rng.integers(0, 50, size=60).astype(np.int64)  # tiny column
        flags, payload = encode_int64_payload(values)
        assert decode_int64_payload(flags, payload, values.size).tolist() == values.tolist()
