"""Tests for the per-type compression pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CompressionFlags, decode_column, encode_column
from repro.compression.decoded import DecodedKind
from repro.compression.pipeline import column_arrays, decode_column_arrays
from repro.types import ColumnType


class TestInt64Pipeline:
    def test_applies_at_least_two_methods(self):
        encoded = encode_column(ColumnType.INT64, list(range(1000)))
        methods = [
            flag
            for flag in (
                CompressionFlags.DICT,
                CompressionFlags.DELTA,
                CompressionFlags.ZIGZAG,
                CompressionFlags.BITPACK,
                CompressionFlags.LZ,
                CompressionFlags.SHUFFLE,
            )
            if flag in encoded.flags
        ]
        assert len(methods) >= 2

    def test_timestamp_compression_factor(self):
        # Nearly-sorted timestamps: the paper's ~30x factor territory.
        values = [1_390_000_000 + i // 3 for i in range(10_000)]
        encoded = encode_column(ColumnType.INT64, values)
        assert 8 * len(values) / encoded.payload_size > 20


class TestStringPipeline:
    def test_low_cardinality_uses_dictionary(self):
        values = ["webserver", "database", "cache"] * 300
        encoded = encode_column(ColumnType.STRING, values)
        assert CompressionFlags.DICT in encoded.flags
        assert decode_column(ColumnType.STRING, encoded) == values
        assert encoded.payload_size < sum(len(v) for v in values) / 5

    def test_high_cardinality_skips_dictionary(self):
        values = [f"request-{i:08x}" for i in range(500)]
        encoded = encode_column(ColumnType.STRING, values)
        assert CompressionFlags.DICT not in encoded.flags
        assert decode_column(ColumnType.STRING, encoded) == values

    def test_empty_strings(self):
        values = ["", "", "x", ""]
        encoded = encode_column(ColumnType.STRING, values)
        assert decode_column(ColumnType.STRING, encoded) == values

    def test_large_dictionary_gets_lz(self):
        # Many long distinct-but-similar entries, repeated enough to
        # stay under the cardinality cutoff.
        distinct = [f"/var/www/htdocs/site/section{i:03d}/index.php" for i in range(40)]
        values = distinct * 10
        encoded = encode_column(ColumnType.STRING, values)
        assert CompressionFlags.DICT_LZ in encoded.flags
        assert decode_column(ColumnType.STRING, encoded) == values


class TestVectorPipeline:
    def test_mixed_lengths(self):
        values = [["a", "b"], [], ["c"], ["a", "a", "a"]] * 50
        encoded = encode_column(ColumnType.STRING_VECTOR, values)
        assert decode_column(ColumnType.STRING_VECTOR, encoded) == values

    def test_all_empty_vectors(self):
        values = [[] for _ in range(20)]
        encoded = encode_column(ColumnType.STRING_VECTOR, values)
        assert decode_column(ColumnType.STRING_VECTOR, encoded) == values

    def test_empty_column(self):
        encoded = encode_column(ColumnType.STRING_VECTOR, [])
        assert decode_column(ColumnType.STRING_VECTOR, encoded) == []


class TestPipelineGeneral:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_column("not-a-type", [1])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=200))
    def test_int_roundtrip_property(self, values):
        encoded = encode_column(ColumnType.INT64, values)
        assert decode_column(ColumnType.INT64, encoded) == values

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=150))
    def test_float_roundtrip_property(self, values):
        encoded = encode_column(ColumnType.FLOAT64, values)
        assert decode_column(ColumnType.FLOAT64, encoded) == values

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=15), max_size=150))
    def test_string_roundtrip_property(self, values):
        encoded = encode_column(ColumnType.STRING, values)
        assert decode_column(ColumnType.STRING, encoded) == values

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.text(max_size=8), max_size=5), max_size=80))
    def test_vector_roundtrip_property(self, values):
        encoded = encode_column(ColumnType.STRING_VECTOR, values)
        assert decode_column(ColumnType.STRING_VECTOR, encoded) == values


#: (type, values) of every column type, at sizes that reach both string
#: encodings (dictionary, and raw for near-unique values).
TYPED_VALUES = st.one_of(
    st.tuples(
        st.just(ColumnType.INT64),
        st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=60),
    ),
    st.tuples(st.just(ColumnType.FLOAT64), st.lists(st.floats(width=64), max_size=60)),
    st.tuples(
        st.just(ColumnType.STRING),
        st.lists(st.one_of(st.sampled_from("abc"), st.text(max_size=6)), max_size=300),
    ),
    st.tuples(
        st.just(ColumnType.STRING_VECTOR),
        st.lists(st.lists(st.sampled_from(["x", "y", "", "zz"]), max_size=4), max_size=40),
    ),
)


class TestColumnArrays:
    """``column_arrays`` is the decode of the encode, without either."""

    @settings(max_examples=120, deadline=None)
    @given(TYPED_VALUES)
    def test_equals_the_decode_of_the_encode(self, typed):
        ctype, values = typed
        built = column_arrays(ctype, values)
        decoded = decode_column_arrays(ctype, encode_column(ctype, values))
        assert built.kind is decoded.kind
        assert len(built) == len(decoded) == len(values)
        if built.kind is DecodedKind.NUMERIC:
            assert built.values.dtype == decoded.values.dtype
            assert np.array_equal(built.values, decoded.values, equal_nan=True)
            return
        assert built.codes.dtype == decoded.codes.dtype
        assert [built.entries[code] for code in built.codes] == [
            decoded.entries[code] for code in decoded.codes
        ]
        if built.kind is DecodedKind.VECTOR:
            assert np.array_equal(built.offsets, decoded.offsets)
            assert built.offsets.dtype == decoded.offsets.dtype

    def test_arrays_are_fresh(self):
        values = [1, 2, 3]
        column = column_arrays(ColumnType.INT64, values)
        values[0] = 99
        assert column.values.tolist() == [1, 2, 3]
