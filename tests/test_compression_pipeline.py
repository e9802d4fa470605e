"""Tests for the per-type compression pipelines."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.columnstore.rbc import build_rbc
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import Table
from repro.compression import CompressionFlags, decode_column, encode_column, pipeline
from repro.compression.decoded import DecodedKind
from repro.compression.dictionary import dictionary_encode
from repro.compression.pipeline import column_arrays, decode_column_arrays
from repro.types import ColumnType
from repro.util.binary import BufferWriter, len_prefixed, len_prefixed_many
from repro.util.bits import pack_uints, required_bit_width
from repro.util.clock import ManualClock


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


def reference_len_prefixed_many(texts):
    """The string wire form as ``BufferWriter.write_str`` used to write it."""
    out = []
    for text in texts:
        writer = BufferWriter()
        writer.write_len_prefixed(text.encode("utf-8"))
        out.append(writer.getvalue())
    return out


def reference_dictionary_encode(values):
    """The one-value-at-a-time dictionary encoder, kept as the oracle."""
    ids = np.empty(len(values), dtype=np.uint64)
    index = {}
    writer = BufferWriter()
    for i, value in enumerate(values):
        slot = index.get(value)
        if slot is None:
            slot = len(index)
            index[value] = slot
            writer.write_len_prefixed(value.encode("utf-8"))
        ids[i] = slot
    if len(values) == 0:
        return b"", b"", 0
    width = required_bit_width(max(0, len(index) - 1))
    return writer.getvalue(), bytes([width]) + pack_uints(ids, width), len(index)


def oracle_rbc(ctype, values):
    """The RBC the one-value-at-a-time encoders build for ``values``."""
    with mock.patch.object(pipeline, "dictionary_encode", reference_dictionary_encode), \
            mock.patch.object(pipeline, "len_prefixed_many", reference_len_prefixed_many):
        return build_rbc(ctype, values)


#: Strings of every length class: empty, unicode, 127 bytes (the last
#: one-byte length) and 128 bytes or more (a two-byte varint).
TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "x" * 127, "x" * 128, "é" * 64, "\U0001f642" * 40]),
    st.text(min_size=130, max_size=200),
)


@st.composite
def at_the_cutoff(draw):
    """10k values of which exactly 9k are distinct: a distinct/total
    ratio of exactly 0.9, which still takes the dictionary."""
    k = draw(st.integers(1, 4))
    distinct = draw(st.lists(TEXT, min_size=9 * k, max_size=9 * k, unique=True))
    return draw(st.permutations(distinct + distinct[:k]))


STRING_COLUMNS = st.one_of(
    st.lists(TEXT, max_size=80),
    st.builds(lambda value, n: [value] * n, TEXT, st.integers(1, 40)),
    st.lists(TEXT, min_size=1, max_size=80, unique=True),
    at_the_cutoff(),
)


class TestEncodersKeepTheirBytes:
    """The joined encoders write byte for byte what the per-value
    ``BufferWriter`` encoders wrote: no RBC, content key or disk byte
    moves, so no format version does either."""

    @settings(max_examples=200, deadline=None)
    @given(STRING_COLUMNS)
    def test_strings(self, values):
        assert dictionary_encode(values) == reference_dictionary_encode(values)
        assert build_rbc(ColumnType.STRING, values) == oracle_rbc(ColumnType.STRING, values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(TEXT, max_size=4), max_size=40))
    def test_vectors(self, values):
        assert build_rbc(ColumnType.STRING_VECTOR, values) == oracle_rbc(
            ColumnType.STRING_VECTOR, values
        )

    @given(TEXT)
    def test_one_string(self, text):
        assert len_prefixed(text) == reference_len_prefixed_many([text])[0]
        assert len_prefixed_many([text, text]) == [len_prefixed(text)] * 2

    def test_the_cutoff_and_both_string_paths_are_reached(self):
        at_cutoff = [f"v{i}" for i in range(9)] + ["v0"]
        assert CompressionFlags.DICT in encode_column(ColumnType.STRING, at_cutoff).flags
        unique = [f"v{i}" for i in range(10)]
        assert CompressionFlags.DICT not in encode_column(ColumnType.STRING, unique).flags
        for values in (at_cutoff, unique):
            assert build_rbc(ColumnType.STRING, values) == oracle_rbc(ColumnType.STRING, values)

    #: sha256 (first 32 hex digits) of ``pack()`` and the ``content_key()``
    #: of a 512-row block of each workload (seed 7), as the per-value
    #: encoders sealed it.
    SEALED = {
        "service_requests": (
            "4d9d7fe5fe1c66ac79bdf138f5a0455b", "c93695b249a0abcb7495a4299b86b998"
        ),
        "error_logs": ("fb355638aa13100cc743a4fadd62bae1", "5fb815a1bcbd65b69e7a1c8e4b3d3ca8"),
        "ads_revenue": ("43aaaa0c4ad903474e37529b0c8140be", "cd47b944f0e46d2175edb377dcccfa9f"),
        "code_regressions": (
            "75ebba204f45026a661f44b606d1a484", "a945add898e86870f13f1fdca2bdf10f"
        ),
    }

    @pytest.mark.parametrize("workload", sorted(SEALED))
    def test_ledger_shaped_blocks_keep_their_bytes(self, workload):
        rows = list(getattr(workloads, workload)(512, seed=7))
        table = Table("t", clock=ManualClock(1_390_000_600.0), rows_per_block=512)
        table.add_rows(rows)
        for block in (RowBlock.from_rows(rows, created_at=1_390_000_600.0), table.blocks[0]):
            digest = hashlib.sha256(block.pack()).hexdigest()[:32]
            assert (digest, block.content_key()) == self.SEALED[workload]
