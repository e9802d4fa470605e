"""Tests for the byte codec: stdlib raw deflate, bounded on the way back."""

import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.rbc import RowBlockColumn, build_rbc_from_encoded
from repro.compression import CompressionFlags, EncodedColumn
from repro.compression.lzs import lz_compress, lz_decompress
from repro.errors import CorruptionError
from repro.types import ColumnType

#: Generous for every round trip below; the bound itself is tested apart.
LIMIT = 1 << 24


class TestLzRoundtrip:
    def test_empty(self):
        assert lz_compress(b"") == b""
        assert lz_decompress(b"", 0) == b""

    def test_tiny_input(self):
        for data in (b"a", b"ab", b"abc"):
            assert lz_decompress(lz_compress(data), len(data)) == data

    def test_repetitive_compresses_well(self):
        data = b"GET /api/users 200 OK " * 500
        compressed = lz_compress(data)
        assert lz_decompress(compressed, LIMIT) == data
        assert len(compressed) < len(data) / 10

    def test_incompressible_survives(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(4096))
        assert lz_decompress(lz_compress(data), LIMIT) == data

    def test_overlapping_match(self):
        # distance < length: the back-reference overlaps its own output
        data = b"ab" * 1000
        compressed = lz_compress(data)
        assert lz_decompress(compressed, LIMIT) == data
        assert len(compressed) < 50

    def test_all_same_byte(self):
        data = b"\x00" * 10_000
        assert lz_decompress(lz_compress(data), LIMIT) == data

    def test_match_at_end(self):
        data = b"0123456789" + b"abcdefgh" + b"abcdefgh"
        assert lz_decompress(lz_compress(data), LIMIT) == data

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=3000))
    def test_roundtrip_property(self, data):
        assert lz_decompress(lz_compress(data), len(data)) == data

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from([b"host=web", b"status=200", b" ", b"err", b"\x00\x01"]),
            max_size=400,
        )
    )
    def test_roundtrip_structured_property(self, parts):
        data = b"".join(parts)
        assert lz_decompress(lz_compress(data), len(data)) == data


def reference_deflate(data: bytes) -> bytes:
    """The body of the stdlib's zlib-wrapped level-1 stream: the same
    raw deflate with its 2-byte header and 4-byte Adler-32 trailer cut
    off (the empty input is the empty stream, by the codec's rule)."""
    return zlib.compress(data, 1)[2:-4] if data else b""


def shuffled_float_plane(values: list[float]) -> bytes:
    """Byte planes of the doubles, as the float codec hands them over."""
    raw = struct.pack(f"<{len(values)}d", *values)
    return b"".join(raw[plane::8] for plane in range(8))


low_entropy = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.lists(st.integers(min_value=0, max_value=k), max_size=2500).map(bytes)
)
float_planes = st.lists(
    st.floats(min_value=0, max_value=500, allow_nan=False).map(lambda v: round(v, 3)),
    max_size=300,
).map(shuffled_float_plane)
id_strings = st.lists(st.integers(min_value=0, max_value=9999), max_size=300).map(
    lambda ids: b"".join(b"\x0bweb%04d.ash" % i for i in ids)
)
runs = st.lists(
    st.tuples(st.binary(min_size=1, max_size=5), st.integers(min_value=1, max_value=400)),
    max_size=8,
).map(lambda parts: b"".join(unit * count for unit, count in parts))


class TestEncoderIsByteIdentical:
    """Sealed blocks, content keys and snapshot chains are made of these
    exact bytes, so the stream is pinned: level 1, 32 KiB window, no
    wrapper — what the stdlib's one-shot zlib stream carries inside."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(low_entropy, float_planes, id_strings, runs, st.binary(max_size=600)))
    def test_stream_equals_reference(self, data):
        compressed = lz_compress(data)
        assert compressed == reference_deflate(data)
        assert lz_decompress(compressed, len(data)) == data

    @pytest.mark.parametrize(
        "data",
        [b"", b"a", b"ab", b"abc", b"abcd", b"aaaa", b"aaaaa", b"abcabcabc", b"ab" * 1000]
        + [b"\x00" * 10_000, b"0123456789abcdefghabcdefgh", b"xyzw" * 3 + b"xyz"],
        ids=len,
    )
    def test_short_inputs_and_overlapping_runs(self, data):
        assert lz_compress(data) == reference_deflate(data)
        assert lz_decompress(lz_compress(data), len(data)) == data

    def test_input_longer_than_the_window(self):
        """A block that recurs beyond deflate's 32 KiB window cannot be
        referenced; one that recurs inside it is."""
        rng = random.Random(18)
        block = bytes(rng.randrange(256) for _ in range(3000))
        filler = bytes(rng.randrange(4) for _ in range((1 << 15) + 5000))
        data = block + filler + block + b"xyz" + block[:1000]
        compressed = lz_compress(data)
        assert compressed == reference_deflate(data)
        assert lz_decompress(compressed, len(data)) == data


class TestLzCorruption:
    def test_truncated_literals(self):
        compressed = lz_compress(b"hello world, hello world, hello world")
        with pytest.raises(CorruptionError, match="ends before"):
            lz_decompress(compressed[: len(compressed) // 2], LIMIT)

    def test_bad_distance(self):
        # A stream made against a preset dictionary reaches back into
        # bytes this inflater never produced.
        deflater = zlib.compressobj(1, zlib.DEFLATED, -15, zdict=b"hello world " * 4)
        stream = deflater.compress(b"hello world " * 4) + deflater.flush()
        with pytest.raises(CorruptionError, match="damaged"):
            lz_decompress(stream, LIMIT)

    def test_missing_terminator(self):
        # A sync-flushed stream: every byte intact, no final block.
        deflater = zlib.compressobj(1, zlib.DEFLATED, -15)
        stream = deflater.compress(b"abc" * 50) + deflater.flush(zlib.Z_SYNC_FLUSH)
        with pytest.raises(CorruptionError, match="ends before"):
            lz_decompress(stream, LIMIT)

    def test_trailing_bytes_after_the_final_block(self):
        with pytest.raises(CorruptionError, match="trailing"):
            lz_decompress(lz_compress(b"abc" * 50) + b"\x00", LIMIT)

    def test_garbage_is_not_a_stream(self):
        with pytest.raises(CorruptionError):
            lz_decompress(b"\xff" * 32, LIMIT)


class TestEveryInflateIsBounded:
    """Hostile bytes: a few bytes of deflate can ask for megabytes, so
    every inflate runs under the payload's own bound."""

    def test_exact_bound_passes_and_one_byte_less_refuses(self):
        data = b"x" * 5000
        compressed = lz_compress(data)
        assert lz_decompress(compressed, 5000) == data
        with pytest.raises(CorruptionError, match="past its 4999-byte bound"):
            lz_decompress(compressed, 4999)

    def test_float_rbc_with_a_bomb_refuses_without_inflating_it(self):
        """A ~1 KB stream that inflates to ~1 MB, dressed as a 4-item
        float column: the decode stops at 4 × 8 bytes (plus one) and
        raises, and its memory stays within the inflater's own state."""
        deflater = zlib.compressobj(9, zlib.DEFLATED, -15)
        bomb = deflater.compress(b"\x00" * (1 << 20)) + deflater.flush()
        assert 500 < len(bomb) < 1500
        flags = CompressionFlags.SHUFFLE | CompressionFlags.LZ
        rbc = RowBlockColumn(build_rbc_from_encoded(EncodedColumn(flags, 4, 0, b"", bomb)))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptionError, match="bound"):
                rbc.decoded(ColumnType.FLOAT64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_float_payload_inflates_to_exactly_its_items(self):
        flags = CompressionFlags.SHUFFLE | CompressionFlags.LZ
        short = lz_compress(np.arange(3, dtype=np.float64).tobytes())
        rbc = RowBlockColumn(build_rbc_from_encoded(EncodedColumn(flags, 4, 0, b"", short)))
        with pytest.raises(CorruptionError):
            rbc.decoded(ColumnType.FLOAT64)
