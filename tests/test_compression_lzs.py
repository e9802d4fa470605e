"""Tests for the from-scratch LZ codec."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lzs import (
    _MAX_CHAIN,
    _MIN_MATCH,
    _WINDOW,
    lz_compress,
    lz_decompress,
)
from repro.errors import CorruptionError
from repro.util.binary import encode_varint


class TestLzRoundtrip:
    def test_empty(self):
        assert lz_compress(b"") == b""
        assert lz_decompress(b"") == b""

    def test_tiny_input(self):
        for data in (b"a", b"ab", b"abc"):
            assert lz_decompress(lz_compress(data)) == data

    def test_repetitive_compresses_well(self):
        data = b"GET /api/users 200 OK " * 500
        compressed = lz_compress(data)
        assert lz_decompress(compressed) == data
        assert len(compressed) < len(data) / 10

    def test_incompressible_survives(self):
        import random

        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(4096))
        assert lz_decompress(lz_compress(data)) == data

    def test_overlapping_match(self):
        # distance < length forces the byte-by-byte overlap copy path
        data = b"ab" * 1000
        compressed = lz_compress(data)
        assert lz_decompress(compressed) == data
        assert len(compressed) < 50

    def test_all_same_byte(self):
        data = b"\x00" * 10_000
        assert lz_decompress(lz_compress(data)) == data

    def test_match_at_end(self):
        data = b"0123456789" + b"abcdefgh" + b"abcdefgh"
        assert lz_decompress(lz_compress(data)) == data

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=3000))
    def test_roundtrip_property(self, data):
        assert lz_decompress(lz_compress(data)) == data

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from([b"host=web", b"status=200", b" ", b"err", b"\x00\x01"]),
            max_size=400,
        )
    )
    def test_roundtrip_structured_property(self, parts):
        data = b"".join(parts)
        assert lz_decompress(lz_compress(data)) == data


def reference_lz_compress(data: bytes) -> bytes:
    """The encoder as first written: one hash per visit, every candidate
    extended a byte at a time.  Sealed blocks, content keys and snapshot
    chains are made of its output, so the production encoder must agree
    with it on every input, to the byte."""

    def hash4(pos: int) -> int:
        word = data[pos] | data[pos + 1] << 8 | data[pos + 2] << 16 | data[pos + 3] << 24
        return (word * 2654435761) >> 18 & 0x3FFF

    n = len(data)
    if n == 0:
        return b""
    out = bytearray()
    table: dict[int, list[int]] = {}
    pos = 0
    literal_start = 0
    while pos + _MIN_MATCH <= n:
        key = hash4(pos)
        best_len = 0
        best_dist = 0
        for cand in reversed(table.get(key, [])[-_MAX_CHAIN:]):
            dist = pos - cand
            if dist > _WINDOW:
                break
            match_len = 0
            while match_len < n - pos and data[cand + match_len] == data[pos + match_len]:
                match_len += 1
            if match_len > best_len:
                best_len = match_len
                best_dist = dist
        table.setdefault(key, []).append(pos)
        if best_len >= _MIN_MATCH:
            out += encode_varint(pos - literal_start)
            out += data[literal_start:pos]
            out += encode_varint(best_len)
            out += encode_varint(best_dist)
            end = pos + best_len
            step = max(1, best_len // 8)
            probe = pos + 1
            while probe + _MIN_MATCH <= min(end, n - _MIN_MATCH + 1):
                table.setdefault(hash4(probe), []).append(probe)
                probe += step
            pos = end
            literal_start = pos
        else:
            pos += 1
    out += encode_varint(n - literal_start)
    out += data[literal_start:]
    out += encode_varint(0)
    out += encode_varint(0)
    return bytes(out)


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
    """The production encoder against the retained reference."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(low_entropy, float_planes, id_strings, runs, st.binary(max_size=600)))
    def test_stream_equals_reference(self, data):
        compressed = lz_compress(data)
        assert compressed == reference_lz_compress(data)
        assert lz_decompress(compressed) == data

    @pytest.mark.parametrize(
        "data",
        [b"", b"a", b"ab", b"abc", b"abcd", b"aaaa", b"aaaaa", b"abcabcabc", b"ab" * 1000]
        + [b"\x00" * 10_000, b"0123456789abcdefghabcdefgh", b"xyzw" * 3 + b"xyz"],
        ids=len,
    )
    def test_short_inputs_and_overlapping_runs(self, data):
        assert lz_compress(data) == reference_lz_compress(data)
        assert lz_decompress(lz_compress(data)) == data

    def test_input_longer_than_the_window(self):
        """A block that recurs beyond ``_WINDOW`` may not be referenced;
        one that recurs just inside it must be, by the same candidate."""
        rng = random.Random(18)
        block = bytes(rng.randrange(256) for _ in range(3000))
        filler = bytes(rng.randrange(4) for _ in range(_WINDOW + 5000))
        data = block + filler + block + b"xyz" + block[:1000]
        compressed = lz_compress(data)
        assert compressed == reference_lz_compress(data)
        assert lz_decompress(compressed) == data

    @pytest.mark.parametrize("distance", [_WINDOW - 1, _WINDOW, _WINDOW + 1])
    def test_candidate_at_the_window_edge(self, distance):
        rng = random.Random(distance)
        marker = b"\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7"
        filler = bytes(rng.randrange(0xE0) for _ in range(distance - len(marker)))
        data = marker + filler + marker + b"tail"
        compressed = lz_compress(data)
        assert compressed == reference_lz_compress(data)
        assert lz_decompress(compressed) == data

    def test_more_than_max_chain_candidates_per_bucket(self):
        """Only the newest ``_MAX_CHAIN`` bucket entries are tried, so an
        older, longer match is deliberately missed — by both encoders."""
        data = b"abcdEFGHIJ" + b"".join(b"abcd%02d" % i for i in range(40)) + b"abcdEFGHIJ"
        assert lz_compress(data) == reference_lz_compress(data)


def _seed_decompress(data: bytes) -> bytes:
    """The pre-optimization decompressor: per-byte append for match
    copies.  Kept as the reference for the micro-bench regression test."""
    from repro.util.binary import decode_varint

    data = bytes(data)
    if not data:
        return b""
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        literal_len, pos = decode_varint(data, pos)
        out += data[pos : pos + literal_len]
        pos += literal_len
        match_len, pos = decode_varint(data, pos)
        match_dist, pos = decode_varint(data, pos)
        if match_len == 0:
            break
        start = len(out) - match_dist
        for i in range(match_len):
            out.append(out[start + i])
    return bytes(out)


class TestLzDecompressSpeed:
    def test_chunked_matches_seed_bytewise_output(self):
        payloads = [
            b"GET /api/users 200 OK " * 500,
            b"ab" * 4000,          # overlapping, period 2
            b"\x00" * 10_000,      # overlapping, period 1
            b"xyz" + b"abcdefgh" * 300 + b"tail",
        ]
        for data in payloads:
            compressed = lz_compress(data)
            assert lz_decompress(compressed) == _seed_decompress(compressed) == data

    def test_decompress_1mb_at_least_5x_faster_than_seed(self):
        """The satellite perf floor: chunked slice extension must beat the
        per-byte loop by >= 5x on a 1 MB repetitive payload."""
        import time

        data = (b"GET /api/users?id=12345 200 OK host=web01 dc=prn " * 25_000)[: 1 << 20]
        compressed = lz_compress(data)

        def best_of(fn, rounds=3):
            times = []
            for _ in range(rounds):
                started = time.perf_counter()
                result = fn(compressed)
                times.append(time.perf_counter() - started)
                assert result == data
            return min(times)

        seed_s = best_of(_seed_decompress, rounds=1)  # the slow one, once
        fast_s = best_of(lz_decompress)
        assert seed_s / fast_s >= 5.0, (
            f"chunked decompress only {seed_s / fast_s:.1f}x faster than the "
            f"seed byte-wise loop ({fast_s * 1000:.1f} ms vs {seed_s * 1000:.1f} ms)"
        )


class TestLzCorruption:
    def test_truncated_literals(self):
        compressed = lz_compress(b"hello world, hello world, hello world")
        with pytest.raises(CorruptionError):
            lz_decompress(compressed[: len(compressed) // 2])

    def test_bad_distance(self):
        # literal_len=0, match_len=4, distance=9 with empty output
        stream = bytes([0, 4, 9])
        with pytest.raises(CorruptionError):
            lz_decompress(stream)

    def test_missing_terminator(self):
        # A stream that ends right after a valid literal run
        stream = bytes([3]) + b"abc"
        with pytest.raises(CorruptionError):
            lz_decompress(stream)

    def test_nonzero_distance_on_terminator(self):
        stream = bytes([1]) + b"a" + bytes([0, 5])
        with pytest.raises(CorruptionError):
            lz_decompress(stream)
