"""An LZ77-style byte compressor, implemented from scratch.

This is the stand-in for lz4 in the paper's codec list.  It uses the same
structural idea as the lz4 block format — a greedy parse with a hash table
over 4-byte prefixes, emitting alternating literal runs and back-references
— with varint-coded lengths instead of lz4's nibble tokens, which keeps the
pure-Python encoder and decoder short and unambiguous.

Stream format (repeated until input is exhausted)::

    varint literal_len
    literal_len raw bytes
    varint match_len        # 0 only in the final token (no match follows)
    varint match_distance   # >= 1, distance back from current position

The compressor never expands pathologically: callers (the pipeline) compare
output to input size and fall back to RAW when compression does not pay.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptionError
from repro.util.binary import decode_varint, encode_varint

_MIN_MATCH = 4
_MAX_CHAIN = 16  # how many hash-bucket candidates the encoder probes
_WINDOW = 1 << 16  # maximum back-reference distance


def lz_compress(data: bytes | memoryview) -> bytes:
    """Compress ``data``; the empty input compresses to the empty output.

    The parse is greedy: the newest ``_MAX_CHAIN`` earlier positions in
    the same hash bucket (Fibonacci hash of the 4-byte word, as in lz4)
    are tried newest first, and the strictly longest match within
    ``_WINDOW`` wins.  Sealed blocks, content keys and snapshot chains
    are made of these exact bytes, so the shortcuts only skip work that
    cannot change the parse (the tests hold a byte-at-a-time reference
    against it): words and hashes come from numpy once; ``bytes.find``
    hops over positions whose hash nothing shares, which can neither
    find nor be a candidate; a candidate whose word differs matches
    fewer than ``_MIN_MATCH`` bytes, and one that differs at offset
    ``best_len`` cannot be strictly longer; matches are extended by
    XOR-ing slices of doubling width.
    """
    data = bytes(data)
    n = len(data)
    if n < _MIN_MATCH:
        return bytes((n,)) + data + b"\x00\x00" if n else b""
    octets = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    word_at = octets[:-3] | octets[1:-2] << 8 | octets[2:-1] << 16 | octets[3:] << 24
    hash_at = ((word_at * 2654435761) >> 18 & 0x3FFF).astype(np.intp)
    shared = (np.bincount(hash_at)[hash_at] > 1).tobytes()
    words = word_at.tolist()
    hashes = hash_at.tolist()
    out = bytearray()

    def put_varint(value: int) -> None:
        if value < 0x80:
            out.append(value)
        else:
            out.extend(encode_varint(value))

    table: dict[int, list[int]] = {}
    pos = 0
    literal_start = 0
    while (pos := shared.find(1, pos)) >= 0:
        bucket = table.setdefault(hashes[pos], [])
        best_len = best_dist = 0
        word = words[pos]
        limit = n - pos
        for cand in bucket[: -_MAX_CHAIN - 1 : -1]:
            if pos - cand > _WINDOW:
                break
            if words[cand] != word or (
                best_len
                and (best_len == limit or data[cand + best_len] != data[pos + best_len])
            ):
                continue
            match_len = _MIN_MATCH
            width = 8
            while match_len < limit:
                diff = int.from_bytes(
                    data[cand + match_len : cand + match_len + width], "little"
                ) ^ int.from_bytes(data[pos + match_len : pos + match_len + width], "little")
                if diff:
                    # Lowest set bit -> first differing byte.  The end of
                    # the input may cut the slice at ``pos`` short; what
                    # the other holds past it is clamped away below.
                    match_len += ((diff & -diff).bit_length() - 1) >> 3
                    break
                match_len += width
                width <<= 1
            match_len = min(match_len, limit)
            if match_len > best_len:
                best_len = match_len
                best_dist = pos - cand
        bucket.append(pos)
        if not best_len:
            pos += 1
            continue
        put_varint(pos - literal_start)
        out += data[literal_start:pos]
        put_varint(best_len)
        put_varint(best_dist)
        # Index a sparse sample of positions inside the match so later
        # matches can still find this region without O(n) inserts.
        end = pos + best_len
        for probe in range(pos + 1, min(end, n - 3) - 3, max(1, best_len // 8)):
            table.setdefault(hashes[probe], []).append(probe)
        pos = literal_start = end
    # Final token: trailing literals with match_len 0.
    put_varint(n - literal_start)
    out += data[literal_start:]
    out += b"\x00\x00"
    return bytes(out)


def lz_decompress(data: bytes | memoryview) -> bytes:
    """Invert :func:`lz_compress`.

    Raises :class:`CorruptionError` on truncated streams or references
    reaching before the start of the output.
    """
    data = bytes(data)
    if not data:
        return b""
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        literal_len, pos = decode_varint(data, pos)
        if pos + literal_len > n:
            raise CorruptionError("LZ literal run overruns the compressed stream")
        out += data[pos : pos + literal_len]
        pos += literal_len
        match_len, pos = decode_varint(data, pos)
        match_dist, pos = decode_varint(data, pos)
        if match_len == 0:
            if match_dist != 0:
                raise CorruptionError("LZ terminator token has nonzero distance")
            break
        if match_dist == 0 or match_dist > len(out):
            raise CorruptionError(
                f"LZ back-reference distance {match_dist} outside the "
                f"{len(out)} bytes produced so far"
            )
        start = len(out) - match_dist
        if match_dist >= match_len:
            # Non-overlapping: the whole match already exists, one slice.
            out += out[start : start + match_len]
        else:
            # Overlapping copies are legal (distance < length repeats the
            # last `distance` bytes): everything past `start` is periodic
            # with period `match_dist`, so chunks can be taken from the
            # fixed `start` as long as each begins at a period boundary —
            # which they do, because the available window (a multiple of
            # the period) doubles with every extension.
            remaining = match_len
            while remaining > 0:
                take = min(len(out) - start, remaining)
                out += out[start : start + take]
                remaining -= take
    else:
        raise CorruptionError("LZ stream ended without a terminator token")
    return bytes(out)
