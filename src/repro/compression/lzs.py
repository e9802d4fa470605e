"""Byte compression: the stdlib's raw deflate, bounded on the way back.

This is the general-purpose stage in the paper's codec list (lz4 there):
the C ``zlib`` at level 1 — its fastest setting — with no zlib header or
trailer (``wbits=-15``), since every stored payload already sits under a
CRC of its own.  Stored bytes are content (sealed blocks, content keys,
snapshot chains), so the level is one constant, never a knob.

Inflating is where hostile bytes bite — a few bytes of deflate can ask
for megabytes — so every caller says how large the payload may be and
:func:`lz_decompress` never produces more.  The empty input compresses to
the empty output; callers keep a payload raw whenever compression does
not pay.
"""

from __future__ import annotations

import zlib

from repro.errors import CorruptionError

_LEVEL = 1


def lz_compress(data: bytes | memoryview) -> bytes:
    """Deflate ``data`` into one raw stream (empty for empty input)."""
    if not len(data):
        return b""
    deflater = zlib.compressobj(_LEVEL, zlib.DEFLATED, -15)
    return deflater.compress(data) + deflater.flush()


def lz_decompress(data: bytes | memoryview, limit: int) -> bytes:
    """Invert :func:`lz_compress` for a payload of at most ``limit`` bytes.

    ``data`` must be exactly one complete stream: a damaged one, one cut
    short, bytes after its end, or output past ``limit`` (never produced
    beyond one byte) all raise :class:`CorruptionError`.
    """
    if not len(data):
        return b""
    inflater = zlib.decompressobj(-15)
    try:
        # One byte of slack tells "exactly limit" from "more than limit".
        out = inflater.decompress(data, limit + 1)
    except zlib.error as exc:
        raise CorruptionError(f"damaged deflate stream: {exc}") from exc
    if len(out) > limit:
        raise CorruptionError(f"deflate stream inflates past its {limit}-byte bound")
    if not inflater.eof:
        raise CorruptionError("deflate stream ends before its final block")
    if inflater.unused_data:
        raise CorruptionError("trailing bytes after the deflate stream")
    return out
