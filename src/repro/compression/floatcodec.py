"""Float column encoding: byte shuffle plus deflate.

IEEE-754 doubles from a single metric (latencies, revenue counters) share
sign/exponent bytes; transposing the payload so all first bytes come
first, then all second bytes, and so on, turns that redundancy into long
runs the deflate stage can exploit.  This is the same trick Blosc and
HDF5's shuffle filter use, and it satisfies the paper's "at least two
methods per column" for floats (SHUFFLE + LZ).  The payload inflates to
exactly ``n_items × 8`` bytes, so that is the bound it is inflated under.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionFlags
from repro.compression.lzs import lz_compress, lz_decompress
from repro.errors import CorruptionError


def shuffle_bytes(raw: bytes) -> bytes:
    """Transpose ``raw`` (n 8-byte items) byte-plane-wise."""
    if len(raw) % 8:
        raise ValueError(
            f"buffer of {len(raw)} bytes is not a whole number of 8-byte items"
        )
    matrix = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8)
    return matrix.T.tobytes()


def unshuffle_bytes(shuffled: bytes | memoryview) -> bytes:
    """Invert :func:`shuffle_bytes`."""
    if len(shuffled) % 8:
        raise CorruptionError(
            f"shuffled buffer of {len(shuffled)} bytes is not a whole "
            "number of 8-byte items"
        )
    matrix = np.frombuffer(shuffled, dtype=np.uint8).reshape(8, -1)
    return matrix.T.tobytes()


def encode_float64_payload(values: np.ndarray) -> tuple[CompressionFlags, bytes]:
    """Encode a float64 array; falls back to RAW when deflate does not pay."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    raw = values.tobytes()
    if not raw:
        return CompressionFlags.RAW, b""
    shuffled = shuffle_bytes(raw)
    compressed = lz_compress(shuffled)
    if len(compressed) < len(raw):
        return CompressionFlags.SHUFFLE | CompressionFlags.LZ, compressed
    return CompressionFlags.RAW, raw


def decode_float64_payload(
    flags: CompressionFlags, payload: bytes | memoryview, n_items: int
) -> np.ndarray:
    """Invert :func:`encode_float64_payload` for ``n_items`` values."""
    if n_items == 0:
        return np.empty(0, dtype=np.float64)
    if CompressionFlags.LZ in flags:
        raw = lz_decompress(payload, n_items * 8)
        if CompressionFlags.SHUFFLE in flags:
            raw = unshuffle_bytes(raw)
    elif flags == CompressionFlags.RAW:
        raw = bytes(payload)
    else:
        raise CorruptionError(f"unsupported float64 flag combination: {flags!r}")
    if len(raw) != n_items * 8:
        raise CorruptionError(
            f"float64 payload decodes to {len(raw)} bytes; expected {n_items * 8}"
        )
    return np.frombuffer(raw, dtype=np.float64).copy()
