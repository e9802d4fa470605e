"""Bit packing for non-negative integers.

Scuba's column compression bit-packs integer payloads (dictionary ids,
zigzagged deltas) down to the minimum width that fits the largest value in
the column (paper, Section 2.1).  Both directions are vectorized with
numpy.  Packing spreads the values into a ``(n, width)`` bit matrix and
packs it with ``numpy.packbits``.  Unpacking, which every query decode
pays, reads each value out of the two 64-bit words it falls in: a few
operations per *value*, not per bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptionError


def required_bit_width(max_value: int) -> int:
    """Smallest width (in bits) able to represent ``max_value``.

    Zero needs a width of 1 so that a column of all-zeros still stores one
    bit per value and round-trips its length.
    """
    if max_value < 0:
        raise ValueError(f"bit packing requires non-negative values, got {max_value}")
    return max(1, int(max_value).bit_length())


def pack_uints(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` (non-negative, < 2**width) into a dense bitstream.

    The stream is big-endian within each value (most significant bit
    first), padded with zero bits to a whole byte at the end.
    """
    if width < 1 or width > 64:
        raise ValueError(f"bit width must be in [1, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    if width <= 63 and bool((values >> np.uint64(width)).any()):
        raise ValueError(f"a value does not fit in {width} bits")
    # Build an (n, width) matrix of bits, MSB first, then pack row-major.
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bit_matrix = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1)).tobytes()


def unpack_uints(data: bytes | memoryview, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uints`; returns a fresh, writable ``uint64``
    array of ``count`` values.

    ``width`` is read from stored bytes by every caller, so a width out of
    ``[1, 64]`` is corruption, as is a payload too short for ``count``
    values.  Value ``i`` occupies bits ``[i * width, (i + 1) * width)``,
    which lie within the stream's big-endian 64-bit words ``j = (i *
    width) >> 6`` and ``j + 1``: shift word ``j`` left by ``o = (i *
    width) & 63``, OR in word ``j + 1`` shifted right by ``64 - o``, and
    keep the top ``width`` bits.
    """
    if width < 1 or width > 64:
        raise CorruptionError(f"bit width must be in [1, 64], got {width}")
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    needed_bytes = (width * count + 7) // 8
    if len(data) < needed_bytes:
        raise CorruptionError(
            f"bit-packed payload too short: need {needed_bytes} bytes for "
            f"{count} values of {width} bits, have {len(data)}"
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=needed_bytes)
    if width == 1:
        return np.unpackbits(raw, count=count).astype(np.uint64)
    # Zero-padded to whole words, with one more so the last value has a ``j + 1``.
    padded = np.zeros((needed_bytes // 8 + 2) * 8, dtype=np.uint8)
    padded[:needed_bytes] = raw
    words = padded.view(">u8").astype(np.uint64)
    bit = np.arange(0, count * width, width, dtype=np.int64)
    offset = (bit & 63).view(np.uint64)
    bit >>= 6
    values = words[bit]
    values <<= offset
    bit += 1
    low = words[bit]
    np.subtract(np.uint64(64), offset, out=offset)
    low >>= offset  # numpy shifts a uint64 by 64 to 0: nothing spills at o = 0
    values |= low
    values >>= np.uint64(64 - width)
    return values
